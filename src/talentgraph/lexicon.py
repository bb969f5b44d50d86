"""Skill lexicon and skill-sentiment gazetteer.

Both are curated UTF-8 JSON documents loaded once and treated as immutable
afterwards, so they are safe for unrestricted concurrent reads.

Lexicon document::

    {
      "schema_version": 1,
      "skills": [
        {"canonical": "c++",
         "category": "programming languages",
         "aliases": ["c++", "cpp"]}
      ]
    }

Gazetteer document::

    {
      "schema_version": 1,
      "entries": [
        {"keyword": "scalability", "class": "strong-technical", "weight": 0.9},
        {"keyword": "debugging", "class": "strong-technical", "weight": 0.8}
      ]
    }

All strings are lowercase-folded and whitespace-trimmed at load time; lookups
fold the same way, so matching is case-insensitive throughout. A keyword
weighs the same whatever skill a description mentions: an entry with a
"skill" field is rejected, never dropped.

A lexicon's phrase index, the form free-text skill matching uses, is derived
from the entries' aliases on first use and cached. This relies on the lexicon being
immutable; a concurrent first use builds equal values.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

from ._io import SCHEMA_VERSION, dumps, read_document
from .errors import (
    AliasConflictError,
    GazetteerFormatError,
    LexiconFormatError,
    WeightRangeError,
)
from .tokenization import DEFAULT_KEEP_CHARS, token_pattern, tokenize


def _fold(text: str) -> str:
    """Lowercase, trim and collapse internal whitespace."""
    return " ".join(text.lower().split())


# Slotted but not frozen, as ``graph.NodeId``: a lexicon load makes one per record.
@dataclass(slots=True, unsafe_hash=True)
class SkillEntry:
    canonical: str
    category: str
    aliases: frozenset[str]


# Slotted but not frozen, as ``SkillEntry``: a gazetteer load makes one per record.
@dataclass(slots=True, unsafe_hash=True)
class SentimentEntry:
    keyword: str
    keyword_class: str
    weight: float


class SkillLexicon:
    """Canonical skills with an alias->canonical index.

    The constructor rejects a repeated canonical and any alias claimed by two
    different skills, so the alias index is injective into canonicals.
    """

    def __init__(self, entries: Iterable[SkillEntry]):
        self.entries: list[SkillEntry] = list(entries)
        by_canonical: dict[str, SkillEntry] = {}
        index: dict[str, str] = {}
        for i, entry in enumerate(self.entries):
            canonical = entry.canonical
            if canonical in by_canonical:
                raise LexiconFormatError(f"skills[{i}]: duplicate canonical {canonical!r}")
            by_canonical[canonical] = entry
            for alias in entry.aliases:
                if index.setdefault(alias, canonical) != canonical:
                    # The set iterates in hash order: name the sorted-first alias
                    # another skill owns, so that the error is the same every run.
                    alias = min(a for a in entry.aliases if index.get(a, canonical) != canonical)
                    raise AliasConflictError(alias, index[alias], canonical)
        self._by_canonical, self.alias_index = by_canonical, index

    def __len__(self) -> int:
        return len(self.entries)

    def canonicals(self) -> set[str]:
        return set(self._by_canonical)

    def category_of(self, canonical: str) -> str | None:
        entry = self._by_canonical.get(canonical)
        return entry.category if entry else None

    @cached_property
    def phrase_index(self) -> tuple[str, dict[tuple[str, ...], str], dict[str, int]]:
        """(keep characters, alias token tuple -> canonical, first token -> length
        of the longest phrase it starts).

        Every alias character outside ``a-z0-9`` and space stays inside tokens ("c++",
        ".net"); two skills whose aliases tokenize alike raise ``AliasConflictError``.
        A token missing from the third element starts no phrase.
        """
        extra = set("".join(self.alias_index)) - set("abcdefghijklmnopqrstuvwxyz0123456789 ")
        keep = DEFAULT_KEEP_CHARS + "".join(sorted(extra - set(DEFAULT_KEEP_CHARS)))
        findall = token_pattern(keep).findall  # ``tokenize`` without a call per alias
        phrases: dict[tuple[str, ...], str] = {}
        for entry in self.entries:
            canonical = entry.canonical
            for alias in entry.aliases:  # lower(): a direct caller may pass unfolded aliases
                phrase = tuple(filter(None, findall(alias.lower())))
                if phrase and phrases.setdefault(phrase, canonical) != canonical:
                    # Hash order, so as ``__init__`` does, name the sorted-first taken alias.
                    owned = (tuple(filter(None, findall(a.lower())))
                             for a in sorted(entry.aliases))
                    phrase = next(p for p in owned if phrases.get(p, canonical) != canonical)
                    raise AliasConflictError(" ".join(phrase), phrases[phrase], canonical)
        longest: dict[str, int] = {}
        for phrase in sorted(phrases, key=len):  # the longest phrase is written last
            longest[phrase[0]] = len(phrase)
        return keep, phrases, longest


# No gazetteer may weight these, so scoring never counts one.
STOP_WORDS = frozenset("a an and are as at by for in is of on or the to was were with".split())


class SentimentGazetteer:
    """<keyword, class, weight> entries, with ``weights`` mapping each keyword to
    its weight. The constructor rejects a weight that is not a number in [0, 1], a
    repeated keyword, a keyword that is not one folded token, and a stop word:
    ``STOP_WORDS`` is this rule's alone, and the tokenizer keeps them."""

    def __init__(self, entries: Iterable[SentimentEntry]):
        self.entries: list[SentimentEntry] = list(entries)
        self.weights: dict[str, float] = {}
        for i, entry in enumerate(self.entries):
            keyword = entry.keyword
            # type() rather than isinstance(): a bool is an int in Python but not in JSON.
            if type(entry.weight) is not float and type(entry.weight) is not int:
                raise GazetteerFormatError(f"entries[{i}]: 'weight' must be a number")
            # The number itself: float() of a huge JSON integer overflows.
            if not 0 <= entry.weight <= 1:
                raise WeightRangeError(f"entries[{i}]: weight {entry.weight} outside [0, 1]")
            if tokenize(keyword) != [keyword]:
                raise GazetteerFormatError(
                    f"entries[{i}]: keyword {keyword!r} must be a single token")
            if keyword in STOP_WORDS:
                raise GazetteerFormatError(
                    f"entries[{i}]: keyword {keyword!r} is a stop word, which scoring drops")
            if keyword in self.weights:
                raise GazetteerFormatError(f"entries[{i}]: duplicate keyword {keyword!r}")
            self.weights[keyword] = float(entry.weight)

    def __len__(self) -> int:
        return len(self.entries)


def parse_skill_records(records: Iterable[dict]) -> SkillLexicon:
    """Build a lexicon from decoded records, enforcing all invariants."""
    entries = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise LexiconFormatError(f"skills[{i}]: record must be an object")
        canonical = rec.get("canonical")
        category = rec.get("category")
        if not isinstance(canonical, str) or not canonical.strip():
            raise LexiconFormatError(f"skills[{i}]: 'canonical' must be a non-empty string")
        if not isinstance(category, str) or not category.strip():
            raise LexiconFormatError(f"skills[{i}]: 'category' must be a non-empty string")
        raw_aliases = rec.get("aliases", [])
        if not isinstance(raw_aliases, list) or not all(map(str.__instancecheck__, raw_aliases)):
            raise LexiconFormatError(f"skills[{i}]: 'aliases' must be a list of strings")
        canonical = _fold(canonical)
        # ``_fold`` written out, sparing a function call per alias.
        aliases = {" ".join(alias.lower().split()) for alias in raw_aliases}
        aliases.discard("")
        aliases.add(canonical)  # canonical is always its own alias
        entries.append(SkillEntry(canonical, _fold(category), frozenset(aliases)))
    return SkillLexicon(entries)


def load_skill_lexicon(source: str | Path) -> SkillLexicon:
    """Load the skills dictionary from a JSON document."""
    doc = read_document(source, "lexicon", LexiconFormatError)
    records = doc.get("skills")
    if not isinstance(records, list):
        raise LexiconFormatError(f"{source}: missing 'skills' array")
    return parse_skill_records(records)


def dump_skill_lexicon(lexicon: SkillLexicon) -> str:
    """Serialize a lexicon back to its document format (stable ordering)."""
    records = [
        {
            "canonical": e.canonical,
            "category": e.category,
            "aliases": sorted(e.aliases),
        }
        for e in sorted(lexicon.entries, key=lambda e: e.canonical)
    ]
    return dumps({"schema_version": SCHEMA_VERSION, "skills": records})


def normalize_skill(token_or_phrase: str, lexicon: SkillLexicon) -> str | None:
    """Resolve a token or phrase to its canonical skill, or None."""
    return lexicon.alias_index.get(_fold(token_or_phrase))


def parse_sentiment_records(records: Iterable[dict]) -> SentimentGazetteer:
    """Build a gazetteer from decoded records, enforcing all invariants."""
    entries = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise GazetteerFormatError(f"entries[{i}]: record must be an object")
        keyword = rec.get("keyword")
        kw_class = rec.get("class")
        weight = rec.get("weight")
        if not isinstance(keyword, str) or not keyword.strip():
            raise GazetteerFormatError(f"entries[{i}]: 'keyword' must be a non-empty string")
        if not isinstance(kw_class, str) or not kw_class.strip():
            raise GazetteerFormatError(f"entries[{i}]: 'class' must be a non-empty string")
        # As the constructor does, but here so that faults keep this order.
        if type(weight) is not float and type(weight) is not int:
            raise GazetteerFormatError(f"entries[{i}]: 'weight' must be a number")
        if "skill" in rec:
            raise GazetteerFormatError(
                f"entries[{i}]: 'skill' is not supported: a keyword weighs the same for any skill")
        # The constructor checks the weight's range.
        entries.append(SentimentEntry(_fold(keyword), _fold(kw_class), weight))
    return SentimentGazetteer(entries)


def load_sentiment_gazetteer(source: str | Path) -> SentimentGazetteer:
    """Load the skill-sentiment gazetteer from a JSON document."""
    doc = read_document(source, "gazetteer", GazetteerFormatError)
    records = doc.get("entries")
    if not isinstance(records, list):
        raise GazetteerFormatError(f"{source}: missing 'entries' array")
    return parse_sentiment_records(records)


def dump_sentiment_gazetteer(gazetteer: SentimentGazetteer) -> str:
    records = [
        {"keyword": e.keyword, "class": e.keyword_class, "weight": float(e.weight)}
        for e in sorted(gazetteer.entries, key=lambda e: e.keyword)
    ]
    return dumps({"schema_version": SCHEMA_VERSION, "entries": records})
