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
fold the same way, so matching is case-insensitive throughout. A key the
loaders do not read, such as a misspelled "aliases" or a skill-scoped
gazetteer entry's "skill", is rejected, never dropped.

A loaded lexicon is two dicts, alias -> canonical and canonical -> category,
and a gazetteer two more, keyword -> weight and keyword -> class; the
loaders fill them in one pass, raising the first fault in record order.
A lexicon's phrase index, the form free-text skill matching uses, is derived
from its aliases on first use and cached. This relies on the lexicon being
immutable; a concurrent first use builds equal values.

This module also states what a skill key is, for every document and type
that holds one: ``skill_key_fault`` is the one rule, and the query DSL's word
lists and patterns it reads are defined here, beside it, for ``query`` to
parse with. Each canonical must be a skill key; an alias need not be one.
"""
from __future__ import annotations

import re
from functools import cached_property
from pathlib import Path
from typing import Iterable

from ._io import SCHEMA_VERSION, check_document, check_keys, dumps, read_document
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


# The query DSL's words and patterns (README, Query DSL), which ``query`` parses with.
_FILLER_WORDS = frozenset("candidate candidates resume resumes jobseeker jobseekers".split())
_TOP_RE = re.compile(r"^\s*top\b(?:\s+([0-9]+)\b)?\s*", re.IGNORECASE)
_NUM = r"-?[0-9]+(?:\.[0-9]+)?"
_BOUNDS_RE = re.compile(rf"^(?P<phrase>.*?)\s+(?P<lo>{_NUM})\s*(?:[-–]\s*(?P<hi>{_NUM})|\+)$")


def skill_key_fault(key: object) -> str | None:
    """Why ``key`` is no skill key, or None when it is one. A skill key is a
    non-empty folded string that ``query.parse_query`` reads, alone, as the one
    bare term that names it: no comma, no leading ``top`` word, no trailing
    filler word or years range. The cheap tests run first; a regex only when
    the key could match it."""
    if not isinstance(key, str) or not key or key != _fold(key):
        return f"skill {key!r} is not a lowercase, single-spaced, non-empty string"
    if ("," in key or (key.startswith("top") and _TOP_RE.match(key))
            or key.rpartition(" ")[2] in _FILLER_WORDS
            or (key[-1] in "0123456789+" and _BOUNDS_RE.match(key))):
        return f"skill {key!r} does not read as one bare query term"
    return None


class SkillLexicon:
    """Canonical skills: ``alias_index`` maps each alias to its canonical, and
    ``categories`` each canonical to its category.

    The constructor takes both dicts as they are; ``parse_skill_records`` is the
    one that folds them and rejects a repeated canonical and an alias claimed by
    two skills, so that the alias index is injective into canonicals.
    """

    def __init__(self, alias_index: dict[str, str], categories: dict[str, str]):
        self.alias_index, self.categories = alias_index, categories

    def __len__(self) -> int:
        return len(self.categories)

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
        pattern = token_pattern(keep)
        findall, grouped = pattern.findall, pattern.groups  # ``tokenize`` without its call
        phrases: dict[tuple[str, ...], str] = {}
        longest: dict[str, int] = {}
        for alias, canonical in self.alias_index.items():
            phrase = findall(alias.lower())  # lower(): a direct caller may pass unfolded aliases
            phrase = tuple(filter(None, phrase) if grouped else phrase)
            if not phrase:
                continue
            if phrases.setdefault(phrase, canonical) != canonical:
                # Name the sorted-first alias of this skill whose phrase another owns,
                # so that the error does not depend on the dict's order.
                owned = (tuple(tokenize(a, keep)) for a in sorted(
                    a for a, c in self.alias_index.items() if c == canonical))
                phrase = next(p for p in owned if phrases.get(p, canonical) != canonical)
                raise AliasConflictError(" ".join(phrase), phrases[phrase], canonical)
            if longest.get(phrase[0], 0) < len(phrase):
                longest[phrase[0]] = len(phrase)
        return keep, phrases, longest


# No gazetteer may weight these, so scoring never counts one.
STOP_WORDS = frozenset("a an and are as at by for in is of on or the to was were with".split())


class SentimentGazetteer:
    """``weights`` maps each keyword to its weight, ``classes`` to its class.

    The constructor takes both dicts as they are; ``parse_sentiment_records``
    rejects a weight that is not a number in [0, 1], a repeated keyword, a keyword
    that is not one folded token, and a stop word: ``STOP_WORDS`` is this rule's
    alone, and the tokenizer keeps them."""

    def __init__(self, weights: dict[str, float], classes: dict[str, str]):
        self.weights, self.classes = weights, classes

    def __len__(self) -> int:
        return len(self.weights)


_SKILL_FIELDS = frozenset({"canonical", "category", "aliases"})
_ENTRY_FIELDS = frozenset({"keyword", "class", "weight"})


def parse_skill_records(records: Iterable[dict]) -> SkillLexicon:
    """Build a lexicon from decoded records, raising the first fault in record
    order: a record's unknown field, then its shape, then a canonical that is no
    skill key (``skill_key_fault``), then a repeated canonical or an alias another
    skill owns."""
    index: dict[str, str] = {}
    categories: dict[str, str] = {}
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise LexiconFormatError(f"skills[{i}]: record must be an object")
        if not rec.keys() <= _SKILL_FIELDS:  # the test alone, sparing a valid record its locator
            check_keys(rec, _SKILL_FIELDS, LexiconFormatError, f"skills[{i}]: ")
        canonical = rec.get("canonical")
        category = rec.get("category")
        if not isinstance(canonical, str) or not canonical.strip():
            raise LexiconFormatError(f"skills[{i}]: 'canonical' must be a non-empty string")
        if not isinstance(category, str) or not category.strip():
            raise LexiconFormatError(f"skills[{i}]: 'category' must be a non-empty string")
        raw_aliases = rec.get("aliases", [])
        if not isinstance(raw_aliases, list) or not all(map(str.__instancecheck__, raw_aliases)):
            raise LexiconFormatError(f"skills[{i}]: 'aliases' must be a list of strings")
        # ``_fold`` written out, here and below, sparing a function call per string.
        canonical = " ".join(canonical.lower().split())
        if (fault := skill_key_fault(canonical)) is not None:
            raise LexiconFormatError(f"skills[{i}]: {fault}")
        if canonical in categories:
            raise LexiconFormatError(f"skills[{i}]: duplicate canonical {canonical!r}")
        categories[canonical] = " ".join(category.lower().split())
        taken = index.setdefault(canonical, canonical) != canonical  # its own alias
        for alias in raw_aliases:
            alias = " ".join(alias.lower().split())
            if alias and index.setdefault(alias, canonical) != canonical:
                taken = True
        if taken:  # name the sorted-first alias another skill owns, whatever the order
            aliases = {canonical, *(" ".join(a.lower().split()) for a in raw_aliases)}
            alias = min(a for a in aliases if index.get(a, canonical) != canonical)
            raise AliasConflictError(alias, index[alias], canonical)
    return SkillLexicon(index, categories)


def load_skill_lexicon(source: str | Path) -> SkillLexicon:
    """Load the skills dictionary from a JSON document."""
    return read_document(source, "lexicon", LexiconFormatError, lambda doc: (
        parse_skill_records(check_document(doc, LexiconFormatError, {"skills": list})["skills"])))


def dump_skill_lexicon(lexicon: SkillLexicon) -> str:
    """Serialize a lexicon back to its document format (stable ordering)."""
    aliases: dict[str, list[str]] = {canonical: [] for canonical in lexicon.categories}
    for alias, canonical in lexicon.alias_index.items():
        aliases[canonical].append(alias)
    records = [
        {"canonical": canonical, "category": lexicon.categories[canonical],
         "aliases": sorted(aliases[canonical])}
        for canonical in sorted(aliases)
    ]
    return dumps({"schema_version": SCHEMA_VERSION, "skills": records})


def normalize_skill(token_or_phrase: str, lexicon: SkillLexicon) -> str | None:
    """Resolve a token or phrase to its canonical skill, or None."""
    return lexicon.alias_index.get(_fold(token_or_phrase))


def parse_sentiment_records(records: Iterable[dict]) -> SentimentGazetteer:
    """Build a gazetteer from decoded records, raising the first fault in record
    order: a record's unknown field, then its shape, then its weight's range,
    then its keyword (not one token, a stop word, a repeat)."""
    weights: dict[str, float] = {}
    classes: dict[str, str] = {}
    # A folded keyword is one token when the tokenizer's pattern matches all of it.
    single_token = token_pattern(DEFAULT_KEEP_CHARS).fullmatch
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise GazetteerFormatError(f"entries[{i}]: record must be an object")
        if not rec.keys() <= _ENTRY_FIELDS:
            check_keys(rec, _ENTRY_FIELDS, GazetteerFormatError, f"entries[{i}]: ")
        keyword = rec.get("keyword")
        kw_class = rec.get("class")
        weight = rec.get("weight")
        if not isinstance(keyword, str) or not keyword.strip():
            raise GazetteerFormatError(f"entries[{i}]: 'keyword' must be a non-empty string")
        if not isinstance(kw_class, str) or not kw_class.strip():
            raise GazetteerFormatError(f"entries[{i}]: 'class' must be a non-empty string")
        # type() rather than isinstance(): a bool is an int in Python but not in JSON.
        if type(weight) is not float and type(weight) is not int:
            raise GazetteerFormatError(f"entries[{i}]: 'weight' must be a number")
        keyword = _fold(keyword)
        # The number itself: float() of a huge JSON integer overflows.
        if not 0 <= weight <= 1:
            raise WeightRangeError(f"entries[{i}]: weight {weight} outside [0, 1]")
        if not single_token(keyword):
            raise GazetteerFormatError(f"entries[{i}]: keyword {keyword!r} must be a single token")
        if keyword in STOP_WORDS:
            raise GazetteerFormatError(
                f"entries[{i}]: keyword {keyword!r} is a stop word, which scoring drops")
        if keyword in weights:
            raise GazetteerFormatError(f"entries[{i}]: duplicate keyword {keyword!r}")
        weights[keyword] = float(weight)
        classes[keyword] = _fold(kw_class)
    return SentimentGazetteer(weights, classes)


def load_sentiment_gazetteer(source: str | Path) -> SentimentGazetteer:
    """Load the skill-sentiment gazetteer from a JSON document."""
    return read_document(source, "gazetteer", GazetteerFormatError, lambda doc: (
        parse_sentiment_records(
            check_document(doc, GazetteerFormatError, {"entries": list})["entries"])))


def dump_sentiment_gazetteer(gazetteer: SentimentGazetteer) -> str:
    classes, weights = gazetteer.classes, gazetteer.weights
    records = [{"keyword": k, "class": classes[k], "weight": weights[k]} for k in sorted(weights)]
    return dumps({"schema_version": SCHEMA_VERSION, "entries": records})
