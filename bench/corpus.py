"""Seeded generator of resume text, lexicon, gazetteer and gold labels.

Every word is built from consonant-vowel syllables, and each role (skill
alias, gazetteer keyword, filler, name, organization, title) draws from its
own disjoint pool. The generator therefore knows, for every resume, the
declared skills, the skills each experience mentions, the months of each
experience and the gazetteer weights inserted into its description; this
ground truth is what the benchmark checks the program against.

Recipe: a 500-skill lexicon with 3 aliases per skill (one multi-word, one
with a symbol), a 300-keyword gazetteer, and resumes with 8 declared skills
and 3 dated experiences of 60 words each. Skill popularity follows a Zipf
law, so posting lists run from head skills to tail skills.
"""
from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

LEXICON_SKILLS = 500
GAZETTEER_KEYWORDS = 300
DECLARED_PER_RESUME = 8
EXPERIENCES_PER_RESUME = 3
WORDS_PER_EXPERIENCE = 60
ZIPF_EXPONENT = 1.0

# Words the parser or the query DSL treat specially; no generated word may
# equal one of them.
RESERVED = frozenset(
    "a an and are as at by for in is of on or the to was were with top "
    "candidate candidates resume resumes jobseeker jobseekers skills skill set "
    "technical experience work professional projects project employment history "
    "education summary objective inc incorporated ltd limited llc llp pvt plc "
    "corp corporation co gmbh year years yr yrs month months mo mos untitled "
    "unknown".split()
)
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_MONTHS = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()
_ORG_SUFFIXES = ["Inc.", "Ltd.", "LLC", "Corp.", "GmbH", ""]
_SYMBOL_SUFFIXES = ["++", "#", "-net"]


@dataclass
class Skill:
    canonical: str
    category: str
    aliases: tuple[str, ...]  # canonical first, then single, symbol, multi-word


@dataclass
class Experience:
    org: str  # normalized organization key
    title: str
    months: int
    mentioned: frozenset[str]
    keyword_weights: tuple[float, ...]  # one per inserted keyword occurrence

    @property
    def score(self) -> float:
        """Scope-free description score: mean weight of matched keywords."""
        weights = self.keyword_weights
        return sum(weights) / len(weights) if weights else 0.0


@dataclass
class Resume:
    jobseeker_id: str
    name: str
    declared: frozenset[str]
    experiences: list[Experience]
    text: str


class Corpus:
    """Generated inputs plus their ground truth."""

    def __init__(self, seed: int, resumes: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self._used = set(RESERVED)
        self.skills = self._make_skills()
        self.keywords = self._make_keywords()
        self.filler = self._words(400, 2, 3)
        self._first_names = [w.capitalize() for w in self._words(120, 2, 3)]
        self._last_names = [w.capitalize() for w in self._words(120, 2, 3)]
        self._cities = [w.capitalize() for w in self._words(40, 2, 3)]
        self._title_words = [w.capitalize() for w in self._words(80, 2, 3)]
        self._orgs = [
            (" ".join(w.capitalize() for w in self._words(2, 2, 3)), self.rng.choice(_ORG_SUFFIXES))
            for _ in range(60)
        ]
        order = [s.canonical for s in self.skills]
        self.rng.shuffle(order)
        self.popularity = order  # most popular first
        self._cum = list(accumulate(1.0 / (i + 1) ** ZIPF_EXPONENT for i in range(len(order))))
        self.by_canonical = {s.canonical: s for s in self.skills}
        self.resumes = [self._make_resume(i) for i in range(resumes)]

    # -- vocabulary ---------------------------------------------------------

    def _words(self, count: int, lo: int, hi: int) -> list[str]:
        out = []
        while len(out) < count:
            word = "".join(
                self.rng.choice(_CONSONANTS) + self.rng.choice(_VOWELS)
                for _ in range(self.rng.randint(lo, hi))
            )
            if word not in self._used:
                self._used.add(word)
                out.append(word)
        return out

    def _make_skills(self) -> list[Skill]:
        categories = [f"{w} tools" for w in self._words(12, 2, 3)]
        canon = self._words(LEXICON_SKILLS, 2, 3)
        single = self._words(LEXICON_SKILLS, 3, 3)
        multi = self._words(2 * LEXICON_SKILLS, 3, 4)
        skills = []
        for i, name in enumerate(canon):
            symbol = single[i] + self.rng.choice(_SYMBOL_SUFFIXES)
            aliases = (name, single[i], symbol, f"{multi[2 * i]} {multi[2 * i + 1]}")
            skills.append(Skill(name, self.rng.choice(categories), aliases))
        return skills

    def _make_keywords(self) -> list[tuple[str, float]]:
        return [
            (word, self.rng.randint(5, 100) / 100)
            for word in self._words(GAZETTEER_KEYWORDS, 3, 3)
        ]

    def popular_skill(self, rng: random.Random) -> str:
        """A skill drawn with the corpus popularity skew."""
        index = bisect.bisect_left(self._cum, rng.random() * self._cum[-1])
        return self.popularity[min(index, len(self.popularity) - 1)]

    def distinct_popular(self, rng: random.Random, count: int, among=None) -> list[str]:
        """Distinct skills drawn with the skew, optionally only from ``among``."""
        chosen: list[str] = []
        while len(chosen) < count:
            skill = self.popular_skill(rng)
            if skill not in chosen and (among is None or skill in among):
                chosen.append(skill)
        return chosen

    def alias(self, rng: random.Random, skill: str) -> str:
        return rng.choice(self.by_canonical[skill].aliases)

    # -- resumes ------------------------------------------------------------

    def _duration(self) -> tuple[str, int]:
        rng = self.rng
        form = rng.random()
        if form < 0.5:
            months = rng.randint(3, 72)
            start = rng.randint(2005 * 12, 2020 * 12 + 11)
            end = start + months - 1
            text = (
                f"{_MONTHS[start % 12]} {start // 12} - {_MONTHS[end % 12]} {end // 12}"
            )
            return text, months
        if form < 0.7:
            start, years = rng.randint(2003, 2018), rng.randint(1, 6)
            return f"{start} - {start + years}", 12 * years
        if form < 0.85:
            years = rng.randint(1, 6)
            return f"{years} {'year' if years == 1 else 'years'}", 12 * years
        months = rng.randint(3, 36)
        return f"{months} months", months

    def _experience(self, declared: list[str]) -> tuple[str, Experience]:
        rng = self.rng
        org_name, suffix = rng.choice(self._orgs)
        title = " ".join(rng.sample(self._title_words, 2))
        duration, months = self._duration()

        mentioned: list[str] = []
        if rng.random() >= 0.1:
            for _ in range(rng.randint(1, 3)):
                skill = rng.choice(declared) if rng.random() < 0.75 else self.popular_skill(rng)
                if skill not in mentioned:
                    mentioned.append(skill)
        items = [self.alias(rng, s) for s in mentioned for _ in range(rng.randint(1, 2))]
        keywords = (
            [] if rng.random() < 0.15 else [rng.choice(self.keywords) for _ in range(rng.randint(1, 6))]
        )
        items += [word for word, _ in keywords]
        items += rng.choices(self.filler, k=WORDS_PER_EXPERIENCE - len(items))
        rng.shuffle(items)
        lines = [" ".join(items[i : i + 20]) for i in range(0, len(items), 20)]
        lines[-1] += "."
        # Keyword weights in text order, so the reference mean adds in the
        # same order as a left-to-right scan.
        weight_of = dict(self.keywords)
        weights = tuple(weight_of[w] for w in items if w in weight_of)

        block = "\n".join([f"{org_name} {suffix}".strip(), title, duration, *lines])
        return block, Experience(
            org=org_name.lower(),
            title=title,
            months=months,
            mentioned=frozenset(mentioned),
            keyword_weights=weights,
        )

    def _make_resume(self, index: int) -> Resume:
        rng = self.rng
        first, last = rng.choice(self._first_names), rng.choice(self._last_names)
        name = f"{first} {last}"
        declared = self.distinct_popular(rng, DECLARED_PER_RESUME)
        blocks, experiences = [], []
        for _ in range(EXPERIENCES_PER_RESUME):
            block, exp = self._experience(declared)
            blocks.append(block)
            experiences.append(exp)
        skills_line = ", ".join(self.alias(rng, s) for s in declared)
        text = "\n".join(
            [name, rng.choice(self._cities), "", "SKILLS", skills_line, "", "EXPERIENCE", ""]
        ) + "\n" + "\n\n".join(blocks) + "\n"
        return Resume(
            jobseeker_id=f"js{index:04d}-{first.lower()}-{last.lower()}",
            name=name,
            declared=frozenset(declared),
            experiences=experiences,
            text=text,
        )

    # -- files --------------------------------------------------------------

    def lexicon_doc(self) -> dict:
        return {
            "schema_version": 1,
            "skills": [
                {"canonical": s.canonical, "category": s.category, "aliases": list(s.aliases)}
                for s in self.skills
            ],
        }

    def gazetteer_doc(self) -> dict:
        return {
            "schema_version": 1,
            "entries": [
                {"keyword": word, "class": "strong-technical", "weight": weight}
                for word, weight in self.keywords
            ],
        }

    def write(self, directory: Path) -> dict[str, Path]:
        """Write resumes, lexicon and gazetteer; return their paths."""
        resumes = directory / "resumes"
        resumes.mkdir(parents=True)
        for i, resume in enumerate(self.resumes):
            (resumes / f"r{i:05d}.txt").write_text(resume.text, encoding="utf-8")
        paths = {
            "resumes": resumes,
            "lexicon": directory / "lexicon.json",
            "gazetteer": directory / "gazetteer.json",
        }
        paths["lexicon"].write_text(json.dumps(self.lexicon_doc()), encoding="utf-8")
        paths["gazetteer"].write_text(json.dumps(self.gazetteer_doc()), encoding="utf-8")
        return paths


def make_query(corpus: Corpus, rng: random.Random, canonical_among=None):
    """A seeded query: DSL text plus its terms as (skill, lo, hi) and top k.

    1-3 terms, each a range, a minimum only, or bare; ``top`` absent, bare,
    5 or 50. With ``canonical_among`` (the skills of a graph) the phrases
    are canonical names of those skills, which the graph can resolve
    without its lexicon.
    """
    prefix, top_k = rng.choice([("", 10), ("top ", 10), ("top 5 ", 5), ("top 50 ", 50)])
    terms, parts = [], []
    for skill in corpus.distinct_popular(rng, rng.randint(1, 3), canonical_among):
        phrase = skill if canonical_among else corpus.alias(rng, skill)
        form = rng.random()
        if form < 0.4:
            lo = rng.randint(0, 3)
            hi = lo + rng.randint(1, 6)
            parts.append(f"{phrase} {lo}-{hi}")
            terms.append((skill, float(lo), float(hi)))
        elif form < 0.7:
            lo = rng.randint(1, 4)
            parts.append(f"{phrase} {lo}+")
            terms.append((skill, float(lo), None))
        else:
            parts.append(phrase)
            terms.append((skill, None, None))
    if terms[-1][1] is None and rng.random() < 0.2:
        parts[-1] += " candidates"
    return prefix + ", ".join(parts), tuple(terms), top_k
