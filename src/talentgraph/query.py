"""Query DSL parsing, filtering and deterministic top-k ranking.

Grammar (case-insensitive; N, A and B are written in ASCII digits)::

    query  := ["top" [N]] term ("," term)*
    term   := skill-phrase [range]
    range  := A "-" B   inclusive years, A <= B
            | A "+"     at least A years

Skill phrases are resolved through the lexicon's alias index, so
"CPP 8-10" and "c++ 8-10" are the same term. Trailing filler words
(candidate(s), resume(s), jobseeker(s)) are ignored, which keeps prose
queries like "top C++ candidates" valid. ``parse_query`` only reads the text;
the types hold every limit, for the DSL and a direct caller alike. ``QueryTerm``
refuses a skill that is no skill key (``lexicon.skill_key_fault``, which reads
the DSL's word lists and patterns that this module parses with), a bound that
is not a finite non-negative number, or min > max; ``Query`` keeps its terms
as a tuple and refuses top_k < 1, no terms, a repeated skill.

A jobseeker matches a term when the jobseeker-skill edge exists and, for
bounded terms, the accumulated years fall inside the inclusive range.
Matches are ranked by the sum of per-skill strengths over the query terms,
ties broken lexicographically by jobseeker id, then truncated to top k.
``execute`` and ``explain`` read each term through one evaluator, so explain's
per-term (skill, strength, years) are execute's ``per_skill``.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .errors import (EmptyQueryError, NodeNotFoundError, QueryError, QueryRangeError,
                     UnknownSkillError)
from .graph import EdgeKind, KnowledgeGraph, NodeKind
from .lexicon import (_BOUNDS_RE, _FILLER_WORDS, _TOP_RE, SkillLexicon, normalize_skill,
                      skill_key_fault)

DEFAULT_TOP_K = 10

_JOBSEEKER_SKILL = EdgeKind.JOBSEEKER_SKILL  # a global reads faster than the enum attribute
_NO_EDGE = (False, 0.0, 0.0, 0.0, 0.0, 0)  # a term without its edge fails and reads all zero


@dataclass(frozen=True)
class QueryTerm:
    skill: str
    min_years: float | None = None
    max_years: float | None = None

    def __post_init__(self) -> None:
        if (fault := skill_key_fault(self.skill)) is not None:
            raise QueryError(fault)
        lo, hi = self.min_years, self.max_years
        bounds = [b for b in (lo, hi) if b is not None]
        for b in bounds:  # type(), not isinstance(): a bool is no number of years
            if type(b) is not float and type(b) is not int:
                raise QueryRangeError(f"bound {b!r} in {self.skill!r} is not a number")
        # The term as DSL text, an absent minimum as 0 (no years are below it); :g fits floats only.
        low, high = (f"{b:g}" if type(b) is float else str(b) for b in (lo or 0, hi))
        text = f"{self.skill} {low}" + ("+" if hi is None else f"-{high}")
        if not all(math.isfinite(b) for b in bounds if type(b) is float):
            raise QueryRangeError(f"bound in {text!r} is not finite")
        if any(b < 0 for b in bounds):
            raise QueryRangeError(f"negative bound in {text!r}")
        if len(bounds) == 2 and hi < lo:
            raise QueryRangeError(f"range {low}-{high} has min > max")


@dataclass(frozen=True)
class Query:
    terms: tuple[QueryTerm, ...]
    top_k: int = DEFAULT_TOP_K

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))  # any iterable, read once
        if type(self.top_k) is not int or self.top_k < 1:  # a bool is no count
            raise QueryError("top N must be positive")
        if not self.terms:
            raise EmptyQueryError("query contains no terms")
        seen: set[str] = set()
        for term in self.terms:
            if term.skill in seen:
                raise QueryError(f"duplicate skill {term.skill!r} in query")
            seen.add(term.skill)


@dataclass
class RankedResult:
    jobseeker_id: str
    total_score: float
    per_skill: list[tuple[str, float, float]]  # (skill, strength, years)

    def to_dict(self) -> dict:
        return {
            "jobseeker_id": self.jobseeker_id,
            "total_score": self.total_score,
            "per_skill": [
                {"skill": s, "strength": strength, "years": years}
                for s, strength, years in self.per_skill
            ],
        }


def _parse_term(raw: str, lexicon: SkillLexicon) -> QueryTerm:
    words = raw.split()
    while words and words[-1].lower() in _FILLER_WORDS:
        words.pop()
    text = " ".join(words)
    if not text:
        raise EmptyQueryError("empty query term")
    phrase, lo, hi = text, None, None
    if m := _BOUNDS_RE.match(text):  # one match: a range ends in a digit, a minimum in "+"
        phrase, lo = m["phrase"], float(m["lo"])
        hi = None if m["hi"] is None else float(m["hi"])

    skill = normalize_skill(phrase, lexicon)
    if skill is None:
        raise UnknownSkillError(phrase.strip())
    return QueryTerm(skill=skill, min_years=lo, max_years=hi)


def parse_query(text: str, lexicon: SkillLexicon) -> Query:
    """Read the query DSL, which ``Query`` checks; unknown skills are an error, never dropped."""
    remainder = text
    top_k = DEFAULT_TOP_K
    m = _TOP_RE.match(text)
    if m:
        if m.group(1) is not None:
            try:
                top_k = int(m.group(1))
            except ValueError as exc:  # more digits than int() reads
                raise QueryError(f"top N has too many digits ({len(m.group(1))})") from exc
        remainder = text[m.end():]
    terms = [_parse_term(raw, lexicon) for raw in filter(str.strip, remainder.split(","))]
    return Query(terms, top_k)


def _term(graph: KnowledgeGraph, jobseeker_id: str,
          term: QueryTerm) -> tuple[bool, float, float, float, float, int]:
    """(satisfied, strength, sentiment, bonus, years, support) of a jobseeker's term."""
    edge = graph.get_edge(_JOBSEEKER_SKILL, jobseeker_id, term.skill)
    if edge is None:
        return _NO_EDGE
    sentiment, bonus, years, support = graph.edge_parts(edge)
    lo, hi = term.min_years, term.max_years
    satisfied = (lo is None or years >= lo) and (hi is None or years <= hi)
    return satisfied, sentiment + bonus, sentiment, bonus, years, support


def execute(query: Query, graph: KnowledgeGraph) -> list[RankedResult]:
    """Filter jobseekers satisfying every term, rank by total strength."""
    return _rank(query, graph, graph.jobseeker_ids())


def _rank(query: Query, graph: KnowledgeGraph, jobseeker_ids: list[str]) -> list[RankedResult]:
    """``execute`` over ``jobseeker_ids``, the graph's sorted ids read once by the caller."""
    results = []
    for jobseeker_id in jobseeker_ids:
        per_skill = []
        total = 0  # added left to right: sum() of floats is compensated from Python 3.12
        for term in query.terms:
            satisfied, strength, _, _, years, _ = _term(graph, jobseeker_id, term)
            if not satisfied:
                break
            per_skill.append((term.skill, strength, years))
            total += strength
        else:
            results.append(RankedResult(jobseeker_id, total, per_skill))
    results.sort(key=lambda r: (-r.total_score, r.jobseeker_id))
    return results[: query.top_k]


@dataclass
class Explanation:
    jobseeker_id: str
    total_score: float
    qualifies: bool
    terms: list[dict] = field(default_factory=list)  # per query term, keys as in explain --json

    def to_dict(self) -> dict:
        return asdict(self)


def explain(jobseeker_id: str, query: Query, graph: KnowledgeGraph) -> Explanation:
    """Per-term decomposition, each term read as ``execute`` reads it, that recomputes the score."""
    if not graph.has_node(NodeKind.JOBSEEKER, jobseeker_id):
        raise NodeNotFoundError(f"no jobseeker node {jobseeker_id!r}")
    terms = []
    total = 0  # added left to right, as ``execute`` adds
    for term in query.terms:
        satisfied, strength, sentiment, bonus, years, support = _term(graph, jobseeker_id, term)
        total += strength
        terms.append({
            "skill": term.skill,
            "strength": strength,
            "sentiment_mean": sentiment,
            "duration_bonus": bonus,
            "years": years,
            "support_count": support,
            "projects": graph.supporting_projects(jobseeker_id, term.skill),
            "min_years": term.min_years,
            "max_years": term.max_years,
            "satisfied": satisfied,
        })
    return Explanation(
        jobseeker_id=jobseeker_id,
        total_score=total,
        qualifies=all(t["satisfied"] for t in terms),
        terms=terms,
    )
