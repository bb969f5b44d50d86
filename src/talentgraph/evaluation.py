"""Evaluation metrics against labeled gold fixtures.

Extraction metrics are micro-averaged over (resume, skill) pairs. Sentiment
is binary: a description is predicted positive when its score exceeds
``DEFAULT_SENTIMENT_THRESHOLD``, a fixed 0. Ranking quality is hit-rate@k by
default: a query counts as a hit when at least one gold-relevant jobseeker
appears in the top k; precision@k is available via ``mode="precision"``.
``evaluate_graph`` ranks each gold query over the jobseekers that hold its
rarest term's skill, read from one walk of the sorted jobseekers, with the
results ``execute`` gives.

Conventions for empty denominators are fixed so degenerate fixtures stay
well-defined: precision of an empty prediction set is 1.0, recall against
an empty gold set is 1.0, and F1 of (0, 0) is 0.

Gold fixture document::

    {
      "schema_version": 1,
      "skills": {"<jobseeker_id>": ["c++", ...]},
      "sentiment": {"<jobseeker_id>:p<n>": "positive" | "neutral"},
      "queries": [{"query": "top c++ candidates", "relevant": ["<id>", ...]}]
    }

``load_gold`` rejects any other top-level key or query key, and a skill that
is no skill key (``lexicon.skill_key_fault``) at ``skills.<id>``, and returns a
dict of the same three keys, each always present: ``skills`` maps a jobseeker
id to a set, ``sentiment`` a project key to its label, and ``queries`` is a
list of (query text, set of relevant ids) pairs.
``evaluate_graph`` rejects ids the graph lacks and locates every fault, at
``skills``, at ``sentiment.<key>`` or, for the i-th query, at ``queries[i]``.

Results are plain values: ``extraction_metrics`` returns ``{"precision",
"recall", "f1"}`` and ``sentiment_metrics`` ``{"accuracy", "precision",
"recall"}``, the dicts ``eval --json`` prints. ``evaluate_graph`` gathers them
and the top-k figures in an ``EvalReport``; the CLI lays out its table.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from ._io import check_document, check_keys, read_document
from .errors import FixtureError, NodeNotFoundError, QueryError
from .graph import KnowledgeGraph
from .lexicon import SkillLexicon, skill_key_fault
from .query import Query, _postings, _rank, parse_query

POSITIVE = "positive"
NEUTRAL = "neutral"
SENTIMENT_CLASSES = (POSITIVE, NEUTRAL)
DEFAULT_SENTIMENT_THRESHOLD = 0.0


def _check_keys(predicted: Mapping, gold: Mapping, what: str) -> None:
    if set(predicted) != set(gold):
        missing = sorted(set(gold) - set(predicted))
        extra = sorted(set(predicted) - set(gold))
        raise FixtureError(
            f"{what}: key mismatch (missing {missing[:5]}, extra {extra[:5]})"
        )


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 1.0


def extraction_metrics(
    predicted: Mapping[str, set[str]], gold: Mapping[str, set[str]]
) -> dict[str, float]:
    """Micro-averaged ``{"precision", "recall", "f1"}`` over per-resume skill sets."""
    _check_keys(predicted, gold, "extraction fixture")
    tp = fp = fn = 0
    for key in gold:
        pred, truth = set(predicted[key]), set(gold[key])
        tp += len(pred & truth)
        fp += len(pred - truth)
        fn += len(truth - pred)
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def classify_score(score: float) -> str:
    return POSITIVE if score > DEFAULT_SENTIMENT_THRESHOLD else NEUTRAL


def sentiment_metrics(
    predicted: Mapping[str, str], gold: Mapping[str, str]
) -> dict[str, float]:
    """Binary ``{"accuracy", "precision", "recall"}`` for the positive class."""
    _check_keys(predicted, gold, "sentiment fixture")
    if not gold:
        raise FixtureError("sentiment fixture is empty")
    for mapping, side in ((predicted, "predicted"), (gold, "gold")):
        for key, label in mapping.items():
            if label not in SENTIMENT_CLASSES:
                raise FixtureError(f"sentiment fixture: bad {side} class {label!r} for {key!r}")
    tp = fp = fn = correct = 0
    for key in gold:
        pred_pos = predicted[key] == POSITIVE
        gold_pos = gold[key] == POSITIVE
        correct += pred_pos == gold_pos
        tp += pred_pos and gold_pos
        fp += pred_pos and not gold_pos
        fn += gold_pos and not pred_pos
    return {
        "accuracy": correct / len(gold),
        "precision": _ratio(tp, tp + fp),
        "recall": _ratio(tp, tp + fn),
    }


def _check_topk_mode(mode: str) -> None:
    if mode not in ("hit", "precision"):
        raise FixtureError(f"unknown top-k mode {mode!r}")


def topk_accuracy(
    rankings: Mapping[str, Sequence[str]],
    gold: Mapping[str, set[str]],
    k: int,
    mode: str = "hit",
) -> float:
    """Fraction of queries hit within the top k (or mean precision@k)."""
    if k < 1:
        raise FixtureError(f"k must be >= 1, got {k}")
    _check_topk_mode(mode)
    _check_keys(rankings, gold, "ranking fixture")
    if not gold:
        raise FixtureError("ranking fixture has no queries")
    total = 0.0
    for key in gold:
        top = list(rankings[key])[:k]
        relevant = set(gold[key])
        if mode == "hit":
            total += bool(relevant & set(top))
        else:
            total += len(relevant & set(top)) / k
    return total / len(gold)


def load_gold(path: str | Path) -> dict:
    """Load and validate a gold fixture document (see the module docstring)."""
    return read_document(path, "gold", FixtureError, _read_gold)


def _read_gold(doc: object) -> dict:
    doc = check_document(doc, FixtureError, {"skills": dict, "sentiment": dict, "queries": list})
    gold: dict = {"skills": {}, "sentiment": {}, "queries": []}
    for key, value in doc["skills"].items():
        if not isinstance(value, list) or any(not isinstance(s, str) for s in value):
            raise FixtureError(f"skills.{key}: expected a list of strings")
        gold["skills"][key] = set(value)
    # Each distinct skill once, its fault located at the first jobseeker that holds it.
    for skill in sorted(set().union(*gold["skills"].values())):
        if (fault := skill_key_fault(skill)) is not None:
            key = next(key for key, skills in gold["skills"].items() if skill in skills)
            raise FixtureError(f"skills.{key}: {fault}")

    for key, value in doc["sentiment"].items():
        if value not in SENTIMENT_CLASSES:
            raise FixtureError(f"sentiment.{key}: expected one of {SENTIMENT_CLASSES}")
        gold["sentiment"][key] = value

    for i, item in enumerate(doc["queries"]):
        if isinstance(item, dict):
            check_keys(item, {"query", "relevant"}, FixtureError, f"queries[{i}]: ")
        if not (isinstance(item, dict) and isinstance(item.get("query"), str)
                and isinstance(item.get("relevant"), list)):
            raise FixtureError(f"queries[{i}]: expected {{query, relevant}}")
        if any(not isinstance(r, str) for r in item["relevant"]):
            raise FixtureError(f"queries[{i}].relevant: expected a list of strings")
        gold["queries"].append((item["query"], set(item["relevant"])))
    return gold


@dataclass
class EvalReport:
    extraction: dict[str, float] | None = None
    sentiment: dict[str, float] | None = None
    topk: dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        # String keys: the writer sorts them, so int keys would reorder the bytes.
        return {
            "extraction": self.extraction,
            "sentiment": self.sentiment,
            "topk": {str(k): v for k, v in sorted(self.topk.items())},
        }


def evaluate_graph(
    graph: KnowledgeGraph,
    gold: dict,
    lexicon: SkillLexicon,
    mode: str = "hit",
) -> EvalReport:
    """Compare a built graph against gold labels.

    Extraction predictions are the skills with a jobseeker-skill edge;
    sentiment predictions come from the score recorded on each project's
    skill edges. Every gold query is checked before any is ranked; each
    (widened to at least the top 10 so hit-rate@10 is meaningful) is ranked
    over the jobseekers holding its rarest term's skill, with the results
    ``execute`` gives. ``mode`` is checked before any of this.
    """
    _check_topk_mode(mode)
    report = EvalReport()
    jobseeker_ids = graph.jobseeker_ids()
    known = set(jobseeker_ids)
    if gold["skills"]:
        if missing := sorted(set(gold["skills"]) - known):
            raise FixtureError(f"skills: gold references unknown jobseekers: {missing[:5]}")
        predicted_skills = {
            jobseeker_id: set(graph.jobseeker_skills(jobseeker_id))
            for jobseeker_id in gold["skills"]
        }
        report.extraction = extraction_metrics(predicted_skills, gold["skills"])

    if gold["sentiment"]:
        predicted_classes = {}
        for pkey in gold["sentiment"]:
            try:
                predicted_classes[pkey] = classify_score(graph.project_score(pkey))
            except NodeNotFoundError as exc:
                raise FixtureError(f"sentiment.{pkey}: gold references unknown "
                                   f"project {pkey!r}") from exc
        report.sentiment = sentiment_metrics(predicted_classes, gold["sentiment"])

    if gold["queries"]:
        widened: dict[str, Query] = {}  # every query checked before any is ranked
        for i, (query_str, relevant) in enumerate(gold["queries"]):
            if query_str in widened:
                raise FixtureError(f"queries[{i}]: duplicate gold query {query_str!r}")
            try:
                parsed = parse_query(query_str, lexicon)
            except QueryError as exc:
                raise FixtureError(f"queries[{i}]: {exc}") from exc
            if missing := sorted(relevant - known):
                raise FixtureError(f"queries[{i}]: gold references unknown jobseekers: "
                                   f"{missing[:5]}")
            widened[query_str] = Query(terms=parsed.terms, top_k=max(10, parsed.top_k))
        postings = _postings(graph, jobseeker_ids,
                             {term.skill for query in widened.values() for term in query.terms})
        rankings: dict[str, list[str]] = {}
        for query_str, query in widened.items():  # over its rarest term's jobseekers
            rarest = min((postings[term.skill] for term in query.terms), key=len)
            rankings[query_str] = [r.jobseeker_id for r in _rank(query, graph, rarest)]
        report.topk = {
            k: topk_accuracy(rankings, dict(gold["queries"]), k, mode=mode) for k in (3, 5, 10)
        }
    return report
