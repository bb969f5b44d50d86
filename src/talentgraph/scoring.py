"""Sentiment scoring of project descriptions against the gazetteer.

The score of a description is the occurrence-weighted mean over its
gazetteer-matched words: repeated occurrences each count, non-matching words
are excluded from the denominator, and zero matches score 0. The result is
therefore a bag-of-words quantity, invariant under word order and under
duplication of the whole text.

``score_description`` returns that mean as a float in [0, 1] (the gazetteer
rejects weights outside it), and ``score_tokens`` that of a ``tokenize`` list
that ingest shares with skill matching; ``match_contributions`` lists the
(token, weight) occurrences behind it, one per matched occurrence.
"""
from __future__ import annotations

from .lexicon import SentimentGazetteer
from .tokenization import tokenize


def score_description(details: str, gazetteer: SentimentGazetteer) -> float:
    """Score a description: the mean weight of its gazetteer-matched tokens."""
    return score_tokens(tokenize(details), gazetteer)


def score_tokens(tokens: list[str], gazetteer: SentimentGazetteer) -> float:
    """``score_description`` of a text whose ``tokenize`` list is ``tokens``."""
    get, total = gazetteer.weights.get, 0.0
    weights = [w for t in tokens if (w := get(t)) is not None]
    for weight in weights:  # left to right; sum() compensates from Python 3.12
        total += weight
    return total / len(weights) if weights else 0.0


def match_contributions(details: str, gazetteer: SentimentGazetteer) -> list[tuple[str, float]]:
    """Per-occurrence (token, weight) pairs behind a description's score."""
    get = gazetteer.weights.get
    return [(t, w) for t in tokenize(details) if (w := get(t)) is not None]
