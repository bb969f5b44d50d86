"""Sentiment scoring of project descriptions against the gazetteer.

The score of a description is the occurrence-weighted mean over its
gazetteer-matched words: repeated occurrences each count, non-matching words
are excluded from the denominator, and zero matches score 0. The result is
therefore a bag-of-words quantity, invariant under word order and under
duplication of the whole text.
"""
from __future__ import annotations

from dataclasses import dataclass

from .lexicon import SentimentGazetteer, lookup_sentiment
from .tokenization import tokenize


@dataclass(frozen=True)
class DescriptionScore:
    weight: float
    matched_occurrences: int
    distinct_keywords: int

    def __post_init__(self):
        if self.matched_occurrences == 0 and self.weight != 0.0:
            raise ValueError("zero matches must score 0")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight {self.weight} outside [0, 1]")


def score_description(
    details: str,
    skill: str | None,
    gazetteer: SentimentGazetteer,
) -> DescriptionScore:
    """Score a description, optionally under a skill's gazetteer scope."""
    matches = match_contributions(details, skill, gazetteer)
    if not matches:
        return DescriptionScore(0.0, 0, 0)
    total = 0.0
    for _, weight in matches:  # left to right; sum() compensates from Python 3.12
        total += weight
    return DescriptionScore(total / len(matches), len(matches), len({t for t, _ in matches}))


def match_contributions(
    details: str,
    skill: str | None,
    gazetteer: SentimentGazetteer,
) -> list[tuple[str, float]]:
    """Per-occurrence (token, weight) pairs behind a description's score."""
    return [
        (token, weight)
        for token in tokenize(details)
        if (weight := lookup_sentiment(token, skill, gazetteer)) is not None
    ]
