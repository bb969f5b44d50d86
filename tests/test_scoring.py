from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talentgraph.lexicon import load_sentiment_gazetteer, parse_sentiment_records
from talentgraph.scoring import DescriptionScore, match_contributions, score_description

from conftest import GAZETTEER_FILE
from oracle import STOP_WORDS, naive_score

FILLERS = ["built", "shipped", "tools", "team", "platform", "billing", "data",
           "nightly", "jobs", "pipeline", "reviewed", "code"]


KEYWORDS = sorted(
    {e.keyword for e in load_sentiment_gazetteer(GAZETTEER_FILE).entries if e.skill_scope is None}
)


def make_description_pool(gazetteer, rng, count):
    keywords = sorted({e.keyword for e in gazetteer.entries if e.skill_scope is None})
    pool = []
    for _ in range(count):
        words = rng.choices(keywords + FILLERS, k=rng.randint(0, 18))
        pool.append(" ".join(words))
    return pool


def test_mean_of_two_matches(gazetteer):
    # scalability@0.9 + robust@0.5 -> (0.9 + 0.5) / 2
    score = score_description("scalability and robust", None, gazetteer)
    assert score.weight == pytest.approx(0.7)
    assert score.matched_occurrences == 2
    assert score.distinct_keywords == 2


def test_repeated_occurrences_each_count(gazetteer):
    score = score_description("scalable scalable", None, gazetteer)
    assert score.weight == pytest.approx(0.9)
    assert score.matched_occurrences == 2
    assert score.distinct_keywords == 1


def test_zero_matches_score_zero(gazetteer):
    score = score_description("walked the dog", None, gazetteer)
    assert score == DescriptionScore(0.0, 0, 0)


def test_empty_description(gazetteer):
    assert score_description("", None, gazetteer) == DescriptionScore(0.0, 0, 0)


def test_skill_scope_changes_lookup(gazetteer):
    # "performance" is 0.95 under c++, 0.6 otherwise (fixture gazetteer)
    assert score_description("performance", "c++", gazetteer).weight == pytest.approx(0.95)
    assert score_description("performance", "java", gazetteer).weight == pytest.approx(0.6)
    assert score_description("performance", None, gazetteer).weight == pytest.approx(0.6)


def test_match_contributions_recompute_score(gazetteer):
    details = "robust debugging of distributed robust things"
    pairs = match_contributions(details, None, gazetteer)
    score = score_description(details, None, gazetteer)
    assert len(pairs) == score.matched_occurrences
    assert sum(w for _, w in pairs) / len(pairs) == pytest.approx(score.weight)


def test_invalid_description_score_rejected():
    with pytest.raises(ValueError):
        DescriptionScore(0.5, 0, 0)
    with pytest.raises(ValueError):
        DescriptionScore(1.5, 2, 1)


def test_scoped_only_gazetteer_scores_zero_without_context():
    gaz = parse_sentiment_records(
        [{"keyword": "fast", "class": "t", "weight": 0.8, "skill": "c++"}]
    )
    assert score_description("fast fast", None, gaz).weight == 0.0
    assert score_description("fast fast", "c++", gaz).weight == pytest.approx(0.8)


# -- bag-of-words properties over generated descriptions ---------------------

def test_permutation_invariance(gazetteer):
    rng = random.Random(101)
    for details in make_description_pool(gazetteer, rng, 300):
        words = details.split()
        rng.shuffle(words)
        shuffled = " ".join(words)
        a = score_description(details, None, gazetteer)
        b = score_description(shuffled, None, gazetteer)
        assert a.weight == pytest.approx(b.weight, abs=1e-12)
        assert a.matched_occurrences == b.matched_occurrences


def test_weight_bounded_by_matched_extremes(gazetteer):
    rng = random.Random(202)
    for details in make_description_pool(gazetteer, rng, 300):
        pairs = match_contributions(details, None, gazetteer)
        score = score_description(details, None, gazetteer)
        if not pairs:
            assert score.weight == 0.0
            continue
        weights = [w for _, w in pairs]
        assert min(weights) - 1e-12 <= score.weight <= max(weights) + 1e-12


def test_non_matching_word_neutrality(gazetteer):
    rng = random.Random(303)
    for details in make_description_pool(gazetteer, rng, 300):
        padded = details + " zqxjk"
        assert score_description(details, None, gazetteer).weight == pytest.approx(
            score_description(padded, None, gazetteer).weight, abs=1e-12
        )


def test_duplication_invariance(gazetteer):
    rng = random.Random(404)
    for details in make_description_pool(gazetteer, rng, 300):
        single = score_description(details, None, gazetteer)
        double = score_description(details + " " + details, None, gazetteer)
        assert double.weight == pytest.approx(single.weight, abs=1e-12)
        assert double.matched_occurrences == 2 * single.matched_occurrences


@settings(max_examples=300, deadline=None)
@given(words=st.lists(st.sampled_from(KEYWORDS + FILLERS + sorted(STOP_WORDS)), max_size=30))
def test_score_matches_oracle_exactly(gazetteer, words):
    details = " ".join(words)
    assert score_description(details, None, gazetteer).weight == naive_score(details, gazetteer)
