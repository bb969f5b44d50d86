from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talentgraph.lexicon import load_sentiment_gazetteer, parse_sentiment_records
from talentgraph.scoring import match_contributions, score_description

from conftest import GAZETTEER_FILE
from oracle import STOP_WORDS, naive_lookup, naive_score, naive_tokens

FILLERS = ["built", "shipped", "tools", "team", "platform", "billing", "data",
           "nightly", "jobs", "pipeline", "reviewed", "code"]


KEYWORDS = sorted(load_sentiment_gazetteer(GAZETTEER_FILE).weights)


def make_description_pool(gazetteer, rng, count):
    keywords = sorted(gazetteer.weights)
    pool = []
    for _ in range(count):
        words = rng.choices(keywords + FILLERS, k=rng.randint(0, 18))
        pool.append(" ".join(words))
    return pool


def test_mean_of_two_matches(gazetteer):
    # scalability@0.9 + robust@0.5 -> (0.9 + 0.5) / 2
    details = "scalability and robust"
    assert score_description(details, gazetteer) == pytest.approx(0.7)
    pairs = match_contributions(details, gazetteer)
    assert len(pairs) == 2
    assert len({token for token, _ in pairs}) == 2


def test_repeated_occurrences_each_count(gazetteer):
    details = "scalable scalable"
    assert score_description(details, gazetteer) == pytest.approx(0.9)
    pairs = match_contributions(details, gazetteer)
    assert len(pairs) == 2
    assert len({token for token, _ in pairs}) == 1


def test_zero_matches_score_zero(gazetteer):
    assert score_description("walked the dog", gazetteer) == 0.0
    assert match_contributions("walked the dog", gazetteer) == []


def test_empty_description(gazetteer):
    assert score_description("", gazetteer) == 0.0
    assert match_contributions("", gazetteer) == []


def test_match_contributions_recompute_score(gazetteer):
    details = "robust debugging of distributed robust things"
    pairs = match_contributions(details, gazetteer)
    assert len(pairs) == 4
    assert sum(w for _, w in pairs) / len(pairs) == pytest.approx(
        score_description(details, gazetteer)
    )


# -- bag-of-words properties over generated descriptions ---------------------

def test_permutation_invariance(gazetteer):
    rng = random.Random(101)
    for details in make_description_pool(gazetteer, rng, 300):
        words = details.split()
        rng.shuffle(words)
        shuffled = " ".join(words)
        a = score_description(details, gazetteer)
        b = score_description(shuffled, gazetteer)
        assert a == pytest.approx(b, abs=1e-12)
        assert len(match_contributions(details, gazetteer)) == len(
            match_contributions(shuffled, gazetteer)
        )


def test_weight_bounded_by_matched_extremes(gazetteer):
    rng = random.Random(202)
    for details in make_description_pool(gazetteer, rng, 300):
        pairs = match_contributions(details, gazetteer)
        score = score_description(details, gazetteer)
        if not pairs:
            assert score == 0.0
            continue
        weights = [w for _, w in pairs]
        assert min(weights) - 1e-12 <= score <= max(weights) + 1e-12


def test_non_matching_word_neutrality(gazetteer):
    rng = random.Random(303)
    for details in make_description_pool(gazetteer, rng, 300):
        padded = details + " zqxjk"
        assert score_description(details, gazetteer) == pytest.approx(
            score_description(padded, gazetteer), abs=1e-12
        )


def test_duplication_invariance(gazetteer):
    rng = random.Random(404)
    for details in make_description_pool(gazetteer, rng, 300):
        doubled = details + " " + details
        assert score_description(doubled, gazetteer) == pytest.approx(
            score_description(details, gazetteer), abs=1e-12
        )
        assert len(match_contributions(doubled, gazetteer)) == 2 * len(
            match_contributions(details, gazetteer)
        )


@settings(max_examples=300, deadline=None)
@given(words=st.lists(st.sampled_from(KEYWORDS + FILLERS + sorted(STOP_WORDS)), max_size=30))
def test_score_matches_oracle_exactly(gazetteer, words):
    details = " ".join(words)
    assert score_description(details, gazetteer) == naive_score(details, gazetteer)


SENTIMENT_KEYWORDS = ["fast", "robust", "clean"]


@pytest.mark.parametrize("skill", [None, "java"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_match_contributions_match_naive_scoped_scan(skill, data):
    """Every occurrence of a weighted keyword, and only those, in text order;
    a weight of 0.0 still matches. The skill a description is listed under
    picks no weights: its name in the text is one more token, weighed only
    when the gazetteer holds it as a keyword."""
    keywords = SENTIMENT_KEYWORDS + ([skill] if skill else [])
    weights = data.draw(st.dictionaries(st.sampled_from(keywords),
                                        st.sampled_from([0.0, 1.0]) | st.floats(0, 1)))
    words = data.draw(st.lists(st.sampled_from(keywords + FILLERS + sorted(STOP_WORDS)),
                               max_size=30))
    records = [{"keyword": keyword, "class": "x", "weight": weight}
               for keyword, weight in weights.items()]
    gazetteer = parse_sentiment_records(records)
    details = " ".join(words)
    expected = [(token, weight) for token in naive_tokens(details)
                if (weight := naive_lookup(records, token)) is not None]
    assert match_contributions(details, gazetteer) == expected
