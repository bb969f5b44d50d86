from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talentgraph.lexicon import (
    SentimentEntry,
    SentimentGazetteer,
    load_sentiment_gazetteer,
    parse_sentiment_records,
)
from talentgraph.scoring import match_contributions, score_description

from conftest import GAZETTEER_FILE
from oracle import STOP_WORDS, naive_lookup, naive_score, naive_tokens

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
    details = "scalability and robust"
    assert score_description(details, None, gazetteer) == pytest.approx(0.7)
    pairs = match_contributions(details, None, gazetteer)
    assert len(pairs) == 2
    assert len({token for token, _ in pairs}) == 2


def test_repeated_occurrences_each_count(gazetteer):
    details = "scalable scalable"
    assert score_description(details, None, gazetteer) == pytest.approx(0.9)
    pairs = match_contributions(details, None, gazetteer)
    assert len(pairs) == 2
    assert len({token for token, _ in pairs}) == 1


def test_zero_matches_score_zero(gazetteer):
    assert score_description("walked the dog", None, gazetteer) == 0.0
    assert match_contributions("walked the dog", None, gazetteer) == []


def test_empty_description(gazetteer):
    assert score_description("", None, gazetteer) == 0.0
    assert match_contributions("", None, gazetteer) == []


def test_skill_scope_changes_lookup(gazetteer):
    # "performance" is 0.95 under c++, 0.6 otherwise (fixture gazetteer)
    assert score_description("performance", "c++", gazetteer) == pytest.approx(0.95)
    assert score_description("performance", "java", gazetteer) == pytest.approx(0.6)
    assert score_description("performance", None, gazetteer) == pytest.approx(0.6)


def test_match_contributions_recompute_score(gazetteer):
    details = "robust debugging of distributed robust things"
    pairs = match_contributions(details, None, gazetteer)
    assert len(pairs) == 4
    assert sum(w for _, w in pairs) / len(pairs) == pytest.approx(
        score_description(details, None, gazetteer)
    )


def test_scoped_only_gazetteer_scores_zero_without_context():
    gaz = parse_sentiment_records(
        [{"keyword": "fast", "class": "t", "weight": 0.8, "skill": "c++"}]
    )
    assert score_description("fast fast", None, gaz) == 0.0
    assert score_description("fast fast", "c++", gaz) == pytest.approx(0.8)


# -- bag-of-words properties over generated descriptions ---------------------

def test_permutation_invariance(gazetteer):
    rng = random.Random(101)
    for details in make_description_pool(gazetteer, rng, 300):
        words = details.split()
        rng.shuffle(words)
        shuffled = " ".join(words)
        a = score_description(details, None, gazetteer)
        b = score_description(shuffled, None, gazetteer)
        assert a == pytest.approx(b, abs=1e-12)
        assert len(match_contributions(details, None, gazetteer)) == len(
            match_contributions(shuffled, None, gazetteer)
        )


def test_weight_bounded_by_matched_extremes(gazetteer):
    rng = random.Random(202)
    for details in make_description_pool(gazetteer, rng, 300):
        pairs = match_contributions(details, None, gazetteer)
        score = score_description(details, None, gazetteer)
        if not pairs:
            assert score == 0.0
            continue
        weights = [w for _, w in pairs]
        assert min(weights) - 1e-12 <= score <= max(weights) + 1e-12


def test_non_matching_word_neutrality(gazetteer):
    rng = random.Random(303)
    for details in make_description_pool(gazetteer, rng, 300):
        padded = details + " zqxjk"
        assert score_description(details, None, gazetteer) == pytest.approx(
            score_description(padded, None, gazetteer), abs=1e-12
        )


def test_duplication_invariance(gazetteer):
    rng = random.Random(404)
    for details in make_description_pool(gazetteer, rng, 300):
        doubled = details + " " + details
        assert score_description(doubled, None, gazetteer) == pytest.approx(
            score_description(details, None, gazetteer), abs=1e-12
        )
        assert len(match_contributions(doubled, None, gazetteer)) == 2 * len(
            match_contributions(details, None, gazetteer)
        )


@settings(max_examples=300, deadline=None)
@given(words=st.lists(st.sampled_from(KEYWORDS + FILLERS + sorted(STOP_WORDS)), max_size=30))
def test_score_matches_oracle_exactly(gazetteer, words):
    details = " ".join(words)
    assert score_description(details, None, gazetteer) == naive_score(details, gazetteer)


SCOPED_KEYWORDS = ["fast", "robust", "clean"]
# Per keyword, the weight of each scope it has an entry for: often both a
# scoped and a scope-free entry, and often a weight of 0.0, which still matches.
SCOPED_GAZETTEER = st.fixed_dictionaries({
    keyword: st.dictionaries(st.sampled_from([None, "java", "c++"]),
                             st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
    for keyword in SCOPED_KEYWORDS
})


@pytest.mark.parametrize("skill", [None, "java"])
@settings(max_examples=300, deadline=None)
@given(weights=SCOPED_GAZETTEER,
       words=st.lists(st.sampled_from(SCOPED_KEYWORDS + FILLERS + sorted(STOP_WORDS)),
                      max_size=30))
def test_match_contributions_match_naive_scoped_scan(skill, weights, words):
    entries = [SentimentEntry(keyword, "x", weight, scope)
               for keyword, by_scope in weights.items() for scope, weight in by_scope.items()]
    gazetteer = SentimentGazetteer(entries)
    details = " ".join(words)
    expected = [(token, weight) for token in naive_tokens(details)
                if (weight := naive_lookup(entries, token, skill)) is not None]
    assert match_contributions(details, skill, gazetteer) == expected
