from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talentgraph.cli import main
from talentgraph.errors import FixtureError
from talentgraph.evaluation import (
    classify_score,
    evaluate_graph,
    extraction_metrics,
    load_gold,
    sentiment_metrics,
    topk_accuracy,
)
from talentgraph.graph import KnowledgeGraph
from talentgraph.query import Query, QueryTerm, _rank, execute, parse_query

from conftest import GOLD_FILE, LEXICON_FILE, build_graph
from test_graph import GAZETTEER, LEXICON, record_sets, shared_edge_records
from test_query import dsl_of, many_skill_records, tied_records


# -- extraction ----------------------------------------------------------------

def test_perfect_extraction():
    sets = {"r1": {"java", "c++"}, "r2": {"sql"}}
    metrics = extraction_metrics(sets, sets)
    assert metrics == {"precision": 1.0, "recall": 1.0, "f1": 1.0}


def test_empty_prediction_recall_zero():
    metrics = extraction_metrics({"r1": set()}, {"r1": {"java"}})
    assert metrics["recall"] == 0.0
    assert metrics["precision"] == 1.0  # documented convention
    assert metrics["f1"] == 0.0


def test_counts_three_tp_one_fp_one_fn():
    metrics = extraction_metrics(
        {"r1": {"a", "b", "c", "d"}}, {"r1": {"a", "b", "c", "e"}}
    )
    assert metrics["precision"] == pytest.approx(0.75)
    assert metrics["recall"] == pytest.approx(0.75)
    assert metrics["f1"] == pytest.approx(0.75)


def test_extraction_swap_symmetry():
    pred = {"r1": {"a", "b"}, "r2": {"c"}}
    gold = {"r1": {"b", "x"}, "r2": {"c", "d"}}
    forward = extraction_metrics(pred, gold)
    backward = extraction_metrics(gold, pred)
    assert forward["precision"] == pytest.approx(backward["recall"])
    assert forward["recall"] == pytest.approx(backward["precision"])
    assert forward["f1"] == pytest.approx(backward["f1"])


def test_extraction_key_mismatch():
    with pytest.raises(FixtureError):
        extraction_metrics({"r1": set()}, {"r2": set()})


# -- sentiment -------------------------------------------------------------------

def test_sentiment_all_correct():
    labels = {f"p{i}": "positive" for i in range(5)}
    assert sentiment_metrics(labels, labels)["accuracy"] == 1.0


def test_sentiment_all_wrong():
    pred = {"p0": "positive", "p1": "neutral"}
    gold = {"p0": "neutral", "p1": "positive"}
    assert sentiment_metrics(pred, gold)["accuracy"] == 0.0


def test_sentiment_seventeen_of_twenty():
    gold = {f"p{i}": "positive" for i in range(20)}
    pred = dict(gold)
    for key in ("p3", "p7", "p11"):
        pred[key] = "neutral"
    assert sentiment_metrics(pred, gold)["accuracy"] == pytest.approx(0.85)


def test_sentiment_bad_class_rejected():
    with pytest.raises(FixtureError):
        sentiment_metrics({"p0": "meh"}, {"p0": "positive"})


def test_classify_score_threshold():
    assert classify_score(0.2) == "positive"
    assert classify_score(0.0) == "neutral"
    assert classify_score(5e-324) == "positive"  # the threshold is a fixed 0


# -- top-k -------------------------------------------------------------------------

def test_topk_gold_first_everywhere():
    rankings = {"q1": ["a", "b"], "q2": ["c", "d"]}
    gold = {"q1": {"a"}, "q2": {"c"}}
    for k in (3, 5, 10):
        assert topk_accuracy(rankings, gold, k) == 1.0


def test_topk_never_hit():
    rankings = {"q1": [f"x{i}" for i in range(10)]}
    gold = {"q1": {"winner"}}
    assert topk_accuracy(rankings, gold, 10) == 0.0


def test_topk_half_hit_at_three():
    rankings = {"q1": ["a", "b", "c"], "q2": ["d", "e", "f"]}
    gold = {"q1": {"c"}, "q2": {"zz"}}
    assert topk_accuracy(rankings, gold, 3) == pytest.approx(0.5)


def test_topk_monotone_in_k():
    rng = random.Random(99)
    ids = [f"js{i}" for i in range(30)]
    for _ in range(50):
        rankings = {}
        gold = {}
        for q in range(4):
            order = ids[:]
            rng.shuffle(order)
            rankings[f"q{q}"] = order
            gold[f"q{q}"] = set(rng.sample(ids, rng.randint(1, 3)))
        values = [topk_accuracy(rankings, gold, k) for k in (3, 5, 10)]
        assert values[0] <= values[1] <= values[2]


def test_topk_precision_mode():
    rankings = {"q1": ["a", "b", "c"]}
    gold = {"q1": {"a", "c"}}
    assert topk_accuracy(rankings, gold, 3, mode="precision") == pytest.approx(2 / 3)


def test_topk_empty_queries_is_error():
    with pytest.raises(FixtureError):
        topk_accuracy({}, {}, 3)


def test_topk_bad_k():
    with pytest.raises(FixtureError):
        topk_accuracy({"q": []}, {"q": set()}, 0)


def test_all_metrics_stay_in_unit_interval():
    rng = random.Random(7)
    skills = ["java", "c++", "sql", "react", "linux"]
    for _ in range(100):
        keys = [f"r{i}" for i in range(rng.randint(1, 6))]
        pred = {k: set(rng.sample(skills, rng.randint(0, 4))) for k in keys}
        gold = {k: set(rng.sample(skills, rng.randint(0, 4))) for k in keys}
        metrics = extraction_metrics(pred, gold)
        for value in (metrics["precision"], metrics["recall"], metrics["f1"]):
            assert 0.0 <= value <= 1.0
        pred_classes = {k: rng.choice(["positive", "neutral"]) for k in keys}
        gold_classes = {k: rng.choice(["positive", "neutral"]) for k in keys}
        sentiments = sentiment_metrics(pred_classes, gold_classes)
        for value in (sentiments["accuracy"], sentiments["precision"], sentiments["recall"]):
            assert 0.0 <= value <= 1.0


# -- gold loading and graph evaluation ----------------------------------------------

def test_load_gold_fixture():
    gold = load_gold(GOLD_FILE)
    assert gold["skills"]["js0000-jane-doe"] == {"c++", "java", "python"}
    assert gold["sentiment"]["js0003-wei-zhang:p1"] == "neutral"
    assert len(gold["queries"]) == 4


def test_load_gold_rejects_bad_class(tmp_path):
    bad = tmp_path / "gold.json"
    for text, locator in [
        ('{"sentiment": {"p": "angry"}}', "sentiment.p"),
        ('{"queries": [{"query": "top java", "relevant": [1, 2]}]}', "queries[0].relevant"),
        ('{"skills": {"js0": "java"}}', "skills.js0: expected a list of strings"),
        ('{"queries": [{"query": "top java"}]}', "queries[0]: expected {query, relevant}"),
    ]:
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(FixtureError) as err:
            load_gold(bad)
        assert locator in str(err.value)


def test_evaluate_graph_hand_counted(corpus_graph, lexicon):
    report = evaluate_graph(corpus_graph, load_gold(GOLD_FILE), lexicon)
    # 15 TP, 1 FP (john/linux), 1 FN (ana/react)
    assert report.extraction["precision"] == pytest.approx(15 / 16)
    assert report.extraction["recall"] == pytest.approx(15 / 16)
    assert report.extraction["f1"] == pytest.approx(15 / 16)
    # 7 projects labeled, wei:p0 deliberately labeled neutral but scored positive
    assert report.sentiment["accuracy"] == pytest.approx(6 / 7)
    assert report.sentiment["precision"] == pytest.approx(5 / 6)
    assert report.sentiment["recall"] == pytest.approx(1.0)
    # 3 of the 4 gold queries hit within every k
    assert report.topk == {
        3: pytest.approx(0.75),
        5: pytest.approx(0.75),
        10: pytest.approx(0.75),
    }


def test_evaluate_graph_unknown_jobseeker(corpus_graph, lexicon):
    gold = load_gold(GOLD_FILE)
    gold["skills"]["js9999-ghost"] = {"java"}
    with pytest.raises(FixtureError):
        evaluate_graph(corpus_graph, gold, lexicon)


@pytest.mark.parametrize("gold, message", [
    ({"queries": [("top java", {"js0000-jane-doe"}), ("top java", set())]},
     "queries[1]: duplicate gold query 'top java'"),
    ({"skills": {"js0000-jane-doe": {"java"}, "js9999-ghost": {"java"}}},
     "skills: gold references unknown jobseekers: ['js9999-ghost']"),
    ({"sentiment": {"js0000-jane-doe:p9": "positive"}},
     "sentiment.js0000-jane-doe:p9: gold references unknown project 'js0000-jane-doe:p9'"),
    ({"queries": [("top java", {"js0000-jane-doe"}), ("top cobol", set())]},
     "queries[1]: unknown skill 'cobol'"),
    ({"queries": [("top java 99+", {"js0000-jane-doe", "js9999-ghost", "js0000"})]},
     "queries[0]: gold references unknown jobseekers: ['js0000', 'js9999-ghost']"),
], ids=["duplicate-query", "unknown-skills-ids", "unknown-project", "unknown-query-skill",
        "unknown-relevant-ids"])
def test_evaluate_graph_rejects_bad_gold(corpus_graph, lexicon, gold, message):
    gold = {"skills": {}, "sentiment": {}, "queries": [], **gold}
    with pytest.raises(FixtureError) as err:
        evaluate_graph(corpus_graph, gold, lexicon)
    assert str(err.value) == message


def test_report_table_and_dict(corpus_graph, lexicon, tmp_path, capsys):
    """The CLI lays out the report's table; ``to_dict`` is what --json prints."""
    graph = tmp_path / "graph.json"
    corpus_graph.save(graph)
    assert main(["eval", str(graph), str(GOLD_FILE), "--lexicon", str(LEXICON_FILE)]) == 0
    table = capsys.readouterr().out
    assert "skill extraction" in table and "hit-rate@k" in table
    assert "  f1-score                    0.9375\n" in table
    payload = evaluate_graph(corpus_graph, load_gold(GOLD_FILE), lexicon).to_dict()
    assert payload["topk"]["3"] == pytest.approx(0.75)
    assert set(payload["extraction"]) == {"precision", "recall", "f1"}
    assert set(payload["sentiment"]) == {"accuracy", "precision", "recall"}


# -- rankings ------------------------------------------------------------------

@st.composite
def graphs_and_gold(draw):
    """A graph from drawn records, and gold of 1-4 distinct queries over its
    lexicon skills, unbounded or with a minimum, each with any ``top N`` and
    0-3 relevant jobseekers. Declared-only skills rank at strength 0, and
    ``tied_records`` repeats whole resumes, so many strengths are equal."""
    records = draw(st.one_of(record_sets(), shared_edge_records(), many_skill_records(),
                             tied_records()))
    graph = build_graph(records, LEXICON, GAZETTEER)
    ids = graph.jobseeker_ids()
    skills = sorted({s for j in ids for s in graph.jobseeker_skills(j)} & set(LEXICON.categories)
                    | {"java"})
    queries = {}
    for _ in range(draw(st.integers(1, 4))):
        terms = [QueryTerm(skill, draw(st.sampled_from([None, 0, 1, 2])))
                 for skill in draw(st.permutations(skills))[:draw(st.integers(1, 3))]]
        query = Query(tuple(terms), draw(st.integers(1, 12)))
        relevant = draw(st.lists(st.sampled_from(ids), max_size=3)) if ids else []
        queries[dsl_of(query)] = set(relevant)
    return graph, {"skills": {}, "sentiment": {}, "queries": list(queries.items())}


@settings(max_examples=150, deadline=None)
@given(case=graphs_and_gold())
def test_evaluate_graph_ranks_each_query_as_execute_does(case):
    """Each gold query's ranking is ``execute``'s for the query widened to the
    top 10, in both modes and at every k."""
    graph, gold = case
    rankings = {}
    for text, _ in gold["queries"]:
        parsed = parse_query(text, LEXICON)
        widened = Query(parsed.terms, max(10, parsed.top_k))
        rankings[text] = [r.jobseeker_id for r in execute(widened, graph)]
    relevant = dict(gold["queries"])
    for mode in ("hit", "precision"):
        want = {k: topk_accuracy(rankings, relevant, k, mode=mode) for k in (3, 5, 10)}
        assert evaluate_graph(graph, gold, LEXICON, mode=mode).topk == want


def count_jobseeker_ids(monkeypatch) -> list[None]:
    """A list that grows by one at each ``KnowledgeGraph.jobseeker_ids`` call."""
    calls = []
    jobseeker_ids = KnowledgeGraph.jobseeker_ids

    def counting(graph):
        calls.append(None)
        return jobseeker_ids(graph)

    monkeypatch.setattr(KnowledgeGraph, "jobseeker_ids", counting)
    return calls


GOLD_QUERIES = ["top java candidates", "python 2-3", "spark 1+, kafka 1+", "top react candidates",
                "c++ 8-10", "top 3 sql", "java, python", "linux 0+"]


@pytest.mark.parametrize("count", [0, 1, 8])
def test_evaluate_graph_sorts_the_jobseekers_once(corpus_graph, lexicon, monkeypatch, count):
    gold = load_gold(GOLD_FILE)
    gold["queries"] = [(text, {"js0000-jane-doe"}) for text in GOLD_QUERIES[:count]]
    calls = count_jobseeker_ids(monkeypatch)
    report = evaluate_graph(corpus_graph, gold, lexicon)
    assert (len(calls), sorted(report.topk)) == (1, [3, 5, 10] if count else [])
    for n, text in enumerate(GOLD_QUERIES, start=2):
        execute(parse_query(text, lexicon), corpus_graph)
        assert len(calls) == n


@pytest.mark.parametrize("texts", [None, GOLD_QUERIES], ids=["fixture-gold", "eight-queries"])
def test_eval_ranks_each_gold_query_over_its_shortest_posting_list(corpus_graph, lexicon,
                                                                   monkeypatch, texts):
    """``evaluate_graph`` hands ``_rank`` each gold query's shortest posting
    list, worked out here from the graph document's rows, so fewer ids in all
    than one scan of every jobseeker per query; ``execute`` still hands it
    every jobseeker."""
    gold = load_gold(GOLD_FILE)
    if texts is not None:
        gold["queries"] = [(text, {"js0000-jane-doe"}) for text in texts]
    handed = []

    def recording(query, graph, jobseeker_ids):
        handed.append(list(jobseeker_ids))
        return _rank(query, graph, jobseeker_ids)

    monkeypatch.setattr("talentgraph.evaluation._rank", recording)
    evaluate_graph(corpus_graph, gold, lexicon)
    held = {jobseeker: {*declared, *(skill for row in projects for skill in row[4])}
            for jobseeker, _, declared, projects in corpus_graph.to_dict()["jobseekers"]}
    shortest = [min(([j for j in sorted(held) if term.skill in held[j]]
                     for term in parse_query(text, lexicon).terms), key=len)
                for text, _ in gold["queries"]]
    assert handed == shortest
    ids = corpus_graph.jobseeker_ids()
    assert sum(map(len, handed)) < len(gold["queries"]) * len(ids)

    handed.clear()
    monkeypatch.setattr("talentgraph.query._rank", recording)
    for text, _ in gold["queries"]:
        execute(parse_query(text, lexicon), corpus_graph)
    assert handed == [ids] * len(gold["queries"])


@pytest.mark.parametrize("queries", [[], [("top java", {"js0000-jane-doe"})]],
                         ids=["no-queries", "one-query"])
def test_evaluate_graph_checks_the_mode_before_any_work(corpus_graph, lexicon, monkeypatch,
                                                         queries):
    gold = {**load_gold(GOLD_FILE), "queries": queries}
    calls = count_jobseeker_ids(monkeypatch)
    with pytest.raises(FixtureError, match=r"^unknown top-k mode 'bogus'$"):
        evaluate_graph(corpus_graph, gold, lexicon, mode="bogus")
    assert calls == []
