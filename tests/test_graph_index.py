"""Lookups by node go through the graph's derived adjacency indexes, and
the four project-derived edge kinds are built from the project rows.

Each (kind, direction) index and each derived kind is built on its first
read and dropped by each ``add_resume``, so each answer must equal a naive
rescan of the edges, whatever the ingestion order, merge tree, round trip or
order of first reads that produced the graph.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talentgraph import graph as graph_module
from talentgraph.cli import main
from talentgraph.evaluation import evaluate_graph, load_gold
from talentgraph.graph import EdgeKind, KnowledgeGraph, project_key
from talentgraph.lexicon import load_sentiment_gazetteer, load_skill_lexicon
from talentgraph.parser import ExperienceEntry, ResumeRecord
from talentgraph.query import explain, parse_query
from talentgraph.stats import compute_graph_stats

from conftest import GAZETTEER_FILE, GOLD_FILE, LEXICON_FILE, build_graph
from oracle import OracleGraph

LEXICON = load_skill_lexicon(LEXICON_FILE)
GAZETTEER = load_sentiment_gazetteer(GAZETTEER_FILE)
DERIVED = [EdgeKind.JOBSEEKER_PROJECT, EdgeKind.SKILL_PROJECT, EdgeKind.ORG_SKILL,
           EdgeKind.PROJECT_ORG]
DETAIL_WORDS = ["c++", "cpp", "java", "py", "apache spark", "sql", "react",
                "robust", "scalable", "debugging", "performance", "lead", "the", "service"]


def _experience(draw) -> ExperienceEntry:
    words = draw(st.lists(st.sampled_from(DETAIL_WORDS), max_size=6))
    return ExperienceEntry(
        organization=draw(st.sampled_from(["acme", "globex", "initech"])),
        project_title="untitled",
        duration_months=draw(st.integers(0, 40)),
        details=" ".join(words),
        duration_raw="",
    )


@st.composite
def record_sets(draw) -> list[ResumeRecord]:
    ids = draw(st.lists(st.sampled_from([f"js{i}" for i in range(8)]), max_size=6, unique=True))
    declarable = sorted(LEXICON.categories) + ["cobol"]  # cobol: not in the lexicon
    return [
        ResumeRecord(
            jobseeker_id=jobseeker_id,
            name=jobseeker_id,
            declared_skills=set(draw(st.lists(st.sampled_from(declarable), max_size=3))),
            experiences=[_experience(draw) for _ in range(draw(st.integers(0, 3)))],
        )
        for jobseeker_id in ids
    ]


def assert_lookups_match_oracle(graph: KnowledgeGraph, oracle: OracleGraph) -> None:
    jobseekers = oracle.jobseeker_ids()
    for jobseeker_id in jobseekers:
        for skill in sorted(LEXICON.categories):
            assert graph.supporting_projects(jobseeker_id, skill) == oracle.supporting_projects(
                jobseeker_id, skill
            )
    for kind, key in sorted(oracle.nodes):
        if kind == "project":
            assert graph.project_score(key) == oracle.project_score(key)
    if jobseekers:
        gold = {"skills": {j: oracle.skills_of(j) for j in jobseekers},
                "sentiment": {}, "queries": []}
        extraction = evaluate_graph(graph, gold, LEXICON).extraction
        # Precision and recall are both 1 exactly when every predicted set
        # equals the oracle's.
        assert (extraction["precision"], extraction["recall"]) == (1.0, 1.0)
    assert compute_graph_stats(graph).to_dict() == oracle.stats(LEXICON)


@settings(max_examples=150, deadline=None)
@given(records=record_sets(), data=st.data())
def test_lookups_match_oracle(records, data):
    oracle = OracleGraph(records, LEXICON, GAZETTEER, KnowledgeGraph().config)
    shuffled = data.draw(st.permutations(records))
    cut = data.draw(st.integers(0, len(records)))
    built = build_graph(shuffled[:cut], LEXICON, GAZETTEER)
    merged = built.merge(build_graph(shuffled[cut:], LEXICON, GAZETTEER))
    for kind in EdgeKind:  # index the graph mid-ingestion, every kind both ways
        built.out_edges(kind, "js0")
        built.in_edges(kind, "java")
    for record in shuffled[cut:]:
        built.add_resume(record, LEXICON, GAZETTEER)
    loaded = KnowledgeGraph.from_dict(built.to_dict())
    for graph in (built, merged, loaded):
        assert_lookups_match_oracle(graph, oracle)


def test_new_edge_seen_by_next_lookup():
    def resume(jobseeker_id):
        details = "robust java service"
        return ResumeRecord(jobseeker_id, jobseeker_id, {"java"},
                            [ExperienceEntry("acme", "untitled", 12, details, "")])

    graph = build_graph([resume("js0")], LEXICON, GAZETTEER)
    assert set(graph.in_edges(EdgeKind.JOBSEEKER_SKILL, "java")) == {"js0"}
    assert set(graph.out_edges(EdgeKind.ORG_SKILL, "acme")) == {"java"}
    graph.add_resume(resume("js1"), LEXICON, GAZETTEER)
    assert set(graph.in_edges(EdgeKind.JOBSEEKER_SKILL, "java")) == {"js0", "js1"}
    assert set(graph.in_edges(EdgeKind.SKILL_PROJECT, project_key("js1", 0))) == {"java"}
    assert graph.supporting_projects("js1", "java") == [project_key("js1", 0)]
    # Declared skills alone create edges too: no project is added.
    graph.add_resume(ResumeRecord("js2", "js2", {"java", "sql"}, []), LEXICON, GAZETTEER)
    assert set(graph.in_edges(EdgeKind.JOBSEEKER_SKILL, "java")) == {"js0", "js1", "js2"}
    assert set(graph.out_edges(EdgeKind.JOBSEEKER_SKILL, "js2")) == {"java", "sql"}


def assert_edges_match_oracle(graph: KnowledgeGraph, oracle: OracleGraph) -> None:
    got = {(kind.value, source, target): edge
           for (kind, source, target), edge in graph.edges.items()}
    assert set(got) == set(oracle.edges)
    for key, (weight, count, months) in oracle.edges.items():
        assert (got[key].support_count, got[key].months_sum) == (count, months), key
        assert got[key].weight_sum == pytest.approx(weight, abs=1e-9), key


@settings(max_examples=150, deadline=None)
@given(records=record_sets(), data=st.data())
def test_derived_kinds_read_in_any_order_equal_the_eager_build_and_oracle(records, data):
    """A loaded graph whose derived kinds are read in a drawn order, some not
    at all before the comparison, equals a build that reads every kind after
    each ``add_resume``; a kind read mid-ingestion is rebuilt after the next."""
    oracle = OracleGraph(records, LEXICON, GAZETTEER, KnowledgeGraph().config)
    eager = KnowledgeGraph()
    for record in records:
        eager.add_resume(record, LEXICON, GAZETTEER)
        assert len(eager.edges) == sum(map(eager.edge_count, EdgeKind))  # builds every kind
    cut = data.draw(st.integers(0, len(records)))
    built = build_graph(records[:cut], LEXICON, GAZETTEER)
    for kind in data.draw(st.lists(st.sampled_from(DERIVED), unique=True)):
        built.get_edge(kind, "js0", "java")
    for record in records[cut:]:
        built.add_resume(record, LEXICON, GAZETTEER)
    loaded = KnowledgeGraph.from_dict(built.to_dict())
    read = data.draw(st.permutations(DERIVED))[:data.draw(st.integers(0, len(DERIVED)))]
    for kind in read:
        loaded.edge_count(kind)
    assert set(loaded._edges) == {EdgeKind.JOBSEEKER_SKILL, *read}
    for graph in (built, loaded):
        assert graph == eager
        assert_edges_match_oracle(graph, oracle)


def test_cold_explain_indexes_only_the_kind_it_reads(corpus_graph):
    graph = KnowledgeGraph.from_dict(corpus_graph.to_dict())
    query = parse_query("top c++, java, python", LEXICON)
    explain(graph.jobseeker_ids()[0], query, graph)
    assert set(graph._adjacency) == {(EdgeKind.JOBSEEKER_PROJECT, True)}
    assert set(graph._edges) == {EdgeKind.JOBSEEKER_SKILL, EdgeKind.JOBSEEKER_PROJECT,
                                 EdgeKind.SKILL_PROJECT}


@pytest.mark.parametrize("argv, kinds", [
    (["query", "GRAPH", "c++, java", "--lexicon", LEXICON_FILE], []),
    (["stats", "GRAPH"], []),
    (["explain", "GRAPH", "js0000-jane-doe", "top c++, java, python"],
     [EdgeKind.JOBSEEKER_PROJECT, EdgeKind.SKILL_PROJECT]),
    (["eval", "GRAPH", GOLD_FILE, "--lexicon", LEXICON_FILE], [EdgeKind.SKILL_PROJECT]),
    (["export", "GRAPH"], []),
    (["export", "GRAPH", "--format", "dot"], DERIVED),
], ids=["query", "stats", "explain", "eval", "export-json", "export-dot"])
def test_cold_commands_build_only_the_derived_kinds_they_read(
    argv, kinds, corpus_graph, tmp_path, monkeypatch
):
    path = tmp_path / "graph.json"
    corpus_graph.save(path)
    built = []
    for kind in DERIVED:
        def build(rows, kind=kind, builder=graph_module._DERIVED[kind]):
            built.append(kind)
            return builder(rows)
        monkeypatch.setitem(graph_module._DERIVED, kind, build)
    assert main([str(path) if arg == "GRAPH" else str(arg) for arg in argv]) == 0
    assert sorted(built) == sorted(kinds)  # each kind built once at most


def test_explain_eval_and_stats_do_not_sort_the_edges(corpus_graph, monkeypatch):
    def refuse(self):
        raise AssertionError("sorted every edge")

    monkeypatch.setattr(KnowledgeGraph, "_sorted_rows", refuse)
    query = parse_query("top c++, java, python", LEXICON)
    for jobseeker_id in corpus_graph.jobseeker_ids():
        assert explain(jobseeker_id, query, corpus_graph).terms
    assert evaluate_graph(corpus_graph, load_gold(GOLD_FILE), LEXICON).extraction
    assert compute_graph_stats(corpus_graph).resume_count == len(corpus_graph.jobseeker_ids())
    with pytest.raises(AssertionError, match="sorted every edge"):
        corpus_graph.to_dot()
