"""Lookups by jobseeker read that jobseeker's skills and project rows, and
the four project-derived edge kinds are built from the project rows by each
read of their edge objects.

No read writes to the graph, so each answer must equal a naive rescan of the
edges, whatever the ingestion order, merge tree, round trip or reads that
came before it.
"""
from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talentgraph.cli import main
from talentgraph.evaluation import evaluate_graph, load_gold
from talentgraph.graph import EdgeKind, KnowledgeGraph, NodeKind, project_key
from talentgraph.lexicon import load_sentiment_gazetteer, load_skill_lexicon
from talentgraph.parser import ExperienceEntry, ResumeRecord
from talentgraph.query import execute, explain, parse_query
from talentgraph.stats import compute_graph_stats

from conftest import CORPUS_DIR, GAZETTEER_FILE, GOLD_FILE, LEXICON_FILE, build_graph
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
        assert set(graph.jobseeker_skills(jobseeker_id)) == oracle.skills_of(jobseeker_id)
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
    built.edges  # read the graph mid-ingestion
    for jobseeker_id in built.jobseeker_ids():
        built.jobseeker_skills(jobseeker_id)
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

    def knowers(graph, skill):
        return {source for kind, source, target in graph.edges
                if kind is EdgeKind.JOBSEEKER_SKILL and target == skill}

    graph = build_graph([resume("js0")], LEXICON, GAZETTEER)
    assert knowers(graph, "java") == {"js0"}
    assert graph.edges[EdgeKind.ORG_SKILL, "acme", "java"].support_count == 1
    graph.add_resume(resume("js1"), LEXICON, GAZETTEER)
    assert knowers(graph, "java") == {"js0", "js1"}
    assert graph.edges[EdgeKind.ORG_SKILL, "acme", "java"].support_count == 2
    assert (EdgeKind.SKILL_PROJECT, "java", project_key("js1", 0)) in graph.edges
    assert set(graph.jobseeker_skills("js1")) == {"java"}
    assert graph.supporting_projects("js1", "java") == [project_key("js1", 0)]
    # Declared skills alone create edges too: no project is added.
    graph.add_resume(ResumeRecord("js2", "js2", {"java", "sql"}, []), LEXICON, GAZETTEER)
    assert knowers(graph, "java") == {"js0", "js1", "js2"}
    assert set(graph.jobseeker_skills("js2")) == {"java", "sql"}
    assert graph.supporting_projects("js2", "java") == []


def test_jobseeker_id_holding_a_project_suffix(tmp_path, capsys):
    """Jobseeker "a:p1" (projects "a:p1:p0", ...) beside jobseeker "a" (project
    "a:p1"): each lookup answers for the right jobseeker, as the oracle does."""
    def resume(jobseeker_id, *details):
        return ResumeRecord(jobseeker_id, jobseeker_id, {"sql"},
                            [ExperienceEntry("acme", "untitled", 6, text, "") for text in details])

    records = [resume("a", "robust java", "scalable py service", "the sql"),
               resume("a:p1", "debugging java", "lead c++ and java")]
    oracle = OracleGraph(records, LEXICON, GAZETTEER, KnowledgeGraph().config)
    graph = KnowledgeGraph.from_dict(build_graph(records, LEXICON, GAZETTEER).to_dict())
    assert graph.jobseeker_ids() == ["a", "a:p1"]
    assert_lookups_match_oracle(graph, oracle)
    path = tmp_path / "graph.json"
    graph.save(path)
    skills = ["java", "python", "c++", "sql"]
    for jobseeker_id in ("a", "a:p1"):
        capsys.readouterr()
        assert main(["explain", str(path), jobseeker_id, ", ".join(skills), "--json"]) == 0
        terms = json.loads(capsys.readouterr().out)["explanation"]["terms"]
        assert [term["projects"] for term in terms] == [
            oracle.supporting_projects(jobseeker_id, skill) for skill in skills]


def test_explain_lists_projects_in_ordinal_order(tmp_path, capsys):
    """A jobseeker with 12 projects: ``a:p2`` comes before ``a:p10``, as the
    projects' ordinals order them, not as their keys sort."""
    details = ["robust java", "java and sql", "the sql"] * 4
    records = [ResumeRecord("a", "a", set(),
                            [ExperienceEntry("acme", "untitled", 6, text, "") for text in details])]
    oracle = OracleGraph(records, LEXICON, GAZETTEER, KnowledgeGraph().config)
    path = tmp_path / "graph.json"
    build_graph(records, LEXICON, GAZETTEER).save(path)
    assert oracle.supporting_projects("a", "java") == [
        project_key("a", n) for n in (0, 1, 3, 4, 6, 7, 9, 10)]
    skills = ["java", "sql"]
    assert main(["explain", str(path), "a", ", ".join(skills), "--json"]) == 0
    terms = json.loads(capsys.readouterr().out)["explanation"]["terms"]
    assert [term["projects"] for term in terms] == [
        oracle.supporting_projects("a", skill) for skill in skills]


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
    each ``add_resume``; a kind read mid-ingestion still sees the next."""
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
    for graph in (built, loaded):
        assert graph == eager
        assert_edges_match_oracle(graph, oracle)


def test_reads_never_write(corpus_graph, tmp_path):
    graph = KnowledgeGraph.from_dict(corpus_graph.to_dict())
    before = copy.deepcopy(vars(graph))
    query = parse_query("top c++, java, python", LEXICON)
    assert execute(query, graph)
    for jobseeker_id in graph.jobseeker_ids():
        assert explain(jobseeker_id, query, graph).terms
        graph.jobseeker_skills(jobseeker_id)
    for key in graph.nodes:
        if key.kind is NodeKind.PROJECT:
            graph.project_score(key.key)
    assert evaluate_graph(graph, load_gold(GOLD_FILE), LEXICON).extraction
    assert compute_graph_stats(graph).resume_count
    edges = graph.edges
    graph.to_dot()
    graph.to_dict()
    graph.save(tmp_path / "graph.json")
    for kind in EdgeKind:
        source, target = next((s, t) for k, s, t in edges if k is kind)
        assert graph.get_edge(kind, source, target) is not None
        assert graph.edge_count(kind) == len(list(graph.edges_of_kind(kind)))
        # A kind's plain string value reads the same edges.
        assert graph.get_edge(kind.value, source, target) == graph.get_edge(kind, source, target)
        assert list(graph.edges_of_kind(kind.value)) == list(graph.edges_of_kind(kind))
        assert graph.edge_count(kind.value) == graph.edge_count(kind)
    assert graph == corpus_graph
    assert graph.merge(KnowledgeGraph(graph.config)) == graph
    assert vars(graph) == before


@pytest.mark.parametrize("argv, builds", [
    (["query", "GRAPH", "c++, java", "--lexicon", LEXICON_FILE], 0),
    (["stats", "GRAPH"], 0),
    (["explain", "GRAPH", "js0000-jane-doe", "top c++, java, python"], 0),
    (["eval", "GRAPH", GOLD_FILE, "--lexicon", LEXICON_FILE], 0),
    (["export", "GRAPH"], 0),
    (["export", "GRAPH", "--format", "dot"], 0),
    (["ingest", CORPUS_DIR, "--lexicon", LEXICON_FILE, "--gazetteer", GAZETTEER_FILE,
      "--out", "GRAPH"], 0),
], ids=["query", "stats", "explain", "eval", "export-json", "export-dot", "ingest"])
def test_cold_commands_build_only_the_derived_kinds_they_read(
    argv, builds, corpus_graph, tmp_path, monkeypatch
):
    path = tmp_path / "graph.json"
    corpus_graph.save(path)
    calls = count_builds(monkeypatch)
    assert main([str(path) if arg == "GRAPH" else str(arg) for arg in argv]) == 0
    assert len(calls) == builds


def count_builds(monkeypatch) -> list:
    """The kinds ``_derived`` is asked to build from here on, one per build."""
    calls = []
    derived = KnowledgeGraph._derived

    def counting(graph, kind):
        calls.append(kind)
        return derived(graph, kind)

    monkeypatch.setattr(KnowledgeGraph, "_derived", counting)
    return calls


@pytest.mark.parametrize("kind", DERIVED, ids=[kind.value for kind in DERIVED])
def test_a_read_of_one_derived_kind_builds_that_kind_alone(kind, corpus_graph, monkeypatch):
    """``get_edge`` and ``edges_of_kind`` of one derived kind build only it;
    ``edges`` builds each derived kind once; a jobseeker-skill lookup builds none."""
    source, target = next((s, t) for k, s, t in corpus_graph.edges if k is kind)
    calls = count_builds(monkeypatch)
    assert corpus_graph.get_edge(kind, source, target) is not None
    assert corpus_graph.get_edge(kind.value, source, "nowhere") is None
    assert list(corpus_graph.edges_of_kind(kind))
    assert calls == [kind] * 3
    calls.clear()
    assert corpus_graph.get_edge(EdgeKind.JOBSEEKER_SKILL, "js0000-jane-doe", "java")
    assert not calls
    corpus_graph.edges
    assert sorted(calls) == sorted(DERIVED)
    with pytest.raises(KeyError):
        corpus_graph.get_edge("wizard", source, target)


def test_explain_eval_and_stats_do_not_sort_the_edges(corpus_graph, monkeypatch):
    """None of them builds a derived kind or reads ``edges_of_kind``, which
    sorts every edge of a kind."""
    def refuse(*args):
        raise AssertionError("read every edge of a kind")

    monkeypatch.setattr(KnowledgeGraph, "_derived", refuse)
    monkeypatch.setattr(KnowledgeGraph, "edges_of_kind", refuse)
    query = parse_query("top c++, java, python", LEXICON)
    for jobseeker_id in corpus_graph.jobseeker_ids():
        assert explain(jobseeker_id, query, corpus_graph).terms
    assert evaluate_graph(corpus_graph, load_gold(GOLD_FILE), LEXICON).extraction
    assert compute_graph_stats(corpus_graph).resume_count == len(corpus_graph.jobseeker_ids())
    with pytest.raises(AssertionError, match="read every edge of a kind"):
        corpus_graph.edges_of_kind(EdgeKind.JOBSEEKER_SKILL)
