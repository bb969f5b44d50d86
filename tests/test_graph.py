from __future__ import annotations

import copy
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from talentgraph.errors import (
    DuplicateJobseekerError,
    GraphConfigError,
    GraphFormatError,
    NodeNotFoundError,
)
from talentgraph.graph import (
    EdgeKind,
    KnowledgeGraph,
    NodeId,
    NodeKind,
    ScoringConfig,
    project_key,
)
from talentgraph.lexicon import parse_sentiment_records
from talentgraph.parser import ExperienceEntry, ResumeRecord

from conftest import build_graph
from oracle import OracleGraph
from test_graph_index import GAZETTEER, LEXICON, record_sets


def record(jobseeker_id, declared=(), experiences=(), name="Someone"):
    return ResumeRecord(
        jobseeker_id=jobseeker_id,
        name=name,
        declared_skills=set(declared),
        experiences=list(experiences),
    )


def exp(org, details, months=0, title="untitled", raw=""):
    return ExperienceEntry(
        organization=org,
        project_title=title,
        duration_months=months,
        details=details,
        duration_raw=raw,
    )


def edge_kinds(graph):
    return {kind for kind, _, _ in graph.edges}


def node_kinds(graph):
    return {node.kind for node in graph.nodes}


# -- topology ----------------------------------------------------------------

def test_single_jobseeker_single_project_shape(lexicon, gazetteer):
    g = KnowledgeGraph()
    g.add_resume(
        record("js0", declared={"c++"}, experiences=[exp("acme", "robust c++ work", 12)]),
        lexicon,
        gazetteer,
    )
    assert len(g.nodes) == 4
    assert node_kinds(g) == {
        NodeKind.JOBSEEKER, NodeKind.SKILL, NodeKind.ORGANIZATION, NodeKind.PROJECT,
    }
    assert edge_kinds(g) >= {
        EdgeKind.JOBSEEKER_SKILL,
        EdgeKind.SKILL_PROJECT,
        EdgeKind.JOBSEEKER_PROJECT,
        EdgeKind.PROJECT_ORG,
    }
    # step 5 also records the org-skill average
    assert g.get_edge(EdgeKind.ORG_SKILL, "acme", "c++") is not None
    assert len(g.edges) == 5


def test_two_jobseekers_share_one_skill_node(lexicon, gazetteer):
    g = KnowledgeGraph()
    g.add_resume(
        record("js0", declared={"c++"}, experiences=[exp("acme", "robust c++", 6)]),
        lexicon, gazetteer,
    )
    g.add_resume(
        record("js1", declared={"c++"}, experiences=[exp("globex", "scalable c++", 6)]),
        lexicon, gazetteer,
    )
    skills = [n for n in g.nodes if n.kind is NodeKind.SKILL]
    assert len(skills) == 1 and skills[0].key == "c++"
    js_skill = [e for e in g.edges_of_kind(EdgeKind.JOBSEEKER_SKILL)]
    assert len(js_skill) == 2


def test_project_without_skill_mentions(lexicon, gazetteer):
    g = KnowledgeGraph()
    g.add_resume(
        record("js0", declared={"java"}, experiences=[exp("acme", "made coffee", 3)]),
        lexicon, gazetteer,
    )
    assert g.has_node(NodeKind.PROJECT, project_key("js0", 0))
    assert g.has_node(NodeKind.ORGANIZATION, "acme")
    assert not any(True for _ in g.edges_of_kind(EdgeKind.SKILL_PROJECT))
    edge = g.get_edge(EdgeKind.JOBSEEKER_SKILL, "js0", "java")
    assert edge.support_count == 0 and edge.weight_sum == 0.0


def test_projects_are_never_unified(lexicon, gazetteer):
    g = KnowledgeGraph()
    same = [exp("acme", "robust java", 6, title="Shared Title")]
    g.add_resume(record("js0", experiences=same), lexicon, gazetteer)
    g.add_resume(record("js1", experiences=same), lexicon, gazetteer)
    projects = sorted(n.key for n in g.nodes if n.kind is NodeKind.PROJECT)
    assert projects == ["js0:p0", "js1:p0"]


# -- strengths ---------------------------------------------------------------

def test_strength_mean_without_duration(lexicon, gazetteer):
    # per-project scores 0.7 and 0.5, no months -> plain mean 0.6
    g = KnowledgeGraph()
    g.add_resume(
        record("js0", experiences=[
            exp("acme", "distributed java"),
            exp("globex", "robust java"),
        ]),
        lexicon, gazetteer,
    )
    assert g.jobseeker_skill_strength("js0", "java") == pytest.approx(0.6)


def test_strength_with_saturated_duration_bonus(lexicon, gazetteer):
    # score 0.8, months at the cap: 0.8 + 0.5 * 120/120 = 1.3
    g = KnowledgeGraph()
    g.add_resume(
        record("js0", experiences=[exp("acme", "debugging java", months=120)]),
        lexicon, gazetteer,
    )
    assert g.jobseeker_skill_strength("js0", "java") == pytest.approx(1.3)


def test_strength_zero_evidence(lexicon, gazetteer):
    g = KnowledgeGraph()
    g.add_resume(record("js0", declared={"java"}), lexicon, gazetteer)
    assert g.jobseeker_skill_strength("js0", "java") == 0.0


def test_strength_duration_bonus_capped(lexicon, gazetteer):
    g = KnowledgeGraph()
    g.add_resume(
        record("js0", experiences=[exp("acme", "debugging java", months=600)]),
        lexicon, gazetteer,
    )
    assert g.jobseeker_skill_strength("js0", "java") == pytest.approx(1.3)
    assert g.skill_years("js0", "java") == pytest.approx(50.0)


def test_org_skill_strength_mean():
    gaz = parse_sentiment_records(
        [
            {"keyword": "alpha", "class": "t", "weight": 0.9},
            {"keyword": "beta", "class": "t", "weight": 0.3},
        ]
    )
    from talentgraph.lexicon import parse_skill_records

    lex = parse_skill_records(
        [{"canonical": "java", "category": "programming languages", "aliases": ["java"]}]
    )
    g = KnowledgeGraph()
    g.add_resume(
        record("js0", experiences=[exp("acme", "alpha java"), exp("acme", "beta java")]),
        lex, gaz,
    )
    assert g.org_skill_strength("acme", "java") == pytest.approx(0.6)


def test_org_skill_strength_singleton(lexicon, gazetteer):
    g = KnowledgeGraph()
    g.add_resume(
        record("js0", experiences=[exp("acme", "distributed java")]), lexicon, gazetteer
    )
    assert g.org_skill_strength("acme", "java") == pytest.approx(0.7)


def test_org_skill_strength_no_mentions(lexicon, gazetteer):
    g = KnowledgeGraph()
    g.add_resume(
        record("js0", declared={"java"}, experiences=[exp("acme", "made coffee")]),
        lexicon, gazetteer,
    )
    assert g.org_skill_strength("acme", "java") == 0.0


def test_skill_years(lexicon, gazetteer):
    g = KnowledgeGraph()
    g.add_resume(
        record("js0", experiences=[exp("acme", "robust java", months=96)]),
        lexicon, gazetteer,
    )
    assert g.skill_years("js0", "java") == pytest.approx(8.0)
    g.add_resume(record("js1", declared={"java"}), lexicon, gazetteer)
    assert g.skill_years("js1", "java") == 0.0


def test_skill_years_thirty_months(lexicon, gazetteer):
    g = KnowledgeGraph()
    g.add_resume(
        record("js0", experiences=[exp("acme", "robust java", months=30)]),
        lexicon, gazetteer,
    )
    assert g.skill_years("js0", "java") == pytest.approx(2.5)


def test_missing_node_is_error(lexicon, gazetteer):
    g = KnowledgeGraph()
    g.add_resume(record("js0", declared={"java"}), lexicon, gazetteer)
    with pytest.raises(NodeNotFoundError):
        g.jobseeker_skill_strength("nobody", "java")
    with pytest.raises(NodeNotFoundError):
        g.skill_years("js0", "cobol")
    with pytest.raises(NodeNotFoundError):
        g.org_skill_strength("acme", "java")


def test_multi_skill_equality_even_with_scoped_entries(lexicon, gazetteer):
    # "performance" has a c++-scoped weight; the per-description score must
    # still be identical on every mentioned skill's edges.
    g = KnowledgeGraph()
    g.add_resume(
        record("js0", experiences=[exp("acme", "c++ and java performance, robust")]),
        lexicon, gazetteer,
    )
    cpp = g.get_edge(EdgeKind.SKILL_PROJECT, "c++", "js0:p0")
    java = g.get_edge(EdgeKind.SKILL_PROJECT, "java", "js0:p0")
    assert cpp.weight_sum == java.weight_sum
    # scope-free lookup: performance 0.6, robust 0.5
    assert cpp.weight_sum == pytest.approx(0.55)


def test_duplicate_jobseeker_rejected(lexicon, gazetteer):
    g = KnowledgeGraph()
    g.add_resume(record("js0"), lexicon, gazetteer)
    with pytest.raises(DuplicateJobseekerError):
        g.add_resume(record("js0"), lexicon, gazetteer)


# -- merge --------------------------------------------------------------------

def test_merge_identity(lexicon, gazetteer, corpus_records):
    g = build_graph(corpus_records, lexicon, gazetteer)
    merged = g.merge(KnowledgeGraph())
    assert merged == g


def test_merge_commutative_on_strengths(lexicon, gazetteer, corpus_records):
    half = len(corpus_records) // 2
    a = build_graph(corpus_records[:half], lexicon, gazetteer)
    b = build_graph(corpus_records[half:], lexicon, gazetteer)
    ab, ba = a.merge(b), b.merge(a)
    for jobseeker in ab.jobseeker_ids():
        for skill in ab.skill_keys():
            assert ab.jobseeker_skill_strength(jobseeker, skill) == pytest.approx(
                ba.jobseeker_skill_strength(jobseeker, skill), abs=1e-12
            )


def test_merge_equals_sequential_ingestion(lexicon, gazetteer, corpus_records):
    sequential = build_graph(corpus_records, lexicon, gazetteer)
    a = build_graph(corpus_records[:2], lexicon, gazetteer)
    b = build_graph(corpus_records[2:], lexicon, gazetteer)
    merged = a.merge(b)
    assert set(merged.edges) == set(sequential.edges)
    for key, edge in sequential.edges.items():
        other = merged.edges[key]
        assert other.weight_sum == pytest.approx(edge.weight_sum, abs=1e-12)
        assert other.support_count == edge.support_count
        assert other.months_sum == edge.months_sum


def test_merge_config_mismatch(lexicon, gazetteer):
    a = KnowledgeGraph(ScoringConfig(duration_bonus_factor=0.5))
    b = KnowledgeGraph(ScoringConfig(duration_bonus_factor=0.9))
    with pytest.raises(GraphConfigError):
        a.merge(b)


def test_merge_overlapping_jobseekers(lexicon, gazetteer):
    a = KnowledgeGraph().add_resume(record("js0"), lexicon, gazetteer)
    b = KnowledgeGraph().add_resume(record("js0"), lexicon, gazetteer)
    with pytest.raises(DuplicateJobseekerError):
        a.merge(b)


# -- oracle equivalence (unit-sized) -------------------------------------------

def test_accumulators_match_oracle_on_fixture_corpus(
    lexicon, gazetteer, corpus_records, corpus_graph
):
    oracle = OracleGraph(corpus_records, lexicon, gazetteer, corpus_graph.config)
    got = {
        (kind.value, s, t): (e.weight_sum, e.support_count, e.months_sum)
        for (kind, s, t), e in corpus_graph.edges.items()
    }
    want = {key: tuple(acc) for key, acc in oracle.edges.items()}
    assert set(got) == set(want)
    for key in want:
        assert got[key][0] == pytest.approx(want[key][0], abs=1e-9), key
        assert got[key][1:] == want[key][1:], key


def test_order_invariance_sampled(lexicon, gazetteer, corpus_records):
    base = build_graph(corpus_records, lexicon, gazetteer)
    baseline = {
        (j, s): base.jobseeker_skill_strength(j, s)
        for j in base.jobseeker_ids()
        for s in base.skill_keys()
    }
    rng = random.Random(5)
    for _ in range(10):
        shuffled = list(corpus_records)
        rng.shuffle(shuffled)
        g = build_graph(shuffled, lexicon, gazetteer)
        for (j, s), want in baseline.items():
            assert g.jobseeker_skill_strength(j, s) == pytest.approx(want, abs=1e-9)


# -- persistence ----------------------------------------------------------------

def test_graph_round_trip(corpus_graph, tmp_path):
    path = tmp_path / "graph.json"
    corpus_graph.save(path)
    assert KnowledgeGraph.load(path) == corpus_graph


def test_graph_round_trip_preserves_config(lexicon, gazetteer, corpus_records, tmp_path):
    g = build_graph(
        corpus_records, lexicon, gazetteer,
        ScoringConfig(duration_bonus_factor=0.25, duration_cap_months=60),
    )
    path = tmp_path / "graph.json"
    g.save(path)
    loaded = KnowledgeGraph.load(path)
    assert loaded.config == g.config
    assert loaded == g


def test_from_dict_rejects_dangling_edge():
    doc = {
        "config": {"duration_bonus_factor": 0.5, "duration_cap_months": 120},
        "nodes": [{"kind": "jobseeker", "key": "js0", "attrs": {}}],
        "edges": [
            {"kind": "jobseeker_skill", "source": "js0", "target": "java",
             "weight_sum": 0.0, "support_count": 0, "months_sum": 0}
        ],
    }
    with pytest.raises(GraphFormatError) as err:
        KnowledgeGraph.from_dict(doc)
    assert "dangling" in str(err.value)


def test_from_dict_rejects_weight_without_support():
    doc = {
        "config": {"duration_bonus_factor": 0.5, "duration_cap_months": 120},
        "nodes": [
            {"kind": "jobseeker", "key": "js0", "attrs": {}},
            {"kind": "skill", "key": "java", "attrs": {}},
        ],
        "edges": [
            {"kind": "jobseeker_skill", "source": "js0", "target": "java",
             "weight_sum": 0.4, "support_count": 0, "months_sum": 0}
        ],
    }
    with pytest.raises(GraphFormatError):
        KnowledgeGraph.from_dict(doc)


def test_from_dict_rejects_unknown_kind():
    doc = {
        "config": {"duration_bonus_factor": 0.5, "duration_cap_months": 120},
        "nodes": [{"kind": "wizard", "key": "x", "attrs": {}}],
        "edges": [],
    }
    with pytest.raises(GraphFormatError, match=r"^nodes\[0\]: 'wizard' is not a valid NodeKind$"):
        KnowledgeGraph.from_dict(doc)


LOADABLE_DOC = {
    "config": {"duration_bonus_factor": 0.5, "duration_cap_months": 120},
    "nodes": [
        {"kind": "jobseeker", "key": "js0", "attrs": {"name": "Jo"}},
        {"kind": "skill", "key": "java", "attrs": {"category": "language"}},
    ],
    "edges": [
        {"kind": "jobseeker_skill", "source": "js0", "target": "java",
         "weight_sum": 0.5, "support_count": 1, "months_sum": 12},
    ],
}
NO_SUPPORT_EDGE = {"kind": "jobseeker_skill", "source": "js0", "target": "java",
                   "weight_sum": 0.0, "support_count": 0, "months_sum": 12}
TYPES = r"weight_sum must be a number, support_count and months_sum integers"

# (path to the replaced value in LOADABLE_DOC, new value, the whole message)
MALFORMED = {
    "nodes-not-a-list": (("nodes",), {"a": 1}, r"nodes: not a list"),
    "edges-not-a-list": (("edges",), 5, r"edges: not a list"),
    "list-source": (("edges", 0, "source"), [], r"edges\[0\]: source and target must be strings"),
    "object-target": (("edges", 0, "target"), {}, r"edges\[0\]: source and target must be strings"),
    "nan-weight": (("edges", 0, "weight_sum"), math.nan,
                   r"edges\[0\]: weight_sum nan above support_count 1"),
    "inf-weight": (("edges", 0, "weight_sum"), math.inf,
                   r"edges\[0\]: weight_sum inf above support_count 1"),
    "mean-weight-above-1": (("edges", 0, "weight_sum"), 1e6,
                            r"edges\[0\]: weight_sum 1000000.0 above support_count 1"),
    "bool-weight": (("edges", 0, "weight_sum"), True, rf"edges\[0\]: {TYPES}"),
    "string-weight": (("edges", 0, "weight_sum"), "0.5", rf"edges\[0\]: {TYPES}"),
    "fractional-support": (("edges", 0, "support_count"), 1.9, rf"edges\[0\]: {TYPES}"),
    "bool-support": (("edges", 0, "support_count"), True, rf"edges\[0\]: {TYPES}"),
    "fractional-months": (("edges", 0, "months_sum"), 1.9, rf"edges\[0\]: {TYPES}"),
    "bool-months": (("edges", 0, "months_sum"), True, rf"edges\[0\]: {TYPES}"),
    "months-without-support": (("edges", 0), NO_SUPPORT_EDGE,
                               r"edges\[0\]: months_sum without support"),
    "non-string-attr": (("nodes", 0, "attrs", "name"), 5,
                        r"nodes\[0\]: attr 'name' is not a string"),
    "fractional-cap": (("config", "duration_cap_months"), 1.9,
                       r"bad config: duration_cap_months 1.9 is not an integer"),
    "nan-bonus-factor": (("config", "duration_bonus_factor"), math.nan,
                         r"bad config: duration_bonus_factor must be finite"),
    "inf-bonus-factor": (("config", "duration_bonus_factor"), math.inf,
                         r"bad config: duration_bonus_factor must be finite"),
}


def replaced(doc: dict, path: tuple, value) -> dict:
    """A deep copy of ``doc`` with the value at ``path`` replaced."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    holder = doc
    for step in parents:
        holder = holder[step]
    holder[last] = value
    return doc


def test_loadable_doc_loads():
    graph = KnowledgeGraph.from_dict(LOADABLE_DOC)
    assert graph.jobseeker_skill_parts("js0", "java") == (0.5, 0.05, 1.0, 1)


@pytest.mark.parametrize("path, value, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_from_dict_rejects_malformed_document(path, value, message):
    with pytest.raises(GraphFormatError, match=f"^{message}$"):
        KnowledgeGraph.from_dict(replaced(LOADABLE_DOC, path, value))


REPLACEMENTS = [None, [], {}, "x", math.nan, math.inf, -1, 1.9, True, 1e6]


@settings(max_examples=200, deadline=None)
@given(records=record_sets(), data=st.data())
def test_from_dict_round_trips_and_rejects_any_replaced_field(records, data):
    graph = build_graph(records, LEXICON, GAZETTEER)
    doc = graph.to_dict()
    loaded = KnowledgeGraph.from_dict(doc)
    assert loaded == graph
    # Nodes and edges iterate in document order.
    assert list(loaded.nodes) == [NodeId(NodeKind(n["kind"]), n["key"]) for n in doc["nodes"]]
    assert list(loaded.edges) == [
        (EdgeKind(e["kind"]), e["source"], e["target"]) for e in doc["edges"]
    ]
    paths = [
        (section, i, name)
        for section in ("nodes", "edges")
        for i, rec in enumerate(doc[section])
        for name in rec
    ] + [("nodes", i, "attrs", name) for i, n in enumerate(doc["nodes"]) for name in n["attrs"]]
    assume(paths)
    path = data.draw(st.sampled_from(paths))
    doc = replaced(doc, path, data.draw(st.sampled_from(REPLACEMENTS)))
    try:
        KnowledgeGraph.from_dict(doc)
    except GraphFormatError:
        pass  # any other exception fails the test


def test_strength_bounds(lexicon, gazetteer, corpus_graph):
    top = 1.0 + corpus_graph.config.duration_bonus_factor
    for jobseeker in corpus_graph.jobseeker_ids():
        for skill in corpus_graph.skill_keys():
            sentiment, bonus, _, _ = corpus_graph.jobseeker_skill_parts(jobseeker, skill)
            assert 0.0 <= sentiment <= 1.0
            assert 0.0 <= sentiment + bonus <= top
