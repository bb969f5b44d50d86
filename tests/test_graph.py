from __future__ import annotations

import copy
import math
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from talentgraph._io import dumps
from talentgraph.errors import (
    DuplicateJobseekerError,
    GraphConfigError,
    GraphFormatError,
    NodeNotFoundError,
)
from talentgraph.graph import (
    MAX_DURATION_MONTHS,
    WEIGHT_UNITS,
    EdgeKind,
    KnowledgeGraph,
    NodeId,
    NodeKind,
    ScoringConfig,
    project_key,
)
from talentgraph.lexicon import parse_sentiment_records, parse_skill_records
from talentgraph.parser import ExperienceEntry, ResumeRecord

from conftest import build_graph, org_skill_strength, skill_years
from oracle import OracleGraph, naive_graph_fault
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
    assert skill_years(g, "js0", "java") == pytest.approx(50.0)


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
    assert org_skill_strength(g, "acme", "java") == pytest.approx(0.6)


def test_org_skill_strength_singleton(lexicon, gazetteer):
    g = KnowledgeGraph()
    g.add_resume(
        record("js0", experiences=[exp("acme", "distributed java")]), lexicon, gazetteer
    )
    assert org_skill_strength(g, "acme", "java") == pytest.approx(0.7)


def test_org_skill_strength_no_mentions(lexicon, gazetteer):
    g = KnowledgeGraph()
    g.add_resume(
        record("js0", declared={"java"}, experiences=[exp("acme", "made coffee")]),
        lexicon, gazetteer,
    )
    assert org_skill_strength(g, "acme", "java") == 0.0


def test_skill_years(lexicon, gazetteer):
    g = KnowledgeGraph()
    g.add_resume(
        record("js0", experiences=[exp("acme", "robust java", months=96)]),
        lexicon, gazetteer,
    )
    assert skill_years(g, "js0", "java") == pytest.approx(8.0)
    g.add_resume(record("js1", declared={"java"}), lexicon, gazetteer)
    assert skill_years(g, "js1", "java") == 0.0


def test_skill_years_thirty_months(lexicon, gazetteer):
    g = KnowledgeGraph()
    g.add_resume(
        record("js0", experiences=[exp("acme", "robust java", months=30)]),
        lexicon, gazetteer,
    )
    assert skill_years(g, "js0", "java") == pytest.approx(2.5)


def test_missing_node_is_error(lexicon, gazetteer):
    g = KnowledgeGraph()
    g.add_resume(record("js0", declared={"java"}), lexicon, gazetteer)
    with pytest.raises(NodeNotFoundError):
        g.jobseeker_skill_strength("nobody", "java")
    with pytest.raises(NodeNotFoundError):
        g.jobseeker_skill_strength("js0", "cobol")


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


def test_merge_rejects_conflicting_node_attrs(gazetteer):
    """Keeping either side's attrs would make the bytes depend on merge order."""
    def graph(jobseeker_id, category):
        lexicon = parse_skill_records([{"canonical": "java", "category": category}])
        return KnowledgeGraph().add_resume(record(jobseeker_id, {"java"}), lexicon, gazetteer)

    a, b = graph("js0", "languages"), graph("js1", "jvm")
    message = ("attrs mismatch on skill 'java': "
               "{'category': 'languages'} vs {'category': 'jvm'}")
    with pytest.raises(GraphConfigError, match=f"^{re.escape(message)}$"):
        a.merge(b)
    with pytest.raises(GraphConfigError, match="'jvm'} vs {'category': 'languages'}$"):
        b.merge(a)
    assert a.merge(graph("js1", "languages")) == graph("js1", "languages").merge(a)


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


SENTIMENT_WORDS = ["design", "scalable", "robust", "debugging", "distributed",
                   "lead", "cohesive", "align", "hire", "performance", "the"]


@st.composite
def shared_edge_records(draw) -> list[ResumeRecord]:
    """Many resumes at one organization that all mention java, each with its
    own mix of sentiment words: one org_skill edge sums many different scores."""
    def experience():
        words = draw(st.lists(st.sampled_from(SENTIMENT_WORDS), min_size=1, max_size=5))
        return exp("acme", " ".join(["java", *words]), months=draw(st.integers(0, 40)))

    count = draw(st.integers(1, 40))
    return [record(f"js{i:02d}", experiences=[experience()]) for i in range(count)]


def merge_tree(records, data):
    """A graph built from ``records`` by a random binary tree of merges."""
    if len(records) > 1 and data.draw(st.booleans()):
        cut = data.draw(st.integers(1, len(records) - 1))
        return merge_tree(records[:cut], data).merge(merge_tree(records[cut:], data))
    return build_graph(records, LEXICON, GAZETTEER)


@settings(max_examples=100, deadline=None)
@given(records=shared_edge_records(), data=st.data())
def test_graph_bytes_independent_of_order_and_merge_tree(records, data):
    want = dumps(build_graph(records, LEXICON, GAZETTEER).to_dict())
    shuffled = data.draw(st.permutations(records))
    assert dumps(build_graph(shuffled, LEXICON, GAZETTEER).to_dict()) == want
    assert dumps(merge_tree(shuffled, data).to_dict()) == want


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


@pytest.mark.parametrize("factor, cap, message", [
    (0.5, 1.5, "duration_cap_months 1.5 is not an integer"),
    (0.5, True, "duration_cap_months True is not an integer"),
    (True, 120, "duration_bonus_factor True is not a number"),
    ("0.5", 120, "duration_bonus_factor '0.5' is not a number"),
    (10**400, 120, r"duration_bonus_factor must be <= 1e6"),
], ids=["fractional-cap", "bool-cap", "bool-factor", "string-factor", "huge-int-factor"])
def test_config_rejects_what_a_graph_file_cannot_hold(factor, cap, message):
    with pytest.raises(GraphConfigError, match=f"^{message}$"):
        ScoringConfig(factor, cap)


def test_integer_bonus_factor_saves_as_the_float_it_loads_as(tmp_path):
    path = tmp_path / "graph.json"
    KnowledgeGraph(ScoringConfig(1, 120)).save(path)
    saved = path.read_bytes()
    assert b'"duration_bonus_factor": 1.0,' in saved
    KnowledgeGraph.load(path).save(path)
    assert path.read_bytes() == saved


CONFIG = {"duration_bonus_factor": 0.5, "duration_cap_months": 120}


JS_SKILL = "edges/jobseeker_skill"
E0 = r"edges/jobseeker_skill\[0\]"  # the locator of JS_SKILL's first row
N0 = r"nodes/jobseeker\[0\]"


def test_from_dict_rejects_dangling_edge():
    doc = {"schema_version": 3, "config": CONFIG, "nodes/jobseeker": [["js0", {}]],
           JS_SKILL: [["js0", "java", 0, 0, 0]]}
    with pytest.raises(GraphFormatError, match=rf"^{E0}: dangling target 'java'$"):
        KnowledgeGraph.from_dict(doc)


def test_from_dict_rejects_weight_without_support():
    doc = {"schema_version": 3, "config": CONFIG,
           "nodes/jobseeker": [["js0", {}]], "nodes/skill": [["java", {}]],
           JS_SKILL: [["js0", "java", WEIGHT_UNITS * 2 // 5, 0, 0]]}
    with pytest.raises(GraphFormatError, match=rf"^{E0}: weight_units without support$"):
        KnowledgeGraph.from_dict(doc)


def test_from_dict_rejects_unknown_kind():
    doc = {"schema_version": 3, "config": CONFIG, "nodes/wizard": [["x", {}]]}
    with pytest.raises(GraphFormatError, match=r"^unknown section 'nodes/wizard'$"):
        KnowledgeGraph.from_dict(doc)


LOADABLE_DOC = {
    "schema_version": 3,
    "config": CONFIG,
    "nodes/jobseeker": [["js0", {"name": "Jo"}]],
    "nodes/skill": [["java", {"category": "language"}]],
    JS_SKILL: [["js0", "java", WEIGHT_UNITS // 2, 1, 12]],
}
NO_SUPPORT_ROW = ["js0", "java", 0, 0, 12]
TYPES = r"weight_units, support_count and months_sum must be integers"
EDGE_ROW = r"not a \[source, target, weight_units, support_count, months_sum\] row"
NODE_ROW = r"not a \[key, attrs\] row"
V1_EDGE = {"kind": "jobseeker_skill", "source": "js0", "target": "java",
           "weight_sum": 0.5, "support_count": 1, "months_sum": 12}
V2_EDGE = ["jobseeker_skill", "js0", "java", WEIGHT_UNITS // 2, 1, 12]

# (path to the replaced value in LOADABLE_DOC, new value, the whole message)
MALFORMED = {
    "nodes-not-a-list": (("nodes/jobseeker",), {"a": 1}, r"nodes/jobseeker: not a list"),
    "edges-not-a-list": ((JS_SKILL,), 5, r"edges/jobseeker_skill: not a list"),
    "list-source": ((JS_SKILL, 0, 0), [], rf"{E0}: source and target must be strings"),
    "object-target": ((JS_SKILL, 0, 1), {}, rf"{E0}: source and target must be strings"),
    "nan-weight": ((JS_SKILL, 0, 2), math.nan, rf"{E0}: {TYPES}"),
    "inf-weight": ((JS_SKILL, 0, 2), math.inf, rf"{E0}: {TYPES}"),
    "mean-weight-above-1": ((JS_SKILL, 0, 2), WEIGHT_UNITS + 1,
                            rf"{E0}: weight_units {WEIGHT_UNITS + 1} above "
                            r"support_count 1 \* 2\*\*64"),
    "bool-weight": ((JS_SKILL, 0, 2), True, rf"{E0}: {TYPES}"),
    "string-weight": ((JS_SKILL, 0, 2), "0.5", rf"{E0}: {TYPES}"),
    "float-weight": ((JS_SKILL, 0, 2), 0.5, rf"{E0}: {TYPES}"),
    "fractional-support": ((JS_SKILL, 0, 3), 1.9, rf"{E0}: {TYPES}"),
    "bool-support": ((JS_SKILL, 0, 3), True, rf"{E0}: {TYPES}"),
    "fractional-months": ((JS_SKILL, 0, 4), 1.9, rf"{E0}: {TYPES}"),
    "bool-months": ((JS_SKILL, 0, 4), True, rf"{E0}: {TYPES}"),
    "negative-months": ((JS_SKILL, 0, 4), -1, rf"{E0}: negative accumulator"),
    "months-without-support": ((JS_SKILL, 0), NO_SUPPORT_ROW,
                               rf"{E0}: months_sum without support"),
    "months-above-longest-duration": ((JS_SKILL, 0, 4), MAX_DURATION_MONTHS + 1,
                                      rf"{E0}: months_sum {MAX_DURATION_MONTHS + 1} "
                                      rf"above support_count 1 \* {MAX_DURATION_MONTHS}"),
    "months-too-large-for-a-float": ((JS_SKILL, 0, 4), 10**400,
                                     rf"{E0}: months_sum 1{'0' * 400} above "
                                     rf"support_count 1 \* {MAX_DURATION_MONTHS}"),
    "short-edge-row": ((JS_SKILL, 0), LOADABLE_DOC[JS_SKILL][0][:4], rf"{E0}: {EDGE_ROW}"),
    "long-edge-row": ((JS_SKILL, 0), LOADABLE_DOC[JS_SKILL][0] + [0], rf"{E0}: {EDGE_ROW}"),
    "v1-edge-record": ((JS_SKILL, 0), V1_EDGE, rf"{E0}: {EDGE_ROW}"),
    "v2-edge-row": ((JS_SKILL, 0), V2_EDGE, rf"{E0}: {EDGE_ROW}"),
    "v1-node-record": (("nodes/jobseeker", 0), {"kind": "jobseeker", "key": "js0", "attrs": {}},
                       rf"{N0}: {NODE_ROW}"),
    "v2-node-row": (("nodes/jobseeker", 0), ["jobseeker", "js0", {}], rf"{N0}: {NODE_ROW}"),
    "string-node-row": (("nodes/jobseeker", 0), "abc", rf"{N0}: {NODE_ROW}"),
    "non-string-attr": (("nodes/jobseeker", 0, 1, "name"), 5,
                        rf"{N0}: attr 'name' is not a string"),
    "edge-in-another-kinds-section": (("edges/org_skill",), LOADABLE_DOC[JS_SKILL],
                                      r"edges/org_skill\[0\]: dangling source 'js0'"),
    "v2-nodes-list": (("nodes",), [], r"unknown section 'nodes'"),
    "misspelled-section": (("edgse",), [], r"unknown section 'edgse'"),
    "misspelled-kind": (("edges/org_skil",), [], r"unknown section 'edges/org_skil'"),
    "unknown-config-field": (("config", "extra"), 1, r"bad config: unknown field 'extra'"),
    "list-tool-version": (("config", "tool_version"), ["not", "a", "version"],
                          r"bad config: tool_version \['not', 'a', 'version'\] is not a string"),
    "fractional-cap": (("config", "duration_cap_months"), 1.9,
                       r"bad config: duration_cap_months 1.9 is not an integer"),
    "nan-bonus-factor": (("config", "duration_bonus_factor"), math.nan,
                         r"bad config: duration_bonus_factor must be finite"),
    "inf-bonus-factor": (("config", "duration_bonus_factor"), math.inf,
                         r"bad config: duration_bonus_factor must be finite"),
    "huge-bonus-factor": (("config", "duration_bonus_factor"), 10**400,
                          r"bad config: duration_bonus_factor must be <= 1e6"),
    "bonus-factor-above-1e6": (("config", "duration_bonus_factor"), 1e6 + 1,
                               r"bad config: duration_bonus_factor must be <= 1e6"),
    "cap-above-2**53": (("config", "duration_cap_months"), 2**53 + 1,
                        r"bad config: duration_cap_months must be <= 2\*\*53"),
    "cap-of-401-digits": (("config", "duration_cap_months"), 10**400,
                          r"bad config: duration_cap_months must be <= 2\*\*53"),
    "support-above-2**53": ((JS_SKILL, 0, 3), 2**53 + 1,
                            rf"{E0}: support_count {2**53 + 1} above 2\*\*53"),
    "support-too-large-for-a-float": ((JS_SKILL, 0, 3), 10**330,
                                      rf"{E0}: support_count 1{'0' * 330} above 2\*\*53"),
}


def replaced(doc: dict, path: tuple, value) -> dict:
    """A deep copy of ``doc`` with the value at ``path`` replaced (or added)."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    holder = doc
    for step in parents:
        holder = holder[step]
    holder[last] = value
    return doc


def test_loadable_doc_loads():
    assert "tool_version" not in LOADABLE_DOC["config"]  # the field is optional
    graph = KnowledgeGraph.from_dict(LOADABLE_DOC)
    edge = graph.get_edge(EdgeKind.JOBSEEKER_SKILL, "js0", "java")
    assert graph.edge_parts(edge) == (0.5, 0.05, 1.0, 1)


def test_loadable_doc_at_every_bound_gives_finite_strengths():
    doc = replaced(LOADABLE_DOC, (JS_SKILL, 0, 3), 2**53)
    doc = replaced(doc, ("config", "duration_cap_months"), 2**53)
    graph = KnowledgeGraph.from_dict(replaced(doc, ("config", "duration_bonus_factor"), 1e6))
    edge = graph.get_edge(EdgeKind.JOBSEEKER_SKILL, "js0", "java")
    assert all(map(math.isfinite, graph.edge_parts(edge)))


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_load_rejects_nan_and_infinity_tokens(tmp_path, token):
    path = tmp_path / "graph.json"
    units = str(WEIGHT_UNITS // 2)
    text = dumps(LOADABLE_DOC)
    assert text.count(units) == 1
    path.write_text(text.replace(units, token), encoding="utf-8")
    with pytest.raises(GraphFormatError, match=rf"^{E0}: {TYPES}$"):
        KnowledgeGraph.load(path)


@pytest.mark.parametrize("path, value, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_from_dict_rejects_malformed_document(path, value, message):
    with pytest.raises(GraphFormatError, match=f"^{message}$"):
        KnowledgeGraph.from_dict(replaced(LOADABLE_DOC, path, value))


REPLACEMENTS = [None, [], {}, "x", math.nan, math.inf, -1, 1.9, True, 1e6, 3 * WEIGHT_UNITS]
NODE_SECTIONS = [f"nodes/{kind.value}" for kind in sorted(NodeKind)]
EDGE_SECTIONS = [f"edges/{kind.value}" for kind in sorted(EdgeKind)]


@settings(max_examples=200, deadline=None)
@given(records=record_sets(), data=st.data())
def test_from_dict_round_trips_and_rejects_any_replaced_field(records, data):
    graph = build_graph(records, LEXICON, GAZETTEER)
    doc = graph.to_dict()
    assert set(doc) == {"schema_version", "config", *NODE_SECTIONS, *EDGE_SECTIONS}
    loaded = KnowledgeGraph.from_dict(doc)
    assert loaded == graph
    # Nodes and edges iterate in document order: node sections, then edge
    # sections, each in kind order.
    assert list(loaded.nodes) == [NodeId(kind, key) for kind in sorted(NodeKind)
                                  for key, _ in doc[f"nodes/{kind.value}"]]
    assert list(loaded.edges) == [(kind, source, target) for kind in sorted(EdgeKind)
                                  for source, target, *_ in doc[f"edges/{kind.value}"]]
    paths = [
        (section, i, j)
        for section in NODE_SECTIONS + EDGE_SECTIONS
        for i, row in enumerate(doc[section])
        for j in range(len(row))
    ] + [(section, i, 1, name) for section in NODE_SECTIONS
         for i, (_, attrs) in enumerate(doc[section]) for name in attrs]
    assume(paths)
    path = data.draw(st.sampled_from(paths))
    assert_loads_as_the_oracle_says(replaced(doc, path, data.draw(st.sampled_from(REPLACEMENTS))))


def assert_loads_as_the_oracle_says(doc: dict) -> None:
    """``from_dict`` rejects ``doc`` with exactly the oracle's message, or
    loads it when the oracle finds no fault."""
    fault = naive_graph_fault(doc)
    if fault is None:
        KnowledgeGraph.from_dict(doc)
        return
    with pytest.raises(GraphFormatError) as err:
        KnowledgeGraph.from_dict(doc)
    assert str(err.value) == fault


@pytest.mark.parametrize("path, value, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_oracle_names_each_malformed_documents_fault(path, value, message):
    assert re.fullmatch(message, naive_graph_fault(replaced(LOADABLE_DOC, path, value)))


# Where a broken row or section may move: every section, misspellings of two
# and the config's own key, which the config check meets first.
SECTION_NAMES = NODE_SECTIONS + EDGE_SECTIONS + ["edges/org_skil", "nodes", "config"]


def accumulators(data) -> list[int]:
    """[weight_units, support_count, months_sum], each at, near or just past a bound."""
    count = data.draw(st.sampled_from([-1, 0, 1, 2, 2**53, 2**53 + 1]))
    top_units, top_months = max(count, 0) * WEIGHT_UNITS, max(count, 0) * MAX_DURATION_MONTHS
    units = data.draw(st.sampled_from([-1, 0, 1, top_units, top_units + 1]))
    return [units, count, data.draw(st.sampled_from([-1, 0, 1, top_months, top_months + 1]))]


def broken(doc: dict, section: str, i: int, keys: list[str], data) -> dict:
    """``doc`` with row ``i`` of ``section`` duplicated or moved into another
    (or an unknown) section, or its node key or an edge endpoint replaced by
    one of ``keys``, or one of its fields or an edge's accumulators replaced."""
    row = doc[section][i]
    how = data.draw(st.sampled_from(
        ["duplicate", "move", "key", "field"]
        + (["accumulators"] if section in EDGE_SECTIONS else [])
    ))
    if how == "duplicate":
        at = data.draw(st.integers(0, len(doc[section])))
        return replaced(doc, (section,), doc[section][:at] + [row] + doc[section][at:])
    if how == "move":
        other = data.draw(st.sampled_from(SECTION_NAMES))
        rows = doc.get(other) if isinstance(doc.get(other), list) else []
        return replaced(doc, (other,), rows + [row])
    if how == "key":
        field = 0 if section in NODE_SECTIONS else data.draw(st.sampled_from([0, 1]))
        return replaced(doc, (section, i, field), data.draw(st.sampled_from(keys)))
    if how == "accumulators":
        return replaced(doc, (section, i), row[:2] + accumulators(data))
    field = data.draw(st.integers(0, len(row) - 1))
    return replaced(doc, (section, i, field), data.draw(st.sampled_from(REPLACEMENTS)))


@settings(max_examples=200, deadline=None)
@given(records=record_sets(), data=st.data())
def test_from_dict_reports_the_first_fault_the_oracle_finds(records, data):
    """Up to three faults in one row, so that which one is reported counts."""
    doc = build_graph(records, LEXICON, GAZETTEER).to_dict()
    sections = [section for section in NODE_SECTIONS + EDGE_SECTIONS if doc[section]]
    assume(sections)
    section = data.draw(st.sampled_from(sections))
    i = data.draw(st.integers(0, len(doc[section]) - 1))
    keys = sorted({key for name in NODE_SECTIONS for key, _ in doc[name]}) + ["nowhere"]
    for _ in range(data.draw(st.integers(1, 3))):
        doc = broken(doc, section, i, keys, data)
    assert_loads_as_the_oracle_says(doc)


# Keys, a title and a name with the characters dot quotes.
JS, ORG, PROJECT = 'js"0\\', 'Acme "Q" \\ Co', 'js"0\\:p0'
QUOTED_DOC = {
    "schema_version": 3,
    "config": CONFIG,
    "nodes/jobseeker": [[JS, {"name": 'Jo "J" \\ Doe'}]],
    "nodes/organization": [[ORG, {}]],
    "nodes/project": [[PROJECT, {"title": 'Say "hi" \\ now'}]],
    "nodes/skill": [["c++", {"category": ""}]],
    "edges/jobseeker_project": [[JS, PROJECT, 0, 1, 0]],
    JS_SKILL: [[JS, "c++", WEIGHT_UNITS // 2, 1, 12]],
    "edges/org_skill": [[ORG, "c++", WEIGHT_UNITS // 2, 1, 0]],
    "edges/project_org": [[PROJECT, ORG, 0, 1, 0]],
    "edges/skill_project": [["c++", PROJECT, WEIGHT_UNITS // 2, 1, 0]],
}


def test_to_dot_quotes_keys_and_labels():
    assert KnowledgeGraph.from_dict(QUOTED_DOC).to_dot().splitlines() == [
        r'digraph talentgraph {',
        r'  "jobseeker:js\"0\\" [label="Jo \"J\" \\ Doe", kind="jobseeker"];',
        r'  "organization:Acme \"Q\" \\ Co" [label="Acme \"Q\" \\ Co", kind="organization"];',
        r'  "project:js\"0\\:p0" [label="Say \"hi\" \\ now", kind="project"];',
        r'  "skill:c++" [label="c++", kind="skill"];',
        r'  "jobseeker:js\"0\\" -> "project:js\"0\\:p0" [label="jobseeker_project 0.000"];',
        r'  "jobseeker:js\"0\\" -> "skill:c++" [label="jobseeker_skill 0.500"];',
        r'  "organization:Acme \"Q\" \\ Co" -> "skill:c++" [label="org_skill 0.500"];',
        r'  "project:js\"0\\:p0" -> "organization:Acme \"Q\" \\ Co" [label="project_org 0.000"];',
        r'  "skill:c++" -> "project:js\"0\\:p0" [label="skill_project 0.500"];',
        r'}',
    ]


def test_strength_bounds(lexicon, gazetteer, corpus_graph):
    top = 1.0 + corpus_graph.config.duration_bonus_factor
    for jobseeker in corpus_graph.jobseeker_ids():
        for skill in corpus_graph.skill_keys():
            edge = corpus_graph.get_edge(EdgeKind.JOBSEEKER_SKILL, jobseeker, skill)
            sentiment, bonus, _, _ = corpus_graph.edge_parts(edge)
            assert 0.0 <= sentiment <= 1.0
            assert 0.0 <= sentiment + bonus <= top
