from __future__ import annotations

import copy
import dataclasses
import json
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from talentgraph import __version__
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
from oracle import (OracleGraph, naive_derived_edges, naive_extract_skills, naive_graph_fault,
                    naive_score)
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


def test_node_ids_compare_hash_and_print_by_value(corpus_graph):
    """``NodeId`` is slotted and not frozen, but it is a value: a dict key by
    kind and key, with the repr a frozen dataclass had."""
    a, b = NodeId(NodeKind.SKILL, "c++"), NodeId(NodeKind.SKILL, "c++")
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != NodeId(NodeKind.JOBSEEKER, "c++") and a != ("skill", "c++")
    assert corpus_graph.nodes[a] is corpus_graph.nodes[b]
    assert repr(a) == "NodeId(kind=<NodeKind.SKILL: 'skill'>, key='c++')"
    assert not hasattr(a, "__dict__")


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
    # A gazetteer refuses a skill-scoped entry (see tests/test_lexicon.py), so
    # the per-description score is identical on every mentioned skill's edges.
    g = KnowledgeGraph()
    g.add_resume(
        record("js0", experiences=[exp("acme", "c++ and java performance, robust")]),
        lexicon, gazetteer,
    )
    cpp = g.get_edge(EdgeKind.SKILL_PROJECT, "c++", "js0:p0")
    java = g.get_edge(EdgeKind.SKILL_PROJECT, "java", "js0:p0")
    assert cpp.weight_sum == java.weight_sum
    # performance 0.6, robust 0.5
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
    # A skill row that no jobseeker references is kept, on either side.
    doc = g.to_dict()
    doc["skills"].append(["zz-unreferenced", {"category": "misc"}])
    loaded = KnowledgeGraph.from_dict(doc)
    assert loaded.merge(KnowledgeGraph()) == loaded == KnowledgeGraph().merge(loaded)


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
    assert merged == sequential
    assert dumps(merged.to_dict()) == dumps(sequential.to_dict())


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


S0 = r"skills\[0\]"
J0 = r"jobseekers\[0\]"
P0 = r"jobseekers\[0\]\.projects\[0\]"  # the locator of the first project row
PROJECT = ("jobseekers", 0, 3, 0)  # the path to the first project row


def test_from_dict_rejects_dangling_edge():
    """A project's skill edges need the skill's row."""
    doc = {"schema_version": 4, "config": CONFIG,
           "jobseekers": [["js0", "Jo", [], [["Ledger", "acme", 12, 0, ["java"]]]]]}
    with pytest.raises(GraphFormatError, match=rf"^{P0}: unknown skill 'java'$"):
        KnowledgeGraph.from_dict(doc)


def test_from_dict_rejects_weight_without_support():
    doc = {"schema_version": 4, "config": CONFIG, "skills": [["java", {}]],
           "jobseekers": [["js0", "Jo", ["java"], [["Ledger", "acme", 0, WEIGHT_UNITS * 2 // 5, []]]]]}
    with pytest.raises(GraphFormatError, match=rf"^{P0}: score_units without a mentioned skill$"):
        KnowledgeGraph.from_dict(doc)


def test_from_dict_rejects_unknown_kind():
    doc = {"schema_version": 4, "config": CONFIG, "nodes/wizard": [["x", {}]]}
    with pytest.raises(GraphFormatError, match=r"^unknown section 'nodes/wizard'$"):
        KnowledgeGraph.from_dict(doc)


LOADABLE_DOC = {
    "schema_version": 4,
    "config": CONFIG,
    "skills": [["java", {"category": "language"}]],
    "jobseekers": [["js0", "Jo", [], [["Ledger", "acme", 12, WEIGHT_UNITS // 2, ["java"]]]]],
}
TYPES = r"months and score_units must be integers"
STRINGS = r"title and organization must be strings, skills a list"
FIELDS = r"id and name must be strings, declared and projects lists"
PROJECT_ROW = r"not a \[title, organization, months, score_units, skills\] row"
NODE_ROW = r"not a \[key, attrs\] row"
V1_EDGE = {"kind": "jobseeker_skill", "source": "js0", "target": "java",
           "weight_sum": 0.5, "support_count": 1, "months_sum": 12}
V2_EDGE = ["jobseeker_skill", "js0", "java", WEIGHT_UNITS // 2, 1, 12]
V3_EDGE = ["js0", "java", WEIGHT_UNITS // 2, 1, 12]
MONTHS = rf"outside \[0, {MAX_DURATION_MONTHS}\]"

# (path to the replaced value in LOADABLE_DOC, new value, the whole message).
# Edges are rebuilt from project rows, so the "edge" and "weight" cases break
# a project row or its list, and the "node" cases a skill row. Support counts
# are rebuilt from the projects' skill lists, so the "support" cases put a
# count where such a list belongs.
MALFORMED = {
    "nodes-not-a-list": (("skills",), {"a": 1}, r"skills: not a list"),
    "jobseekers-not-a-list": (("jobseekers",), {}, r"jobseekers: not a list"),
    "edges-not-a-list": (("jobseekers", 0, 3), 5, rf"{J0}: {FIELDS}"),
    "declared-not-a-list": (("jobseekers", 0, 2), "java", rf"{J0}: {FIELDS}"),
    "number-name": (("jobseekers", 0, 1), 5, rf"{J0}: {FIELDS}"),
    "short-jobseeker-row": (("jobseekers", 0), ["js0", "Jo", []],
                            rf"{J0}: not an \[id, name, declared, projects\] row"),
    "duplicate-jobseeker": (("jobseekers", 1), LOADABLE_DOC["jobseekers"][0],
                            r"jobseekers\[1\]: duplicate jobseeker 'js0'"),
    "list-source": ((*PROJECT, 1), [], rf"{P0}: {STRINGS}"),
    "number-title": ((*PROJECT, 0), 7, rf"{P0}: {STRINGS}"),
    "object-target": ((*PROJECT, 4, 0), {}, rf"{P0}: unknown skill \{{\}}"),
    "skills-not-a-list": ((*PROJECT, 4), "java", rf"{P0}: {STRINGS}"),
    "bool-support": ((*PROJECT, 4), True, rf"{P0}: {STRINGS}"),
    "fractional-support": ((*PROJECT, 4), 1.9, rf"{P0}: {STRINGS}"),
    "support-above-2**53": ((*PROJECT, 4), 2**53 + 1, rf"{P0}: {STRINGS}"),
    "support-too-large-for-a-float": ((*PROJECT, 4), 10**330, rf"{P0}: {STRINGS}"),
    "nan-weight": ((*PROJECT, 3), math.nan, rf"{P0}: {TYPES}"),
    "inf-weight": ((*PROJECT, 3), math.inf, rf"{P0}: {TYPES}"),
    "mean-weight-above-1": ((*PROJECT, 3), WEIGHT_UNITS + 1,
                            rf"{P0}: score_units {WEIGHT_UNITS + 1} outside \[0, 2\*\*64\]"),
    "negative-weight": ((*PROJECT, 3), -1, rf"{P0}: score_units -1 outside \[0, 2\*\*64\]"),
    "bool-weight": ((*PROJECT, 3), True, rf"{P0}: {TYPES}"),
    "string-weight": ((*PROJECT, 3), "0.5", rf"{P0}: {TYPES}"),
    "float-weight": ((*PROJECT, 3), 0.5, rf"{P0}: {TYPES}"),
    "weight-without-skills": ((*PROJECT, 4), [], rf"{P0}: score_units without a mentioned skill"),
    "fractional-months": ((*PROJECT, 2), 1.9, rf"{P0}: {TYPES}"),
    "bool-months": ((*PROJECT, 2), True, rf"{P0}: {TYPES}"),
    "negative-months": ((*PROJECT, 2), -1, rf"{P0}: months -1 {MONTHS}"),
    "months-above-longest-duration": ((*PROJECT, 2), MAX_DURATION_MONTHS + 1,
                                      rf"{P0}: months {MAX_DURATION_MONTHS + 1} {MONTHS}"),
    "months-too-large-for-a-float": ((*PROJECT, 2), 10**400, rf"{P0}: months 1{'0' * 400} {MONTHS}"),
    "unknown-skill": ((*PROJECT, 4, 0), "cobol", rf"{P0}: unknown skill 'cobol'"),
    "repeated-skill": ((*PROJECT, 4, 1), "java", rf"{P0}: skill 'java' is listed twice"),
    # The first fault in list order, as the per-skill scan finds it behind the set checks.
    "repeated-skill-before-unknown": ((*PROJECT, 4), ["java", "java", "cobol"],
                                      rf"{P0}: skill 'java' is listed twice"),
    "unhashable-skill": ((*PROJECT, 4), [[], "java"], rf"{P0}: unknown skill \[\]"),
    "unknown-declared-skill": (("jobseekers", 0, 2, 0), "cobol",
                               rf"{J0}\.declared: unknown skill 'cobol'"),
    "declared-and-mentioned": (("jobseekers", 0, 2, 0), "java",
                               rf"{J0}\.declared: skill 'java' is listed twice or "
                               "mentioned by a project"),
    "short-edge-row": (PROJECT, LOADABLE_DOC["jobseekers"][0][3][0][:4], rf"{P0}: {PROJECT_ROW}"),
    "long-edge-row": (PROJECT, LOADABLE_DOC["jobseekers"][0][3][0] + [0], rf"{P0}: {PROJECT_ROW}"),
    "v1-edge-record": (PROJECT, V1_EDGE, rf"{P0}: {PROJECT_ROW}"),
    "v2-edge-row": (PROJECT, V2_EDGE, rf"{P0}: {PROJECT_ROW}"),
    "edge-in-another-kinds-section": (("jobseekers", 0), V3_EDGE,
                                      rf"{J0}: not an \[id, name, declared, projects\] row"),
    "v1-node-record": (("skills", 0), {"kind": "skill", "key": "java", "attrs": {}},
                       rf"{S0}: {NODE_ROW}"),
    "v2-node-row": (("skills", 0), ["skill", "java", {}], rf"{S0}: {NODE_ROW}"),
    "string-node-row": (("skills", 0), "abc", rf"{S0}: {NODE_ROW}"),
    "non-string-attr": (("skills", 0, 1, "category"), 5, rf"{S0}: attr 'category' is not a string"),
    "duplicate-skill": (("skills", 1), ["java", {}], r"skills\[1\]: duplicate skill 'java'"),
    "v2-nodes-list": (("nodes",), [], r"unknown section 'nodes'"),
    "v3-edge-section": (("edges/jobseeker_skill",), [V3_EDGE],
                        r"unknown section 'edges/jobseeker_skill'"),
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
}


def replaced(doc: dict, path: tuple, value) -> dict:
    """A deep copy of ``doc`` with the value at ``path`` replaced (or added)."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    holder = doc
    for step in parents:
        holder = holder[step]
    if isinstance(holder, list) and last == len(holder):
        holder.append(value)
    else:
        holder[last] = value
    return doc


def test_loadable_doc_loads():
    assert "tool_version" not in LOADABLE_DOC["config"]  # the field is optional
    graph = KnowledgeGraph.from_dict(LOADABLE_DOC)
    edge = graph.get_edge(EdgeKind.JOBSEEKER_SKILL, "js0", "java")
    assert graph.edge_parts(edge) == (0.5, 0.05, 1.0, 1)


def test_loadable_doc_at_every_bound_gives_finite_strengths():
    doc = replaced(LOADABLE_DOC, (*PROJECT, 2), MAX_DURATION_MONTHS)
    doc = replaced(doc, (*PROJECT, 3), WEIGHT_UNITS)
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
    with pytest.raises(GraphFormatError, match=rf"^{re.escape(str(path))}: {P0}: {TYPES}$"):
        KnowledgeGraph.load(path)


@pytest.mark.parametrize("path, value, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_from_dict_rejects_malformed_document(path, value, message):
    with pytest.raises(GraphFormatError, match=f"^{message}$"):
        KnowledgeGraph.from_dict(replaced(LOADABLE_DOC, path, value))


def test_from_dict_checks_sections_before_the_config_and_the_config_before_rows():
    """The version, then the top-level keys, then the sections' types, then the
    config, then the rows; an absent config reads as an empty one, which lacks
    the fields a load needs."""
    bad_config = {**LOADABLE_DOC, "config": {"duration_cap_months": 0}}
    missing = "bad config: 'duration_bonus_factor'"
    with pytest.raises(GraphFormatError, match=r"^schema_version 3 is not supported"):
        KnowledgeGraph.from_dict({**bad_config, "schema_version": 3, "stray": 1})
    for doc, message in [
        ({**bad_config, "jobseekers": {}, "stray": 1}, "unknown section 'stray'"),
        ({**bad_config, "jobseekers": {}}, "jobseekers: not a list"),
        ({**LOADABLE_DOC, "config": [], "skills": {}}, "config: not an object"),
        ({**bad_config, "skills": [5]}, missing),
        ({key: value for key, value in LOADABLE_DOC.items() if key != "config"}, missing),
    ]:
        with pytest.raises(GraphFormatError) as err:
            KnowledgeGraph.from_dict(doc)
        assert str(err.value) == naive_graph_fault(doc) == message


REPLACEMENTS = [None, [], {}, "x", math.nan, math.inf, -1, 1.9, True, 1e6, 3 * WEIGHT_UNITS]


def field_paths(doc: dict) -> list[tuple]:
    """The path to every field of every row, project row and skill list entry."""
    paths = []
    for i, (_, attrs) in enumerate(doc["skills"]):
        paths += [("skills", i, 0), ("skills", i, 1)] + [("skills", i, 1, name) for name in attrs]
    for i, (_, _, declared, projects) in enumerate(doc["jobseekers"]):
        paths += [("jobseekers", i, j) for j in range(4)]
        paths += [("jobseekers", i, 2, k) for k in range(len(declared))]
        for n, project in enumerate(projects):
            paths += [("jobseekers", i, 3, n, j) for j in range(5)]
            paths += [("jobseekers", i, 3, n, 4, k) for k in range(len(project[4]))]
    return paths


@settings(max_examples=200, deadline=None)
@given(records=record_sets(), data=st.data())
def test_from_dict_round_trips_and_rejects_any_replaced_field(records, data):
    graph = build_graph(records, LEXICON, GAZETTEER)
    doc = graph.to_dict()
    assert set(doc) == {"schema_version", "config", "skills", "jobseekers"}
    assert KnowledgeGraph.from_dict(doc) == graph
    paths = field_paths(doc)
    assume(paths)
    path = data.draw(st.sampled_from(paths))
    assert_loads_as_the_oracle_says(replaced(doc, path, data.draw(st.sampled_from(REPLACEMENTS))))


@settings(max_examples=100, deadline=None)
@given(records=record_sets(), data=st.data())
def test_loaded_graph_rebuilds_the_derived_edges_of_any_merge_tree(records, data):
    """A graph built by any merge tree saves to a file that loads as it, and
    every sum the file leaves out equals the oracle's."""
    graph = merge_tree(records, data)
    doc = graph.to_dict()
    assert KnowledgeGraph.from_dict(doc) == graph
    derived = {(kind.value, source, target): [e.weight_units, e.support_count, e.months_sum]
               for (kind, source, target), e in graph.edges.items()
               if kind in (EdgeKind.JOBSEEKER_SKILL, EdgeKind.ORG_SKILL)}
    assert derived == naive_derived_edges(doc)
    oracle = OracleGraph(records, LEXICON, GAZETTEER, graph.config)
    for key, (units, count, months) in derived.items():
        assert (count, months) == tuple(oracle.edges[key][1:]), key
        assert units * 2.0**-64 == pytest.approx(oracle.edges[key][0], abs=1e-9), key


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


def rows_at(doc: dict, path: tuple) -> list:
    """The list at ``path`` in ``doc``, or [] when there is none."""
    holder = doc
    for step in path:
        try:
            holder = holder[step]
        except (KeyError, IndexError, TypeError):
            return []
    return holder if isinstance(holder, list) else []


def broken(doc: dict, path: tuple, keys: list[str], data) -> dict:
    """``doc`` with the row at ``path`` (a skill, jobseeker or project row)
    duplicated or moved into another (or an unknown) section or project list,
    its key replaced by one of ``keys``, one of its fields replaced, its skill
    list cleared or grown, or, for a project row, its months and score set
    near a bound."""
    row, project = rows_at(doc, path[:-1])[path[-1]], len(path) == 4
    # The field holding the row's skill list: declared or mentioned skills.
    skill_list = None if path[0] == "skills" else 4 if project else 2
    how = data.draw(st.sampled_from(  # skill lists are edited twice as often as the rest
        ["duplicate", "move", "key", "field"]
        + (["skills"] * 2 if skill_list is not None else []) + (["numbers"] if project else [])
    ))
    if how == "duplicate":
        rows = rows_at(doc, path[:-1])
        at = data.draw(st.integers(0, len(rows)))
        return replaced(doc, path[:-1], rows[:at] + [row] + rows[at:])
    if how == "move":
        others = [("skills",), ("jobseekers",), ("edges/org_skil",), ("nodes",), ("config",)]
        # A row too short to hold a project list, such as a skill row moved in
        # by an earlier edit, has no list to move into.
        others += [("jobseekers", j, 3) for j, other_row in enumerate(doc["jobseekers"])
                   if len(other_row) >= 3]
        other = data.draw(st.sampled_from(others))
        return replaced(doc, other, rows_at(doc, other) + [row])
    if how == "key":
        return replaced(doc, (*path, 1 if project else 0), data.draw(st.sampled_from(keys)))
    if how == "skills":
        skills = rows_at(doc, (*path, skill_list))
        # Besides any key: the list's own skills and, for declared skills,
        # the ones the jobseeker's projects mention.
        near = skills + [skill for project in rows_at(doc, (*path, 3)) if skill_list == 2
                         for skill in rows_at(project, (4,))]
        edit = data.draw(st.sampled_from(["clear", "any", "near"] if near else ["clear", "any"]))
        if edit == "clear":
            return replaced(doc, (*path, skill_list), [])
        added = data.draw(st.sampled_from(keys if edit == "any" else near))
        return replaced(doc, (*path, skill_list), skills + [added])
    if how == "numbers":
        doc = replaced(doc, (*path, 2), data.draw(st.sampled_from(
            [-1, 0, 1, MAX_DURATION_MONTHS, MAX_DURATION_MONTHS + 1])))
        return replaced(doc, (*path, 3), data.draw(st.sampled_from(
            [-1, 0, 1, WEIGHT_UNITS, WEIGHT_UNITS + 1])))
    field = data.draw(st.integers(0, len(row) - 1))
    return replaced(doc, (*path, field), data.draw(st.sampled_from(REPLACEMENTS)))


@settings(max_examples=200, deadline=None)
@given(records=record_sets(), data=st.data())
def test_from_dict_reports_the_first_fault_the_oracle_finds(records, data):
    """Up to three faults in one row, so that which one is reported counts."""
    doc = build_graph(records, LEXICON, GAZETTEER).to_dict()
    paths = {  # the row kind is drawn first, so that the many skill rows do not crowd out the rest
        "skill": [("skills", i) for i in range(len(doc["skills"]))],
        "jobseeker": [("jobseekers", i) for i in range(len(doc["jobseekers"]))],
        "project": [("jobseekers", i, 3, n) for i, row in enumerate(doc["jobseekers"])
                    for n in range(len(row[3]))],
    }
    kinds = [kind for kind, rows in paths.items() if rows]
    assume(kinds)
    path = data.draw(st.sampled_from(paths[data.draw(st.sampled_from(kinds))]))
    keys = sorted({key for key, _ in doc["skills"]} | {row[0] for row in doc["jobseekers"]})
    for _ in range(data.draw(st.integers(1, 3))):
        doc = broken(doc, path, keys + ["nowhere"], data)
    assert_loads_as_the_oracle_says(doc)


# A field of a record or of one of its experiences, and a value the graph file cannot hold.
RECORD_FAULTS = [("duration_months", -1), ("duration_months", MAX_DURATION_MONTHS + 1),
                 ("project_title", None), ("organization", None), ("name", 5)]


@st.composite
def records_with_faults(draw) -> list[ResumeRecord]:
    """Drawn records, with up to two fields of theirs replaced by ``RECORD_FAULTS``."""
    records = draw(record_sets())
    for _ in range(draw(st.integers(0, 2)) if records else 0):
        i = draw(st.integers(0, len(records) - 1))
        field, value = draw(st.sampled_from(RECORD_FAULTS))
        if field == "name":
            records[i] = dataclasses.replace(records[i], name=value)
        elif experiences := list(records[i].experiences):
            n = draw(st.integers(0, len(experiences) - 1))
            experiences[n] = dataclasses.replace(experiences[n], **{field: value})
            records[i] = dataclasses.replace(records[i], experiences=experiences)
    return records


def one_jobseeker_doc(record: ResumeRecord) -> dict:
    """The graph document of ``record`` alone, its skills and scores from the oracle."""
    projects = []
    for e in record.experiences:
        mentioned = sorted(naive_extract_skills(e.details, LEXICON))
        units = round(naive_score(e.details, GAZETTEER) * 2**64) if mentioned else 0
        projects.append([e.project_title, e.organization, e.duration_months, units, mentioned])
    mentioned = {skill for project in projects for skill in project[4]}
    return {"schema_version": 4, "config": CONFIG,
            "skills": [[skill, {}] for skill in sorted(mentioned | record.declared_skills)],
            "jobseekers": [[record.jobseeker_id, record.name,
                            sorted(record.declared_skills - mentioned), projects]]}


@settings(max_examples=200, deadline=None)
@given(records=records_with_faults())
@example(records=[record("js0", experiences=[exp("acme", "debugging java", months=-24)])])
@example(records=[record("js0", experiences=[exp("acme", "debugging java", months=10**6)])])
@example(records=[record("js0", experiences=[exp("acme", "debugging java", title=None)])])
def test_add_resume_refuses_exactly_the_records_a_graph_file_cannot_hold(records):
    """``add_resume`` raises the loader's fault of the record's own document,
    located at the jobseeker, and then leaves the graph as it was; every graph
    it builds loads from its own document and saves the same bytes."""
    graph = KnowledgeGraph()
    for resume in records:
        fault = naive_graph_fault(one_jobseeker_doc(resume))
        if fault is None:
            graph.add_resume(resume, LEXICON, GAZETTEER)
            continue
        before = copy.deepcopy(graph)
        with pytest.raises(GraphFormatError) as err:
            graph.add_resume(resume, LEXICON, GAZETTEER)
        located = fault.replace("jobseekers[0]", f"jobseeker {resume.jobseeker_id!r}", 1)
        assert str(err.value) == located
        assert graph == before and list(graph.nodes) == list(before.nodes)
    loaded = KnowledgeGraph.from_dict(graph.to_dict())
    assert loaded == graph and dumps(loaded.to_dict()) == dumps(graph.to_dict())


def test_add_resume_refuses_a_declared_skill_that_is_not_a_string(lexicon, gazetteer):
    graph = KnowledgeGraph()
    with pytest.raises(GraphFormatError, match=r"^jobseeker 'js0'\.declared: unknown skill 5$"):
        graph.add_resume(record("js0", declared={"sql", 5}), lexicon, gazetteer)
    assert graph == KnowledgeGraph()


@pytest.mark.parametrize("jobseeker_id", [["x"], None, 7], ids=["list", "none", "int"])
def test_add_resume_refuses_an_id_that_is_not_a_string(lexicon, gazetteer, jobseeker_id):
    """The row rule refuses the id before any lookup hashes it, so an unhashable
    id is refused as any other that is not a string, and changes nothing."""
    graph = KnowledgeGraph()
    resume = record(jobseeker_id, declared={"sql"}, experiences=[exp("acme", "robust java")])
    with pytest.raises(GraphFormatError) as err:
        graph.add_resume(resume, lexicon, gazetteer)
    assert str(err.value) == (f"jobseeker {jobseeker_id!r}: id and name must be strings, "
                              "declared and projects lists")
    assert graph == KnowledgeGraph()


def test_saved_rows_are_sorted_whatever_order_the_file_had():
    """A file that lists its rows and skill lists out of order loads as the
    sorted file does, and saves the sorted bytes."""
    doc = {"schema_version": 4, "config": CONFIG,
           "skills": [["sql", {}], ["java", {}], ["c++", {}]],
           "jobseekers": [["js1", "Al", ["sql", "c++"], []],
                          ["js0", "Jo", ["sql"], [["Ledger", "acme", 12, 1, ["java", "c++"]]]]]}
    loaded = KnowledgeGraph.from_dict(doc)
    assert loaded.to_dict() == {**doc, "config": {**CONFIG, "tool_version": __version__},
        "skills": [["c++", {}], ["java", {}], ["sql", {}]],
        "jobseekers": [["js0", "Jo", ["sql"], [["Ledger", "acme", 12, 1, ["c++", "java"]]]],
                       ["js1", "Al", ["c++", "sql"], []]]}
    assert KnowledgeGraph.from_dict(loaded.to_dict()) == loaded


def test_readme_graph_file_example_is_what_save_writes(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("**Graph file**", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "graph.json"
    KnowledgeGraph.from_dict(json.loads(example)).save(path)
    assert path.read_text(encoding="utf-8") == example


# Keys, a title and a name with the characters dot quotes.
JS, ORG, TITLE = 'js"0\\', 'Acme "Q" \\ Co', 'Say "hi" \\ now'
QUOTED_DOC = {
    "schema_version": 4,
    "config": CONFIG,
    "skills": [["c++", {"category": ""}]],
    "jobseekers": [[JS, 'Jo "J" \\ Doe', [], [[TITLE, ORG, 12, WEIGHT_UNITS // 2, ["c++"]]]]],
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
