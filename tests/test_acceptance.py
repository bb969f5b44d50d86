"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or ``-rA``)
so the suite doubles as a release checklist. Tolerances are part of the
contract: 1e-9 for graph arithmetic, 1e-12 for scoring properties.
"""
from __future__ import annotations

import functools
import itertools
import json
import random
import time

import pytest

from talentgraph.evaluation import (
    extraction_metrics,
    sentiment_metrics,
    topk_accuracy,
)
from talentgraph.graph import EdgeKind, KnowledgeGraph, NodeKind, ScoringConfig
from talentgraph.intermediate import emit_intermediate, load_intermediate
from talentgraph.parser import ExperienceEntry, ResumeRecord
from talentgraph.query import QueryTerm, execute, parse_query
from talentgraph.scoring import match_contributions, score_description

from conftest import (
    CORPUS_DIR,
    GAZETTEER_FILE,
    LEXICON_FILE,
    build_graph,
    org_skill_strength,
    parse_corpus,
    run_talentgraph,
    skill_years,
)
from oracle import OracleGraph

GRAPH_TOL = 1e-9
SCORE_TOL = 1e-12

FILLER_WORDS = [
    "built", "maintained", "shipped", "tooling", "nightly", "batch", "vendor",
    "meetings", "sprint", "release", "legacy", "cleanup", "migration", "oncall",
]
ORG_NAMES = ["Acme Ltd.", "Globex Corp.", "Initech Inc.", "Umbrella Research LLC",
             "Soylent Co", "Hooli"]


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] {name}: FAIL")
                raise
            print(f"[criterion {number}] {name}: PASS")
        return wrapper
    return decorate


def synthetic_records(rng, count, lexicon, gazetteer):
    """Random but reproducible resumes exercising every construction path."""
    skills = sorted(lexicon.categories)
    aliases = sorted(lexicon.alias_index)
    keywords = sorted(gazetteer.weights)
    vocabulary = keywords + FILLER_WORDS + aliases
    records = []
    for i in range(count):
        experiences = []
        for _ in range(rng.randint(0, 3)):
            details = " ".join(rng.choices(vocabulary, k=rng.randint(0, 14)))
            months = rng.randint(0, 140)
            experiences.append(
                ExperienceEntry(
                    organization=rng.choice(ORG_NAMES).lower().split()[0],
                    project_title=f"Project {rng.randint(1, 60)}",
                    duration_months=months,
                    details=details,
                    duration_raw=f"{months} months",
                )
            )
        records.append(
            ResumeRecord(
                jobseeker_id=f"js{i:04d}-synth",
                name=f"Synth {i}",
                declared_skills=set(rng.sample(skills, k=rng.randint(0, 4))),
                experiences=experiences,
            )
        )
    return records


def all_strengths(graph):
    values = {}
    skills = graph.skill_keys()
    for jobseeker in graph.jobseeker_ids():
        for skill in skills:
            values[("js", jobseeker, skill)] = graph.jobseeker_skill_strength(
                jobseeker, skill
            )
            values[("years", jobseeker, skill)] = skill_years(graph, jobseeker, skill)
    orgs = sorted(n.key for n in graph.nodes if n.kind is NodeKind.ORGANIZATION)
    for org in orgs:
        for skill in skills:
            values[("org", org, skill)] = org_skill_strength(graph, org, skill)
    return values


@criterion(1, "oracle equivalence of graph construction")
def test_c1_oracle_equivalence(lexicon, gazetteer):
    rng = random.Random(20240901)
    started = time.perf_counter()
    for trial in range(20):
        records = synthetic_records(rng, rng.randint(1, 10), lexicon, gazetteer)
        graph = build_graph(records, lexicon, gazetteer)
        oracle = OracleGraph(records, lexicon, gazetteer, graph.config)

        got_nodes = {(node.kind.value, node.key) for node in graph.nodes}
        assert got_nodes == oracle.nodes, f"trial {trial}: node sets differ"

        got = {
            (kind.value, s, t): (e.weight_sum, e.support_count, e.months_sum)
            for (kind, s, t), e in graph.edges.items()
        }
        want = {key: tuple(acc) for key, acc in oracle.edges.items()}
        assert set(got) == set(want), f"trial {trial}: edge sets differ"
        for key, (w_sum, count, months) in want.items():
            assert got[key][0] == pytest.approx(w_sum, abs=GRAPH_TOL), key
            assert got[key][1] == count and got[key][2] == months, key

        for jobseeker in graph.jobseeker_ids():
            for skill in graph.skill_keys():
                assert graph.jobseeker_skill_strength(jobseeker, skill) == pytest.approx(
                    oracle.jobseeker_skill_strength(jobseeker, skill), abs=GRAPH_TOL
                )
                assert skill_years(graph, jobseeker, skill) == pytest.approx(
                    oracle.skill_years(jobseeker, skill), abs=GRAPH_TOL
                )
        for org in sorted(n.key for n in graph.nodes if n.kind is NodeKind.ORGANIZATION):
            for skill in graph.skill_keys():
                assert org_skill_strength(graph, org, skill) == pytest.approx(
                    oracle.org_skill_strength(org, skill), abs=GRAPH_TOL
                )
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"oracle sweep took {elapsed:.2f}s"


@criterion(2, "order invariance over all 720 ingestion permutations")
def test_c2_order_invariance(lexicon, gazetteer, corpus_records):
    assert len(corpus_records) == 6
    baseline = all_strengths(build_graph(corpus_records, lexicon, gazetteer))
    for permutation in itertools.permutations(corpus_records):
        strengths = all_strengths(build_graph(permutation, lexicon, gazetteer))
        assert strengths.keys() == baseline.keys()
        for key, want in baseline.items():
            assert strengths[key] == want, key


def _record(jobseeker_id, declared, experiences):
    return ResumeRecord(
        jobseeker_id=jobseeker_id,
        name=jobseeker_id,
        declared_skills=set(declared),
        experiences=[
            ExperienceEntry(
                organization=org,
                project_title=title,
                duration_months=months,
                details=details,
                duration_raw="",
            )
            for org, title, months, details in experiences
        ],
    )


@criterion(3, "progressive graph topologies")
def test_c3_figure_topologies(lexicon, gazetteer):
    def kinds(graph):
        nodes = {node.kind: 0 for node in graph.nodes}
        for node in graph.nodes:
            nodes[node.kind] += 1
        edges = {}
        for kind, _, _ in graph.edges:
            edges[kind] = edges.get(kind, 0) + 1
        return nodes, edges

    # single jobseeker, single project
    g2 = build_graph(
        [_record("js0-solo", {"c++"}, [("acme", "Engine", 12, "robust c++ work")])],
        lexicon, gazetteer,
    )
    nodes, edges = kinds(g2)
    assert nodes == {NodeKind.JOBSEEKER: 1, NodeKind.SKILL: 1,
                     NodeKind.ORGANIZATION: 1, NodeKind.PROJECT: 1}
    assert edges == {EdgeKind.JOBSEEKER_SKILL: 1, EdgeKind.SKILL_PROJECT: 1,
                     EdgeKind.JOBSEEKER_PROJECT: 1, EdgeKind.PROJECT_ORG: 1,
                     EdgeKind.ORG_SKILL: 1}

    # single jobseeker, two projects at one organization
    g3 = build_graph(
        [_record("js0-solo", {"c++"}, [
            ("acme", "Engine", 12, "robust c++ work"),
            ("acme", "Tooling", 6, "scalable c++ tooling"),
        ])],
        lexicon, gazetteer,
    )
    nodes, edges = kinds(g3)
    assert nodes[NodeKind.PROJECT] == 2 and nodes[NodeKind.SKILL] == 1
    assert edges[EdgeKind.SKILL_PROJECT] == 2
    assert edges[EdgeKind.JOBSEEKER_SKILL] == 1
    assert g3.get_edge(EdgeKind.JOBSEEKER_SKILL, "js0-solo", "c++").support_count == 2
    assert g3.get_edge(EdgeKind.ORG_SKILL, "acme", "c++").support_count == 2

    # single jobseeker, multiple projects and organizations
    g4 = build_graph(
        [_record("js0-solo", {"c++", "java"}, [
            ("acme", "Engine", 12, "robust c++ work"),
            ("globex", "Pipeline", 6, "distributed java pipeline"),
            ("globex", "Console", 3, "debugging java console"),
        ])],
        lexicon, gazetteer,
    )
    nodes, edges = kinds(g4)
    assert nodes[NodeKind.ORGANIZATION] == 2 and nodes[NodeKind.PROJECT] == 3
    assert edges[EdgeKind.PROJECT_ORG] == 3
    assert edges[EdgeKind.ORG_SKILL] == 2  # (acme,c++), (globex,java)

    # two jobseekers, multiple projects and organizations, shared skill node
    g5 = build_graph(
        [
            _record("js0-ada", {"c++"}, [("acme", "Engine", 12, "robust c++ work")]),
            _record("js1-bob", {"c++", "java"}, [
                ("globex", "Pipeline", 6, "scalable c++ pipeline"),
                ("hooli", "Console", 3, "debugging java console"),
            ]),
        ],
        lexicon, gazetteer,
    )
    nodes, edges = kinds(g5)
    skill_nodes = sorted(n.key for n in g5.nodes if n.kind is NodeKind.SKILL)
    assert skill_nodes == ["c++", "java"]
    cpp_edges = [
        edge for _, target, edge in g5.edges_of_kind(EdgeKind.JOBSEEKER_SKILL) if target == "c++"
    ]
    assert len(cpp_edges) == 2  # one shared skill node, two jobseeker edges
    assert nodes[NodeKind.JOBSEEKER] == 2
    assert nodes[NodeKind.ORGANIZATION] == 3


@criterion(4, "query conformance with brute-force oracle")
def test_c4_query_conformance(lexicon, gazetteer):
    # both documented example queries parse to the expected term structures
    complex_query = parse_query("C++ 8-10, Java 6-8, Python 2-3", lexicon)
    assert complex_query.terms == (
        QueryTerm("c++", 8.0, 10.0),
        QueryTerm("java", 6.0, 8.0),
        QueryTerm("python", 2.0, 3.0),
    )
    simple_query = parse_query("top C++ candidates", lexicon)
    assert simple_query.terms == (QueryTerm("c++", None, None),)
    assert simple_query.top_k == 10

    # 20-jobseeker fixture: three hand-built qualifiers plus random profiles
    rng = random.Random(77)
    records = []
    for i in range(3):
        records.append(
            _record(f"js{i:04d}-fit", {"c++", "java", "python"}, [
                ("acme", "A", 100 + i, "robust c++ work"),
                ("globex", "B", 80, "distributed java work"),
                ("hooli", "C", 30, "scalable python work"),
            ])
        )
    records += synthetic_records(rng, 17, lexicon, gazetteer)
    for i, rec in enumerate(records[3:], start=3):
        rec.jobseeker_id = f"js{i:04d}-rand"
    graph = build_graph(records, lexicon, gazetteer)
    oracle = OracleGraph(records, lexicon, gazetteer, graph.config)

    for dsl in ("C++ 8-10, Java 6-8, Python 2-3", "top C++ candidates",
                "top 4 java", "python 1+, java 0-6"):
        query = parse_query(dsl, lexicon)
        got = [(r.jobseeker_id, r.total_score) for r in execute(query, graph)]
        want = oracle.execute(query)
        assert [g[0] for g in got] == [w[0] for w in want], dsl
        for (_, g_score), (_, w_score) in zip(got, want):
            assert g_score == pytest.approx(w_score, abs=GRAPH_TOL)

    matched = execute(complex_query, graph)
    # equal sentiment, so the extra months on the later ids rank them higher
    assert [r.jobseeker_id for r in matched] == [
        "js0002-fit", "js0001-fit", "js0000-fit",
    ]

    # deterministic tie-breaks on duplicate scores
    clones = [
        _record(jobseeker_id, {"java"}, [("acme", "X", 24, "robust java work")])
        for jobseeker_id in ("js9-zz", "js3-mm", "js5-aa")
    ]
    clone_graph = build_graph(clones, lexicon, gazetteer)
    ranked = execute(parse_query("top java candidates", lexicon), clone_graph)
    assert len({r.total_score for r in ranked}) == 1
    assert [r.jobseeker_id for r in ranked] == ["js3-mm", "js5-aa", "js9-zz"]


@criterion(5, "sentiment scoring properties over 1000 descriptions")
def test_c5_scoring_properties(gazetteer):
    rng = random.Random(31415)
    keywords = sorted(gazetteer.weights)
    vocabulary = keywords + FILLER_WORDS
    for _ in range(1000):
        words = rng.choices(vocabulary, k=rng.randint(0, 20))
        details = " ".join(words)
        score = score_description(details, gazetteer)

        shuffled = words[:]
        rng.shuffle(shuffled)
        permuted = score_description(" ".join(shuffled), gazetteer)
        assert permuted == pytest.approx(score, abs=SCORE_TOL)
        contributions = [w for _, w in match_contributions(details, gazetteer)]
        assert len(match_contributions(" ".join(shuffled), gazetteer)) == len(contributions)

        if contributions:
            assert min(contributions) - SCORE_TOL <= score
            assert score <= max(contributions) + SCORE_TOL
        else:
            assert score == 0.0

        padded = score_description(details + " zzqqx", gazetteer)
        assert padded == pytest.approx(score, abs=SCORE_TOL)

        doubled = score_description(details + " " + details, gazetteer)
        assert doubled == pytest.approx(score, abs=SCORE_TOL)
        assert len(match_contributions(details + " " + details, gazetteer)) == 2 * len(
            contributions
        )


@criterion(6, "lossless round-trips of documents and graph files")
def test_c6_round_trips(lexicon, gazetteer, corpus_records, tmp_path):
    fixtures = [corpus_records]
    rng = random.Random(2718)
    for _ in range(5):
        fixtures.append(synthetic_records(rng, rng.randint(0, 10), lexicon, gazetteer))

    for i, records in enumerate(fixtures):
        doc = emit_intermediate(records)
        assert load_intermediate(doc) == sorted(records, key=lambda r: r.jobseeker_id)
        assert emit_intermediate(load_intermediate(doc)) == doc

        graph = build_graph(records, lexicon, gazetteer)
        path = tmp_path / f"graph{i}.json"
        graph.save(path)
        assert KnowledgeGraph.load(path) == graph

    config = ScoringConfig(duration_bonus_factor=0.75, duration_cap_months=48)
    graph = build_graph(corpus_records, lexicon, gazetteer, config)
    path = tmp_path / "tuned.json"
    graph.save(path)
    assert KnowledgeGraph.load(path) == graph


@criterion(7, "metric sanity: perfect, adversarial, monotone top-k")
def test_c7_metric_sanity():
    keys = [f"r{i}" for i in range(8)]
    gold_sets = {k: {"java", "sql"} for k in keys}
    perfect = extraction_metrics(gold_sets, gold_sets)
    assert perfect == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
    adversarial = extraction_metrics({k: {"cobol"} for k in keys}, gold_sets)
    assert adversarial == {"precision": 0.0, "recall": 0.0, "f1": 0.0}

    gold_classes = {k: ("positive" if i % 2 else "neutral") for i, k in enumerate(keys)}
    flipped = {
        k: ("neutral" if v == "positive" else "positive")
        for k, v in gold_classes.items()
    }
    assert sentiment_metrics(gold_classes, gold_classes)["accuracy"] == 1.0
    assert sentiment_metrics(flipped, gold_classes)["accuracy"] == 0.0

    rankings = {"q": ["a", "b", "c"]}
    assert topk_accuracy(rankings, {"q": {"a"}}, 3) == 1.0
    assert topk_accuracy(rankings, {"q": {"zz"}}, 10) == 0.0

    rng = random.Random(4242)
    ids = [f"js{i}" for i in range(25)]
    for _ in range(100):
        fixture_rankings = {}
        fixture_gold = {}
        for q in range(3):
            order = ids[:]
            rng.shuffle(order)
            fixture_rankings[f"q{q}"] = order
            fixture_gold[f"q{q}"] = set(rng.sample(ids, rng.randint(1, 4)))
        at3 = topk_accuracy(fixture_rankings, fixture_gold, 3)
        at5 = topk_accuracy(fixture_rankings, fixture_gold, 5)
        at10 = topk_accuracy(fixture_rankings, fixture_gold, 10)
        assert at3 <= at5 <= at10


@criterion(8, "CLI ingest/query end-to-end determinism")
def test_c8_cli_end_to_end(tmp_path, lexicon):
    graph_path = tmp_path / "graph.json"
    ingest_args = [
        "ingest", str(CORPUS_DIR),
        "--lexicon", str(LEXICON_FILE), "--gazetteer", str(GAZETTEER_FILE),
        "--out", str(graph_path),
    ]
    query_args = ["query", str(graph_path), "top java candidates", "--json"]
    outputs = []
    for _ in range(2):
        run_talentgraph(*ingest_args)
        result = run_talentgraph(*query_args)
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]

    records = parse_corpus(lexicon)
    from talentgraph.lexicon import load_sentiment_gazetteer

    graph = build_graph(records, lexicon, load_sentiment_gazetteer(GAZETTEER_FILE))
    in_process = execute(parse_query("top java candidates", lexicon), graph)
    payload = json.loads(outputs[0])
    assert payload["results"] == [r.to_dict() for r in in_process]
