"""The benchmark's tracer (bench/tracing.py) wraps the package's functions
and methods by name. A refactor that drops or renames one of them breaks the
benchmark's traced run, not the package's own tests; this test catches that
here. It reads bench/tracing.py and changes nothing under bench/."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import talentgraph.cli
from talentgraph.graph import EdgeKind, KnowledgeGraph
from talentgraph.lexicon import SkillLexicon

from conftest import CORPUS_DIR, GAZETTEER_FILE, GOLD_FILE, LEXICON_FILE

TRACING = Path(__file__).parent.parent / "bench" / "tracing.py"
METHODS = [(KnowledgeGraph, name) for name in ("add_resume", "save", "load", "get_edge",
                                              "edges_of_kind")] + [(SkillLexicon, "__init__")]


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer_and_uninstalls(tmp_path, capsys):
    originals = {(cls, name): vars(cls)[name] for cls, name in METHODS}
    main = talentgraph.cli.main
    public = {name: getattr(talentgraph, name) for name in talentgraph.__all__}
    graph = tmp_path / "graph.json"
    tracer = load_tracing().Tracer()
    tracer.install(talentgraph)
    try:
        for cls, name in METHODS:
            assert vars(cls)[name] is not originals[cls, name], name
        cli = talentgraph.cli.main  # the wrapped entry point
        assert talentgraph.parse_query is not public["parse_query"]  # the traced module attr
        assert cli(["ingest", str(CORPUS_DIR), "--lexicon", str(LEXICON_FILE),
                    "--gazetteer", str(GAZETTEER_FILE), "--out", str(graph),
                    "--intermediate", str(tmp_path / "intermediate.json")]) == 0
        assert cli(["query", str(graph), "top java"]) == 0
        assert cli(["explain", str(graph), "js0000-jane-doe", "top java"]) == 0
        assert cli(["stats", str(graph)]) == 0
        assert cli(["eval", str(graph), str(GOLD_FILE), "--lexicon", str(LEXICON_FILE)]) == 0
        assert list(KnowledgeGraph.load(graph).edges_of_kind(EdgeKind.ORG_SKILL))
    finally:
        tracer.uninstall()
    capsys.readouterr()

    for cls, name in METHODS:
        assert vars(cls)[name] is originals[cls, name], name
    assert talentgraph.cli.main is main
    assert [name for name, value in public.items() if getattr(talentgraph, name) is not value] == []
    _, _, calls = tracer.totals()
    assert {name for name, count in calls.items() if count} == {
        "cli.main", "lexicon.load", "lexicon.init", "parser.parse_resume",
        "parser.extract_skills", "graph.add_resume",
        "graph.save", "intermediate.write", "graph.load", "query.parse_query",
        "query.execute", "query.explain", "stats.compute_graph_stats",
        "evaluation.load_gold", "evaluation.evaluate_graph",
    }
    counts = tracer.counts
    assert counts["graph.file_bytes"] == graph.stat().st_size
    for name in ("tokenization.tokenize_calls", "graph.get_edge_calls",
                 "graph.edges_of_kind_calls", "graph.edges_sorted"):
        assert counts[name] > 0, name
