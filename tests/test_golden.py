"""Golden bytes: what the CLI writes for tests/fixtures, pinned by sha256.

Refactors keep graph files and command output byte for byte. A change that
alters them on purpose records the new digests here and names the change in
CHANGES.md."""
from __future__ import annotations

import hashlib

from hypothesis import given, settings

from talentgraph.cli import main
from talentgraph.graph import KnowledgeGraph

from conftest import CORPUS_DIR, GAZETTEER_FILE, GOLD_FILE, LEXICON_FILE, build_graph
from test_graph_index import GAZETTEER, LEXICON, record_sets

GOLDEN = {
    "ingest graph file": "2b25c0c7d79769b60afc50988e7e56b906aadb3757067444f33dc25e55869121",
    "ingest intermediate": "9b7af0e02ccc0a3249531ab63847e1c6d442ec387a2a39b011a943782c6dea35",
    "export json": "2b25c0c7d79769b60afc50988e7e56b906aadb3757067444f33dc25e55869121",
    "export dot": "d6d27ec98e05843091815167be23b3d4218262701d7c90bc2ff8902bbfec538c",
    "query --json": "218ddc28de0d9b9fbf787b9a5dc16e3d0bb29b16a70b0656fee5dc9b57ef4168",
    "stats --json": "07c29c38493d83e82ffbf966857214a72a3a8a572b3e9b8f73104b5c64a36d01",
    "eval": "c4b908cb8bd416490adb19d72abb4c38f46300d2f543ce75eec82a5820337101",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_cli_output_bytes_on_fixtures(tmp_path, capsys):
    graph, intermediate = tmp_path / "graph.json", tmp_path / "intermediate.json"
    assert main(["ingest", str(CORPUS_DIR), "--lexicon", str(LEXICON_FILE),
                 "--gazetteer", str(GAZETTEER_FILE), "--out", str(graph),
                 "--intermediate", str(intermediate)]) == 0
    got = {
        "ingest graph file": sha256(graph.read_bytes()),
        "ingest intermediate": sha256(intermediate.read_bytes()),
    }
    commands = {
        "export json": ["export", graph],
        "export dot": ["export", graph, "--format", "dot"],
        "query --json": ["query", graph, "java, python", "--json"],
        "stats --json": ["stats", graph, "--json"],
        "eval": ["eval", graph, GOLD_FILE, "--lexicon", LEXICON_FILE],
    }
    for name, argv in commands.items():
        capsys.readouterr()
        assert main([str(a) for a in argv]) == 0, name
        got[name] = sha256(capsys.readouterr().out.encode("utf-8"))
    assert got == GOLDEN


@settings(max_examples=100, deadline=None)
@given(records=record_sets())
def test_graph_file_loads_the_graph_it_saved_in_kind_then_key_order(records):
    """The in-memory graph, and so every output but the graph file's own
    bytes, does not depend on how the file lays out its rows."""
    graph = build_graph(records, LEXICON, GAZETTEER)
    loaded = KnowledgeGraph.from_dict(graph.to_dict())
    assert loaded == graph
    assert list(loaded.nodes) == sorted(graph.nodes, key=lambda node: (node.kind, node.key))
    assert list(loaded.edges) == sorted(graph.edges)
