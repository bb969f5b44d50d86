"""Golden bytes: what the CLI writes for tests/fixtures, pinned by sha256.

Refactors keep graph files and command output byte for byte. A change that
alters them on purpose records the new digests here and names the change in
CHANGES.md."""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from hypothesis import given, settings

from talentgraph._io import dumps
from talentgraph.cli import main
from talentgraph.graph import KnowledgeGraph
from talentgraph.query import execute, explain, parse_query
from talentgraph.stats import compute_graph_stats

from conftest import CORPUS_DIR, GAZETTEER_FILE, GOLD_FILE, LEXICON_FILE, build_graph
from test_graph_index import GAZETTEER, LEXICON, record_sets

GOLDEN = {
    "ingest graph file": "f25404d57ec57f0674519a53532bc4d91ef65fa5713389c852ece604cf9dec08",
    "ingest intermediate": "9b7af0e02ccc0a3249531ab63847e1c6d442ec387a2a39b011a943782c6dea35",
    "export json": "f25404d57ec57f0674519a53532bc4d91ef65fa5713389c852ece604cf9dec08",
    "export dot": "d6d27ec98e05843091815167be23b3d4218262701d7c90bc2ff8902bbfec538c",
    "query --json": "218ddc28de0d9b9fbf787b9a5dc16e3d0bb29b16a70b0656fee5dc9b57ef4168",
    "stats --json": "07c29c38493d83e82ffbf966857214a72a3a8a572b3e9b8f73104b5c64a36d01",
    "eval": "c4b908cb8bd416490adb19d72abb4c38f46300d2f543ce75eec82a5820337101",
    "query": "065a53ad402859ad73ae6d18770716225544d948e6df840a19186b12bfe71166",
    "explain": "ad49e6e5c1d7eb2f72c62570ad3a3ff58973d57d9ceaa31965969001140966ae",
    "explain --json": "9a444138b625f040f1e866183aeba9734e2d9cb95d50eba9f8d294e0b0cb396c",
    "eval --json": "e73aceec9f1ac5bdb5906036248453e5f1fc34cdf749341da6d002b3ea2e8696",
    "ingest summary": "78abc665ac2f06116566339f8552b35fcfae6be94c9edf08439ea38b41a8e2c6",
    "stats": "a2f6dc49a4dadaa58be485837c52e39a8340ebc24008627dff8ff8092729081f",
    "eval --topk-mode precision": "0525850a74c7827da50b771f3532496857bc2d9b2e8c6ac82101e48acfa0b46a",
    "stats corpus --json": "07c29c38493d83e82ffbf966857214a72a3a8a572b3e9b8f73104b5c64a36d01",
}
# Covers both bound forms, a satisfied and a failed term, and a term with no edge.
EXPLAIN_DSL = "cpp 1-20, python 3+, java, kafka"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_cli_output_bytes_on_fixtures(tmp_path, capsys, monkeypatch):
    # Relative output paths keep ingest's summary line, which names the graph
    # file, the same in every temporary directory.
    monkeypatch.chdir(tmp_path)
    graph, intermediate = Path("graph.json"), Path("intermediate.json")
    assert main(["ingest", str(CORPUS_DIR), "--lexicon", str(LEXICON_FILE),
                 "--gazetteer", str(GAZETTEER_FILE), "--out", str(graph),
                 "--intermediate", str(intermediate)]) == 0
    got = {
        "ingest graph file": sha256(graph.read_bytes()),
        "ingest intermediate": sha256(intermediate.read_bytes()),
        "ingest summary": sha256(capsys.readouterr().out.encode("utf-8")),
    }
    commands = {
        "export json": ["export", graph],
        "export dot": ["export", graph, "--format", "dot"],
        "query --json": ["query", graph, "java, python", "--json"],
        "stats --json": ["stats", graph, "--json"],
        "eval": ["eval", graph, GOLD_FILE, "--lexicon", LEXICON_FILE],
        "query": ["query", graph, "java, python"],
        "explain": ["explain", graph, "js0000-jane-doe", EXPLAIN_DSL, "--lexicon", LEXICON_FILE],
        "explain --json": ["explain", graph, "js0000-jane-doe", EXPLAIN_DSL, "--lexicon",
                           LEXICON_FILE, "--json"],
        "eval --json": ["eval", graph, GOLD_FILE, "--lexicon", LEXICON_FILE, "--json"],
        "stats": ["stats", graph],
        "eval --topk-mode precision": ["eval", graph, GOLD_FILE, "--lexicon", LEXICON_FILE,
                                       "--topk-mode", "precision"],
        "stats corpus --json": ["stats", CORPUS_DIR, "--lexicon", LEXICON_FILE, "--json"],
    }
    for name, argv in commands.items():
        capsys.readouterr()
        assert main([str(a) for a in argv]) == 0, name
        got[name] = sha256(capsys.readouterr().out.encode("utf-8"))
    assert got == GOLDEN


def outputs(graph: KnowledgeGraph) -> tuple:
    """What the commands read off a graph: dot, stats, a ranking, every
    jobseeker's explanation and the graph file's text."""
    query = parse_query("c++, java 1+, python", LEXICON)
    return (graph.to_dot(), compute_graph_stats(graph).to_dict(),
            [result.to_dict() for result in execute(query, graph)],
            [explain(jobseeker, query, graph).to_dict() for jobseeker in graph.jobseeker_ids()],
            dumps(graph.to_dict()))


@settings(max_examples=100, deadline=None)
@given(records=record_sets())
def test_graph_file_loads_the_graph_it_saved_in_kind_then_key_order(records):
    """The loaded graph, and every output read off it, equals the built
    graph's, whatever order the load rebuilds nodes and edges in."""
    graph = build_graph(records, LEXICON, GAZETTEER)
    loaded = KnowledgeGraph.from_dict(graph.to_dict())
    assert loaded == graph
    assert outputs(loaded) == outputs(graph)


# No fixture alias holds a ".", so the fixture ingest never keeps one inside a
# token. This lexicon does, and the extra resume puts dots and hyphens at token
# edges, inside tokens and in runs of their own.
DOTTED_SKILLS = [
    {"canonical": "node.js", "category": "web technologies", "aliases": ["node.js", "nodejs"]},
    {"canonical": ".net", "category": "frameworks", "aliases": [".net", "dotnet"]},
    {"canonical": "asp.net", "category": "frameworks", "aliases": ["asp.net", "asp.net core"]},
]
DOTTED_RESUME = """Lee Park

SKILLS
Node.js, .NET, Java.

EXPERIENCE
Globex Corp.
Billing Rewrite
Mar 2019 - Feb 2021
Led a robust ASP.NET Core rewrite of -.NET-. billing... and Node.js.
Scalable client-server design; --performance-- ... .-.- debugging of C++.
"""
DOTTED_GRAPH_FILE = "7d6118005181f4ce98e2f7fcd469abc1ec2a310da31a0c379cd8efbd592eea88"


def test_ingest_bytes_with_a_dotted_lexicon(tmp_path):
    doc = json.loads(LEXICON_FILE.read_text(encoding="utf-8"))
    doc["skills"] += DOTTED_SKILLS
    lexicon, graph, corpus = tmp_path / "lexicon.json", tmp_path / "graph.json", tmp_path / "c"
    lexicon.write_text(json.dumps(doc), encoding="utf-8")
    corpus.mkdir()
    for path in CORPUS_DIR.glob("*.txt"):
        (corpus / path.name).write_bytes(path.read_bytes())
    (corpus / "r07_lee_park.txt").write_text(DOTTED_RESUME, encoding="utf-8")
    assert main(["ingest", str(corpus), "--lexicon", str(lexicon),
                 "--gazetteer", str(GAZETTEER_FILE), "--out", str(graph)]) == 0
    assert sha256(graph.read_bytes()) == DOTTED_GRAPH_FILE
