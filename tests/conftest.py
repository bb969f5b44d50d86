from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from talentgraph.graph import EdgeKind, KnowledgeGraph, ScoringConfig
from talentgraph.lexicon import load_sentiment_gazetteer, load_skill_lexicon
from talentgraph.parser import parse_resume

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS_DIR = FIXTURES / "corpus"
LEXICON_FILE = FIXTURES / "lexicon.json"
GAZETTEER_FILE = FIXTURES / "gazetteer.json"
GOLD_FILE = FIXTURES / "gold.json"
SRC = Path(__file__).parent.parent / "src"


def run_python(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    """Run a child interpreter that imports this checkout's ``src``, as this
    process does: pytest's ``pythonpath`` setting does not reach child
    processes. With ``check``, a non-zero exit raises."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run([sys.executable, *args], check=check, capture_output=True, env=env)


def run_talentgraph(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    """Run ``python -m talentgraph`` in a child interpreter (see ``run_python``)."""
    return run_python("-m", "talentgraph", *args, check=check)


@pytest.fixture(scope="session")
def lexicon():
    return load_skill_lexicon(LEXICON_FILE)


@pytest.fixture(scope="session")
def gazetteer():
    return load_sentiment_gazetteer(GAZETTEER_FILE)


def parse_corpus(lexicon):
    records = []
    for seed, path in enumerate(sorted(CORPUS_DIR.glob("*.txt"))):
        record, _ = parse_resume(path.read_text(encoding="utf-8"), lexicon, seed)
        records.append(record)
    return records


@pytest.fixture(scope="session")
def corpus_records(lexicon):
    return parse_corpus(lexicon)


def build_graph(records, lexicon, gazetteer, config=None):
    graph = KnowledgeGraph(config or ScoringConfig())
    for record in records:
        graph.add_resume(record, lexicon, gazetteer)
    return graph


def skill_years(graph, jobseeker_id, skill):
    """Years on the jobseeker-skill edge, 0.0 when there is none."""
    return graph.edge_parts(graph.get_edge(EdgeKind.JOBSEEKER_SKILL, jobseeker_id, skill))[2]


def org_skill_strength(graph, org, skill):
    """Mean score on the org-skill edge, 0.0 when there is none."""
    edge = graph.get_edge(EdgeKind.ORG_SKILL, org, skill)
    return edge.mean_weight() if edge else 0.0


@pytest.fixture()
def corpus_graph(corpus_records, lexicon, gazetteer):
    return build_graph(corpus_records, lexicon, gazetteer)
