"""``export --format dot`` renders the graph from its kept rows. Each test
compares that rendering with the naive one over the public ``nodes`` and
``edges``: node kinds, then edge kinds, by value, rows sorted, and each edge's
mean weight formatted on its own."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from talentgraph.cli import main
from talentgraph.graph import GRAPH_SCHEMA_VERSION, WEIGHT_UNITS, KnowledgeGraph
from talentgraph.lexicon import load_sentiment_gazetteer, load_skill_lexicon
from talentgraph.parser import ExperienceEntry, ResumeRecord

from conftest import GAZETTEER_FILE, LEXICON_FILE, build_graph
from oracle import naive_to_dot

LEXICON = load_skill_lexicon(LEXICON_FILE)
GAZETTEER = load_sentiment_gazetteer(GAZETTEER_FILE)
BENCH_CORPUS = Path(__file__).parent.parent / "bench" / "corpus.py"
CONFIG = {"duration_bonus_factor": 0.5, "duration_cap_months": 120}
# Keys, names and titles: '"' and '\' are quoted, and ':p' and digits make keys
# that sort unlike their ordinals, such as 'a:p10' before 'a:p2'.
TEXT = st.text(alphabet='ab"\\:p1', max_size=4)
# A few scores, so edges share a mean weight.
UNITS = st.sampled_from([1, WEIGHT_UNITS // 3, WEIGHT_UNITS // 2, WEIGHT_UNITS])
DETAIL_WORDS = ["c++", "java", "py", "sql", "react", "robust", "scalable", "lead", "the"]


def assert_renders_as_naive(graph: KnowledgeGraph) -> None:
    assert graph.to_dot() == naive_to_dot(graph)
    assert KnowledgeGraph.from_dict(graph.to_dict()).to_dot() == naive_to_dot(graph)


@st.composite
def graph_documents(draw) -> dict:
    """Loadable graph documents: skill attrs that may hold ``name`` or ``title``,
    jobseekers with up to 12 projects, and names and titles that may be empty."""
    skills = draw(st.lists(TEXT.filter(bool), unique=True, max_size=5))  # "" is no skill key
    attrs = st.dictionaries(st.sampled_from(["category", "name", "title"]), TEXT, max_size=2)
    jobseekers = []
    for jobseeker in draw(st.lists(TEXT, unique=True, max_size=4)):
        projects = []
        for _ in range(draw(st.integers(0, 12))):
            mentioned = draw(st.lists(st.sampled_from(skills), unique=True)) if skills else []
            units = draw(UNITS) if mentioned else 0
            projects.append([draw(TEXT), draw(TEXT), draw(st.integers(0, 40)), units, mentioned])
        free = sorted(set(skills).difference(*(project[4] for project in projects)))
        declared = draw(st.lists(st.sampled_from(free), unique=True)) if free else []
        jobseekers.append([jobseeker, draw(TEXT), declared, projects])
    return {"schema_version": GRAPH_SCHEMA_VERSION, "config": CONFIG,
            "skills": [[skill, draw(attrs)] for skill in skills], "jobseekers": jobseekers}


# Twelve projects of one jobseeker, quoted keys, empty and attr-taken labels, shared scores.
TWELVE = {
    "schema_version": GRAPH_SCHEMA_VERSION, "config": CONFIG,
    "skills": [['a"', {"name": "", "title": "t"}], ["b\\", {"name": "n"}], ["p", {}]],
    "jobseekers": [
        ["a", "", ["p"], [["", 'o"', 3, WEIGHT_UNITS // 2, ['a"', "b\\"] if n % 2 else ["b\\"]]
                          for n in range(12)]],
        ["a:", "x", [], [["t", "o\\", 1, WEIGHT_UNITS // 2, ["b\\"]]]],
    ],
}


def one_jobseeker(name: str, org: str, declared: list[str], mentioned: list[str]) -> dict:
    """Jobseeker ``a``, who declares ``declared`` and has one project at ``org``,
    scored 0.5, that mentions ``mentioned``."""
    project = ["t", org, 2, WEIGHT_UNITS // 2, mentioned]
    return {"schema_version": GRAPH_SCHEMA_VERSION, "config": CONFIG,
            "skills": [[skill, {}] for skill in sorted({*declared, *mentioned})],
            "jobseekers": [["a", name, declared, [project]]]}


# ``to_dot`` checks each node kind's keys and labels once for '"' and '\'. In each
# of these two graphs one kind holds one: a jobseeker's name, while the kind's
# keys are plain, and an organization's key.
QUOTED_NAME = one_jobseeker('n"', "o", [], ["s"])
BACKSLASH_ORG = one_jobseeker("n", "o\\", [], ["s"])
# A declared-only skill (no support: 0.000) beside two scored skills that share a mean.
DECLARED_AND_SCORED = one_jobseeker("n", "o", ["d"], ["s", "t"])


@settings(max_examples=200, deadline=None)
@given(doc=graph_documents())
@example(doc=TWELVE)
@example(doc=QUOTED_NAME)
@example(doc=BACKSLASH_ORG)
@example(doc=DECLARED_AND_SCORED)
def test_loaded_graph_renders_as_the_naive_rendering(doc):
    assert_renders_as_naive(KnowledgeGraph.from_dict(doc))


@st.composite
def records(draw) -> list[ResumeRecord]:
    """Resumes with up to 12 experiences; ids, names, organizations and titles
    from ``TEXT``."""
    def experience() -> ExperienceEntry:
        details = " ".join(draw(st.lists(st.sampled_from(DETAIL_WORDS), max_size=5)))
        return ExperienceEntry(draw(TEXT), draw(TEXT), draw(st.integers(0, 40)), details, "")

    declared = st.lists(st.sampled_from(sorted(LEXICON.categories)), max_size=3)
    return [ResumeRecord(jobseeker, draw(TEXT), set(draw(declared)),
                         [experience() for _ in range(draw(st.integers(0, 12)))])
            for jobseeker in draw(st.lists(TEXT, unique=True, max_size=4))]


@settings(max_examples=100, deadline=None)
@given(records=records())
def test_built_graph_renders_as_the_naive_rendering(records):
    assert_renders_as_naive(build_graph(records, LEXICON, GAZETTEER))


def test_bench_corpus_graph_renders_as_the_naive_rendering(tmp_path, monkeypatch, capsys):
    """The generated corpus at seed 7: 60 resumes through ``ingest`` and ``export``."""
    spec = importlib.util.spec_from_file_location("bench_corpus", BENCH_CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_corpus", corpus)  # for its dataclasses
    spec.loader.exec_module(corpus)
    files = corpus.Corpus(7, 60).write(tmp_path)
    graph, dot = tmp_path / "graph.json", tmp_path / "graph.dot"
    assert main(["ingest", str(files["resumes"]), "--lexicon", str(files["lexicon"]),
                 "--gazetteer", str(files["gazetteer"]), "--out", str(graph)]) == 0
    assert main(["export", str(graph), "--format", "dot", "--out", str(dot)]) == 0
    capsys.readouterr()
    loaded = KnowledgeGraph.load(graph)
    assert len(loaded.edges) > 1000
    assert dot.read_text(encoding="utf-8") == naive_to_dot(loaded)
