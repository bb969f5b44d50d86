"""One skill-key rule. A skill key is a non-empty folded string that
``parse_query`` reads, alone, as the one bare term that names it;
``lexicon.skill_key_fault`` states it, and the lexicon loader, the graph
loader, ``add_resume``, ``QueryTerm`` and the gold loader each ask it. Only
``lexicon`` holds the query DSL's word lists and patterns that the rule and
the parser read."""
from __future__ import annotations

import ast
import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from talentgraph.errors import (FixtureError, GraphFormatError, LexiconFormatError, QueryError,
                                TalentGraphError)
from talentgraph.evaluation import _read_gold
from talentgraph.graph import WEIGHT_UNITS, KnowledgeGraph
from talentgraph.lexicon import dump_skill_lexicon, parse_skill_records, skill_key_fault
from talentgraph.query import Query, QueryTerm, execute, explain, parse_query

from oracle import naive_load_lexicon, naive_parse_query, naive_skill_key_fault
from test_graph import GAZETTEER, LEXICON, assert_loads_as_the_oracle_says, exp, record
from test_lexicon import loaded
from test_query import cli_run, cli_stdout

PACKAGE = Path(__file__).parent.parent / "src" / "talentgraph"
MODULES = sorted(PACKAGE.glob("*.py"))
CONFIG = {"duration_bonus_factor": 0.5, "duration_cap_months": 120}
UNFOLDED = "is not a lowercase, single-spaced, non-empty string"
NOT_A_TERM = "does not read as one bare query term"

# -- one place for the DSL's constants ----------------------------------------------

DSL_NAMES = {"_FILLER_WORDS", "_TOP_RE", "_NUM", "_BOUNDS_RE"}
# Text only the DSL's definitions hold: a filler word, the top word, a bound group.
DSL_SIGNATURES = ("candidate", r"top\b", "(?P<lo>")


def strings_in(node: ast.AST) -> list[str]:
    return [n.value for n in ast.walk(node) if isinstance(n, ast.Constant)
            and isinstance(n.value, str)]


def dsl_definitions(source: str) -> list[int]:
    """The lines of ``source`` that assign one of the DSL's constants, assign
    or pass to ``re`` a string holding one of its signatures, or name ``_fold``
    (a fold test of its own)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            named = any(isinstance(t, ast.Name) and t.id in DSL_NAMES for t in targets)
            texts = strings_in(node.value) if node.value is not None else []
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"):
            named, texts = False, strings_in(node)
        else:
            named = (isinstance(node, ast.Name) and node.id == "_fold"
                     or isinstance(node, ast.alias) and node.name == "_fold")
            texts = []
        if named or any(sig in text for text in texts for sig in DSL_SIGNATURES):
            lines.append(getattr(node, "lineno", None) or 0)
    return sorted(set(lines))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "lexicon.py"],
                         ids=[p.name for p in MODULES if p.name != "lexicon.py"])
def test_only_the_lexicon_defines_the_dsl_words_and_patterns(path):
    assert dsl_definitions(path.read_text(encoding="utf-8")) == []


def test_the_dsl_check_finds_each_kind_of_definition():
    """The check can fail, and the lexicon holds every definition it looks for."""
    assert dsl_definitions('_TOP_RE = re.compile(r"x")\n') == [1]
    assert dsl_definitions('WORDS = frozenset("resume candidate".split())\n') == [1]
    assert dsl_definitions('m = re.match(r"^top\\b", text)\n') == [1]
    assert dsl_definitions("from .lexicon import _fold\n") == [1]
    assert dsl_definitions('"""top c++ candidates"""\nx = 1\n') == []  # a docstring defines nothing
    lexicon = (PACKAGE / "lexicon.py").read_text(encoding="utf-8")
    assert len(dsl_definitions(lexicon)) >= len(DSL_NAMES)


# -- each caller refuses the same keys ------------------------------------------------

# Keys that are folded but that a query cannot name as written, and the reason.
UNNAMEABLE = ["node, js", "c++ 11-14", "python 3+", "resume", "sales candidates", "top gun",
              "top-gun", "top.net", "top", "top 5٣ java", "java 2 – 3"]
NAMEABLE = ["java", "topaz", "topé", "top٣", "topß java", "top_k", "node js", "c++ 11-14x",
            "python ٣+", "3+", "resume parsing", "-3+"]


@pytest.mark.parametrize("key", UNNAMEABLE)
def test_every_caller_refuses_a_key_no_query_names(key):
    message = f"skill {key!r} {NOT_A_TERM}"
    assert skill_key_fault(key) == naive_skill_key_fault(key) == message
    with pytest.raises(LexiconFormatError) as err:
        parse_skill_records([{"canonical": "java", "category": "x"},
                             {"canonical": key.upper(), "category": "x"}])
    assert str(err.value) == f"skills[1]: {message}"
    with pytest.raises(GraphFormatError) as err:
        KnowledgeGraph.from_dict({"schema_version": 4, "config": CONFIG,
                                  "skills": [["java", {}], [key, {}]]})
    assert str(err.value) == f"skills[1]: {message}"
    graph = KnowledgeGraph().add_resume(record("js0", declared={"sql"}), LEXICON, GAZETTEER)
    before = copy.deepcopy(graph)
    with pytest.raises(GraphFormatError) as err:
        graph.add_resume(record("js1", declared={"sql", key},
                                experiences=[exp("acme", "robust java", months=-1)]),
                         LEXICON, GAZETTEER)  # the skill first, as a load checks skill rows first
    assert str(err.value) == f"jobseeker 'js1': {message}"
    assert graph == before and list(graph.nodes) == list(before.nodes)
    with pytest.raises(QueryError) as err:
        QueryTerm(key)
    assert str(err.value) == message
    with pytest.raises(FixtureError) as err:
        _read_gold({"skills": {"js0": ["java"], "js1": ["java", key]}})
    assert str(err.value) == f"skills.js1: {message}"


@pytest.mark.parametrize("key", ["Java", "", " java", "apache  spark", None])
def test_every_caller_refuses_a_key_that_is_not_folded(key):
    message = f"skill {key!r} {UNFOLDED}"
    assert skill_key_fault(key) == naive_skill_key_fault(key) == message
    if isinstance(key, str):
        with pytest.raises(GraphFormatError) as err:
            KnowledgeGraph.from_dict({"schema_version": 4, "config": CONFIG,
                                      "skills": [[key, {}]]})
        assert str(err.value) == f"skills[0]: {message}"
        with pytest.raises(GraphFormatError) as err:
            KnowledgeGraph().add_resume(record("js0", declared={key}), LEXICON, GAZETTEER)
        assert str(err.value) == f"jobseeker 'js0': {message}"
        with pytest.raises(FixtureError) as err:
            _read_gold({"skills": {"js0": [key]}})
        assert str(err.value) == f"skills.js0: {message}"


@pytest.mark.parametrize("key", NAMEABLE)
def test_a_nameable_key_reads_back_as_its_one_term(key):
    assert skill_key_fault(key) is None and naive_skill_key_fault(key) is None
    lexicon = parse_skill_records([{"canonical": key, "category": "x"}])
    assert parse_query(key, lexicon) == Query((QueryTerm(key),))


def test_query_of_an_unfolded_graph_key_fails_at_load(tmp_path):
    """A graph file whose skill rows are ``Java``, ``""`` and ``node, js``
    loaded, and then no query could name them; now the load refuses the first."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "schema_version": 4, "config": CONFIG,
        "skills": [["Java", {}], ["", {}], ["node, js", {}]],
        "jobseekers": [["js0", "Jo", ["Java", "", "node, js"], []]]}), encoding="utf-8")
    assert cli_run("query", path, "Java") == (
        1, "", f"error: {path}: skills[0]: skill 'Java' {UNFOLDED}\n")


# -- properties over keys near the rule's edges -------------------------------------------

KEY_WORDS = ["java", "Java", "c++", "node", "js", "net", "gun", "top", "TOP", "topé", "top٣",
             "topß", "topaz", "candidates", "Resume", "jobseeker", "3", "3+", "1-2", "2.5", "٣",
             "+", "é"]
KEY_SEPARATORS = [" ", " ", "  ", ", ", ",", "-", ".", "\t", "–"]
EDGE_SPACE = st.sampled_from(["", "", "", " "])


@st.composite
def skill_keys(draw) -> str:
    """Strings near the rule's edges: any case, spaces (doubled, tabs, at either
    end), commas, filler words, trailing bounds, and ``top`` followed by a space,
    ``-``, ``.`` or a non-ASCII letter or digit; sometimes the empty string."""
    words = draw(st.lists(st.sampled_from(KEY_WORDS), max_size=3))
    key = "".join(draw(st.sampled_from(KEY_SEPARATORS)) + word if i else word
                  for i, word in enumerate(words))
    return draw(EDGE_SPACE) + key + draw(EDGE_SPACE)


@st.composite
def graph_documents(draw) -> dict:
    """Graph documents whose skill rows hold drawn keys, referenced by up to
    three jobseekers' declared skills and projects."""
    keys = draw(st.lists(skill_keys(), unique=True, max_size=4))
    jobseekers = []
    for jobseeker in draw(st.lists(st.sampled_from(["js0", "js1", "js2"]), unique=True,
                                   max_size=3)):
        mentioned = draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
        units = draw(st.sampled_from([0, WEIGHT_UNITS // 2, WEIGHT_UNITS])) if mentioned else 0
        projects = [["Ledger", "acme", draw(st.integers(0, 40)), units, mentioned]]
        free = [key for key in keys if key not in mentioned]
        declared = draw(st.lists(st.sampled_from(free), unique=True)) if free else []
        jobseekers.append([jobseeker, "Jo", declared, projects])
    return {"schema_version": 4, "config": CONFIG, "skills": [[key, {}] for key in keys],
            "jobseekers": jobseekers}


NAMEABLE_DOC = {"schema_version": 4, "config": CONFIG,
                "skills": [[key, {}] for key in ["c++", "java", "topaz", "topé"]],
                "jobseekers": [["js0", "Jo", ["topé"], [["L", "acme", 12, WEIGHT_UNITS // 2,
                                                          ["c++", "java", "topaz"]]]],
                               ["js1", "Al", ["java"], []]]}


@settings(max_examples=100, deadline=None)
@given(doc=graph_documents())
@example(doc=NAMEABLE_DOC)
def test_every_command_reads_every_graph_file_that_loads(doc):
    """Without ``--lexicon``: ``query`` of each skill key prints ``execute`` of
    its one bare term, ``explain`` of each jobseeker for a query of every key
    prints the library's explanation, and ``stats`` and ``export`` (JSON and
    dot) succeed. Positionals follow ``--``, so a key may start with ``-``."""
    try:
        graph = KnowledgeGraph.from_dict(doc)
    except GraphFormatError:
        return
    keys = graph.skill_keys()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "graph.json")
        graph.save(path)
        for key in keys:
            results = json.loads(cli_stdout("query", "--json", "--", path, key))["results"]
            assert results == [r.to_dict() for r in execute(Query((QueryTerm(key),)), graph)]
        if keys:
            query = Query(tuple(map(QueryTerm, keys)))
            for jobseeker in graph.jobseeker_ids():
                text = cli_stdout("explain", "--json", "--", path, jobseeker, ", ".join(keys))
                assert json.loads(text)["explanation"] == explain(jobseeker, query, graph).to_dict()
        cli_stdout("stats", path)
        cli_stdout("export", path)
        cli_stdout("export", "--format", "dot", path)


@settings(max_examples=300, deadline=None)
@given(canonicals=st.lists(skill_keys(), max_size=4), aliases=st.lists(skill_keys(), max_size=3))
@example(canonicals=["topé", "top٣", "topß java"], aliases=[])
@example(canonicals=["java"], aliases=["top gun", "node, js"])  # an alias need not be a key
def test_every_canonical_of_a_lexicon_that_loads_reads_as_its_one_term(canonicals, aliases):
    records = [{"canonical": key, "category": "x", "aliases": aliases if i == 0 else []}
               for i, key in enumerate(canonicals)]
    try:
        lexicon = parse_skill_records(records)
    except TalentGraphError:
        return
    for canonical in lexicon.categories:
        assert parse_query(canonical, lexicon) == Query((QueryTerm(canonical),), 10)


@settings(max_examples=300, deadline=None)
@given(keys=st.lists(skill_keys(), max_size=4))
@example(keys=["topé"])
@example(keys=["top 5٣ java"])
@example(keys=["java", "Java"])
def test_the_oracle_refuses_the_same_keys_in_lexicons_and_graph_files(keys):
    """The oracle's rule, ``naive_parse_query`` of the key against a lexicon of
    it alone, shares no code with ``skill_key_fault``."""
    for key in keys:
        assert skill_key_fault(key) == naive_skill_key_fault(key), key
    records = [{"canonical": key, "category": "x"} for key in keys]
    assert loaded(parse_skill_records, dump_skill_lexicon, ("alias_index", "categories"),
                  records) == naive_load_lexicon(records)
    assert_loads_as_the_oracle_says({"schema_version": 4, "config": CONFIG,
                                     "skills": [[key, {}] for key in keys]})


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(skill_keys(), min_size=1, max_size=3), at=st.integers(0, 2),
       prefix=st.sampled_from(["", "top", "top ", "Top 3 ", "top 5", "top 5 "]))
@example(keys=["é"], prefix="top", at=0)  # "topé": ``top`` is a whole word in any script
@example(keys=["5٣ java", "٣ java"], prefix="top ", at=0)  # "top 5٣ java": so is N
def test_the_oracle_reads_a_query_of_drawn_keys_as_parse_query_does(keys, at, prefix):
    """On a lexicon of the drawn keys, ``naive_parse_query`` reads a query of
    one of them, after a ``top`` or ``top N`` that may run into it, as
    ``parse_query`` does, or both refuse it with the same error class."""
    try:
        lexicon = parse_skill_records([{"canonical": key, "category": "x"} for key in keys])
    except TalentGraphError:
        return
    text = prefix + keys[at % len(keys)]
    want = naive_parse_query(text, lexicon.alias_index)
    try:
        query = parse_query(text, lexicon)
    except QueryError as err:
        assert type(err).__name__ == want, text
    else:
        assert ([(t.skill, t.min_years, t.max_years) for t in query.terms], query.top_k) == want
