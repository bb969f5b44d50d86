"""The versioned JSON document format: version policy and round trips."""
from __future__ import annotations

import copy
import json
import json.encoder
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import talentgraph._io
from talentgraph._io import check_document, dumps, write_document
from talentgraph.errors import (
    AliasConflictError,
    DocumentFormatError,
    FixtureError,
    GazetteerFormatError,
    GraphFormatError,
    LexiconFormatError,
    WeightRangeError,
)
from talentgraph.evaluation import _read_gold, load_gold
from talentgraph.graph import KnowledgeGraph
from talentgraph.intermediate import (
    emit_intermediate,
    load_intermediate,
    read_intermediate,
    write_intermediate,
)
from talentgraph.lexicon import (
    load_sentiment_gazetteer,
    load_skill_lexicon,
    parse_sentiment_records,
    parse_skill_records,
)
from talentgraph.parser import parse_duration

from conftest import FIXTURES, build_graph
from oracle import naive_graph_fault
from test_graph import LOADABLE_DOC, MALFORMED, REPLACEMENTS, exp, record, replaced
from test_graph_index import GAZETTEER, LEXICON, record_sets
from test_lexicon import (GAZETTEER_FAULTS, GAZETTEER_RECORD, LEXICON_FAULTS, LEXICON_RECORD,
                          records_with_faults)

GRAPH_DOC = {"config": {"duration_bonus_factor": 0.5, "duration_cap_months": 120}}

# (loader, error class, smallest valid document, whether it reads a file, its version)
LOADERS = {
    "lexicon": (load_skill_lexicon, LexiconFormatError, {"skills": []}, True, 1),
    "gazetteer": (load_sentiment_gazetteer, GazetteerFormatError, {"entries": []}, True, 1),
    "gold": (load_gold, FixtureError, {}, True, 1),
    "graph-load": (KnowledgeGraph.load, GraphFormatError, GRAPH_DOC, True, 4),
    "graph-from-dict": (KnowledgeGraph.from_dict, GraphFormatError, GRAPH_DOC, False, 4),
    "read-intermediate": (read_intermediate, DocumentFormatError, {"jobseekers": {}}, True, 1),
    "load-intermediate": (load_intermediate, DocumentFormatError, {"jobseekers": {}}, False, 1),
}
GRAPH_LOADERS = ["graph-from-dict", "graph-load"]


def load_as(name, doc, path):
    """Load ``doc`` with the named loader, through the file at ``path`` if it reads one."""
    loader, _, _, from_file, _ = LOADERS[name]
    if not from_file:
        return loader(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return loader(path)


def check_versions(tmp_path, name, version):
    """Load the loader's smallest document at its own version, then expect
    ``version`` to be rejected with a message located at the file; return
    that message."""
    _, error_cls, doc, from_file, accepted = LOADERS[name]
    path = tmp_path / "doc.json"
    load_as(name, {**doc, "schema_version": accepted}, path)
    with pytest.raises(error_cls, match="schema_version") as err:
        load_as(name, {**doc, "schema_version": version}, path)
    if from_file:
        assert str(path) in str(err.value)
    return str(err.value)


@pytest.mark.parametrize("version", [99, True, "1", 1.0])
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_loaders_reject_other_schema_versions(tmp_path, name, version):
    check_versions(tmp_path, name, version)


@pytest.mark.parametrize("version", [1, 2, 3, True, "4", 4.0])
@pytest.mark.parametrize("name", GRAPH_LOADERS)
def test_graph_loaders_accept_only_version_4(tmp_path, name, version):
    message = check_versions(tmp_path, name, version)
    assert message.endswith(
        "(expected 4); re-run `talentgraph ingest` to rebuild the graph file"
    )


def refused_older_graph_file(version: int) -> None:
    """The graph file of tests/fixtures as the given version's writer left it
    is refused with the re-ingest hint."""
    path = FIXTURES / f"graph_v{version}.json"
    with pytest.raises(GraphFormatError) as err:
        KnowledgeGraph.load(path)
    assert str(err.value) == (f"{path}: schema_version {version} is not supported (expected 4); "
                              "re-run `talentgraph ingest` to rebuild the graph file")


def test_v2_graph_file_is_refused_with_the_reingest_hint():
    refused_older_graph_file(2)


def test_v3_graph_file_is_refused_with_the_reingest_hint():
    refused_older_graph_file(3)


@pytest.mark.parametrize("name", sorted(n for n, loader in LOADERS.items() if loader[3]))
def test_file_loaders_reject_integer_too_long_to_read(tmp_path, name):
    """json refuses an integer of more than 4300 digits with a bare ValueError."""
    loader, error_cls, doc, _, version = LOADERS[name]
    path = tmp_path / "doc.json"
    text = json.dumps({**doc, "schema_version": version, "big": 0})
    path.write_text(text.replace('"big": 0', '"big": ' + "9" * 5000), encoding="utf-8")
    with pytest.raises(error_cls, match="not valid JSON"):
        loader(path)


PROJECT = {"title": "t", "duration": "", "details": "", "seq": 0}
# (loader, a valid document, the path to a key added where the loader reads keys
# by name, the message that key raises)
STRAY_KEYS = {
    "lexicon-section": ("lexicon", {"skills": []}, ("stray",),
                        "{path}: unknown section 'stray'"),
    "lexicon-record": ("lexicon", {"skills": [{"canonical": "java", "category": "x"}]},
                       ("skills", 0, "stray"), "{path}: skills[0]: unknown field 'stray'"),
    "gazetteer-section": ("gazetteer", {"entries": []}, ("stray",),
                          "{path}: unknown section 'stray'"),
    "gazetteer-record": ("gazetteer", {"entries": [{"keyword": "fast", "class": "x",
                                                    "weight": 0.5}]},
                         ("entries", 0, "stray"), "{path}: entries[0]: unknown field 'stray'"),
    "graph-section": ("graph-load", GRAPH_DOC, ("stray",), "{path}: unknown section 'stray'"),
    "graph-config": ("graph-load", GRAPH_DOC, ("config", "stray"),
                     "{path}: bad config: unknown field 'stray'"),
    "intermediate-section": ("read-intermediate", {"jobseekers": {}}, ("stray",),
                             "{path}: unknown section 'stray'"),
    "intermediate-reserved": ("read-intermediate", {"jobseekers": {"js1": {"_name": "a"}}},
                              ("jobseekers", "js1", "_stray"),
                              "{path}: jobseekers.js1._stray: unknown reserved key"),
    "intermediate-project": ("read-intermediate",
                             {"jobseekers": {"js1": {"acme": {"project1": PROJECT}}}},
                             ("jobseekers", "js1", "acme", "project1", "stray"),
                             "{path}: jobseekers.js1.acme.project1: unknown field 'stray'"),
    "gold-section": ("gold", {}, ("stray",), "{path}: unknown section 'stray'"),
    "gold-query": ("gold", {"queries": [{"query": "java", "relevant": []}]},
                   ("queries", 0, "stray"), "{path}: queries[0]: unknown field 'stray'"),
}


@pytest.mark.parametrize("case", sorted(STRAY_KEYS))
def test_loaders_reject_a_key_they_do_not_read(tmp_path, case):
    """Every object a loader reads by key name refuses, located, a key it
    would otherwise drop; the same document without it loads."""
    name, doc, where, message = STRAY_KEYS[case]
    _, error_cls, _, _, version = LOADERS[name]
    path = tmp_path / "doc.json"
    doc = {**copy.deepcopy(doc), "schema_version": version}
    load_as(name, doc, path)
    *steps, key = where
    target = doc
    for step in steps:
        target = target[step]
    target[key] = 1
    with pytest.raises(error_cls) as err:
        load_as(name, doc, path)
    assert str(err.value) == message.format(path=path)


# Each loader's sections, redeclared: {name: the type it must have}.
GRAPH_SECTIONS = {"config": dict, "skills": list, "jobseekers": list}
SECTIONS = {
    "lexicon": {"skills": list},
    "gazetteer": {"entries": list},
    "gold": {"skills": dict, "sentiment": dict, "queries": list},
    "graph-load": GRAPH_SECTIONS,
    "graph-from-dict": GRAPH_SECTIONS,
    "read-intermediate": {"jobseekers": dict},
    "load-intermediate": {"jobseekers": dict},
}
SECTION_CASES = [(name, section) for name in sorted(SECTIONS) for section in SECTIONS[name]]
SECTION_IDS = [f"{name}-{section}" for name, section in SECTION_CASES]


@pytest.mark.parametrize("name, section", SECTION_CASES, ids=SECTION_IDS)
def test_loaders_refuse_a_section_of_the_wrong_type(tmp_path, name, section):
    """Every loader names the section, located at the file if it reads one."""
    _, error_cls, doc, from_file, version = LOADERS[name]
    kind = SECTIONS[name][section]
    path = tmp_path / "doc.json"
    where = f"{path}: " if from_file else ""
    for value in ({} if kind is list else [], None, "x", 0):
        with pytest.raises(error_cls) as err:
            load_as(name, {**doc, "schema_version": version, section: value}, path)
        assert str(err.value) == f"{where}{section}: not {'a list' if kind is list else 'an object'}"


def loaded(name, doc, path):
    """What the named loader makes of ``doc``: the state of what it loads, or
    the message of the error it raises."""
    try:
        value = load_as(name, doc, path)
    except LOADERS[name][1] as exc:
        return str(exc)
    return value if isinstance(value, (dict, list)) else vars(value)


@pytest.mark.parametrize("name, section", SECTION_CASES, ids=SECTION_IDS)
def test_loaders_read_an_absent_section_as_an_empty_one(tmp_path, name, section):
    """A misspelled section is an unknown one, so an absent section can only
    be an empty one: the document loads as if it held the empty section. Only
    a graph's config has fields a load needs."""
    _, _, doc, from_file, version = LOADERS[name]
    doc = {**doc, "schema_version": version}
    absent = {key: value for key, value in doc.items() if key != section}
    path = tmp_path / "doc.json"
    got = loaded(name, absent, path)
    assert got == loaded(name, {**doc, section: SECTIONS[name][section]()}, path)
    if section == "config":
        assert got == f"{path}: " * from_file + "bad config: 'duration_bonus_factor'"
    else:
        assert not isinstance(got, str), got


# (file loader, the text of a document that repeats a key, that key)
REPEATED_KEYS = {
    "lexicon": ('{"skills": [{"canonical": "c++", "category": "lang", '
                '"aliases": ["cpp"], "aliases": ["cxx"]}]}', "aliases"),
    "gazetteer": ('{"entries": [], "entries": []}', "entries"),
    "graph-load": ('{"schema_version": 4, "config": {"duration_bonus_factor": 0.5, '
                   '"duration_cap_months": 120, "duration_cap_months": 12}}',
                   "duration_cap_months"),
    "read-intermediate": ('{"jobseekers": {"js1": {"_name": "a"}, "js1": {"_name": "b"}}}',
                          "js1"),
    "gold": ('{"queries": [{"query": "java", "query": "sql", "relevant": []}]}', "query"),
}


@pytest.mark.parametrize("name", sorted(REPEATED_KEYS))
def test_file_loaders_reject_a_repeated_key(tmp_path, name):
    """json keeps only the last value of a repeated key, so each document kind
    refuses one as invalid JSON, naming the file and the key; the document as
    json reads it loads."""
    loader, error_cls, *_ = LOADERS[name]
    text, key = REPEATED_KEYS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(json.loads(text)), encoding="utf-8")
    loader(path)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error_cls) as err:
        loader(path)
    assert str(err.value) == f"{path}: not valid JSON (repeated key {key!r})"


WORDS = ["java", "python", "c++", "scalability", "robust", "built", "tools", "the"]
DURATIONS = ["", "1 year", "2 years", "18 months", "Jan 2020 - Jun 2021", "2019 - 2021"]
TEXT = st.text(max_size=12)
EXPERIENCE = st.builds(
    lambda org, words, title, raw: exp(
        org, " ".join(words), months=parse_duration(raw), title=title, raw=raw
    ),
    TEXT.filter(lambda org: not org.startswith("_")),
    st.lists(st.sampled_from(WORDS), max_size=10),
    TEXT,
    st.sampled_from(DURATIONS),
)
RECORD = st.builds(
    lambda jobseeker_id, declared, experiences, name: record(
        jobseeker_id, declared, experiences, name
    ),
    st.text(min_size=1, max_size=12),
    st.lists(st.sampled_from(["java", "python", "c++"]), max_size=3),
    st.lists(EXPERIENCE, max_size=4),
    TEXT,
)


@settings(max_examples=100, deadline=None)
@given(records=st.lists(RECORD, max_size=5, unique_by=lambda r: r.jobseeker_id))
def test_documents_round_trip(lexicon, gazetteer, records):
    with tempfile.TemporaryDirectory() as tmp:
        inter = Path(tmp) / "intermediate.json"
        write_intermediate(records, inter)
        assert read_intermediate(inter) == sorted(records, key=lambda r: r.jobseeker_id)

        saved = Path(tmp) / "graph.json"
        build_graph(records, lexicon, gazetteer).save(saved)
        assert dumps(KnowledgeGraph.load(saved).to_dict()) == saved.read_text(encoding="utf-8")


# -- a file's faults are its document's, each located at the file ---------------

def value_paths(value, path: tuple = ()) -> list[tuple]:
    """The path to every value inside ``value``, a decoded document."""
    if not isinstance(value, (dict, list)):
        return []
    items = value.items() if isinstance(value, dict) else enumerate(value)
    return [found for key, item in items
            for found in [(*path, key), *value_paths(item, (*path, key))]]


def state(value):
    """What a loaded value holds, comparable with ``==``."""
    return value if isinstance(value, (KnowledgeGraph, list, dict)) else vars(value)


def read_as_in_memory(name, read, doc, directory) -> str | None:
    """The named file loader reads ``doc`` from a file as ``read`` reads it in
    memory: an equal value, or an error of the same type and attributes whose
    message is the file's path before the in-memory one. Return the in-memory
    message, or None when ``doc`` loads."""
    loader, error_cls, *_ = LOADERS[name]
    path = Path(directory) / "doc.json"
    text = json.dumps(doc)
    path.write_text(text, encoding="utf-8")
    try:
        expected = read(json.loads(text))
    except error_cls as exc:
        with pytest.raises(error_cls) as err:
            loader(path)
        assert type(err.value) is type(exc)
        assert str(err.value) == f"{path}: {exc}"
        assert vars(err.value) == vars(exc)  # such as AliasConflictError's alias
        return str(exc)
    assert state(loader(path)) == state(expected)
    return None


IDS = st.sampled_from(["js0", "js1", "js2"])
# Each file loader: its in-memory reader of a decoded document, and the documents
# it is given, with the faults of the kind's own tables where it has them.
IN_MEMORY = {
    "lexicon": (lambda doc: parse_skill_records(
                    check_document(doc, LexiconFormatError, {"skills": list})["skills"]),
                records_with_faults(LEXICON_RECORD, LEXICON_FAULTS).map(
                    lambda records: {"skills": records})),
    "gazetteer": (lambda doc: parse_sentiment_records(
                      check_document(doc, GazetteerFormatError, {"entries": list})["entries"]),
                  records_with_faults(GAZETTEER_RECORD, GAZETTEER_FAULTS).map(
                      lambda records: {"entries": records})),
    "graph-load": (KnowledgeGraph.from_dict, record_sets().map(
        lambda records: build_graph(records, LEXICON, GAZETTEER).to_dict())),
    "read-intermediate": (load_intermediate, st.lists(
        RECORD, max_size=3, unique_by=lambda r: r.jobseeker_id).map(emit_intermediate)),
    "gold": (_read_gold, st.fixed_dictionaries({}, optional={
        "skills": st.dictionaries(IDS, st.lists(st.sampled_from(["java", "sql"]), max_size=2),
                                  max_size=2),
        "sentiment": st.dictionaries(st.sampled_from(["js0:p0", "js1:p0"]),
                                     st.sampled_from(["positive", "neutral"]), max_size=2),
        "queries": st.lists(st.fixed_dictionaries({"query": st.sampled_from(["java", "top sql"]),
                                                   "relevant": st.lists(IDS, max_size=2)}),
                            max_size=2),
    })),
}


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(IN_MEMORY)), data=st.data())
def test_file_loaders_read_as_the_in_memory_readers_located_at_the_file(name, data):
    """Each kind's file loader raises its in-memory reader's fault, the file's
    path first, or loads what the reader loads; a drawn document has, half the
    time, one value replaced."""
    read, docs = IN_MEMORY[name]
    doc = data.draw(docs)
    paths = value_paths(doc)
    if paths and data.draw(st.booleans()):
        path = data.draw(st.sampled_from(paths))
        doc = replaced(doc, path, data.draw(st.sampled_from(REPLACEMENTS)))
    with tempfile.TemporaryDirectory() as tmp:
        read_as_in_memory(name, read, doc, tmp)


@pytest.mark.parametrize("path, value, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_graph_file_faults_are_the_oracles_located_at_the_file(tmp_path, path, value, message):
    doc = replaced(LOADABLE_DOC, path, value)
    fault = read_as_in_memory("graph-load", KnowledgeGraph.from_dict, doc, tmp_path)
    assert fault == naive_graph_fault(doc)


# (file loader, a document, the fault its file raises after the path, the error type)
FILE_FAULTS = {
    "lexicon-record": ("lexicon", {"skills": [{"canonical": "a", "category": "c", "alias": []}]},
                       "skills[0]: unknown field 'alias'", LexiconFormatError),
    "lexicon-alias": ("lexicon", {"skills": [{"canonical": name, "category": "c",
                                              "aliases": ["x"]} for name in "ab"]},
                      "alias 'x' maps to both 'a' and 'b'", AliasConflictError),
    "gazetteer-weight": ("gazetteer",
                         {"entries": [{"keyword": "fast", "class": "c", "weight": 2}]},
                         "entries[0]: weight 2 outside [0, 1]", WeightRangeError),
    "intermediate-project": ("read-intermediate",
                             {"jobseekers": {"js1": {"acme": {"project1": {**PROJECT,
                                                                           "detail": ""}}}}},
                             "jobseekers.js1.acme.project1: unknown field 'detail'",
                             DocumentFormatError),
    "graph-months": ("graph-load", replaced(LOADABLE_DOC, ("jobseekers", 0, 3, 0, 2), "12"),
                     "jobseekers[0].projects[0]: months and score_units must be integers",
                     GraphFormatError),
    "gold-query": ("gold", {"queries": [{"query": "java", "relevnt": []}]},
                   "queries[0]: unknown field 'relevnt'", FixtureError),
}


@pytest.mark.parametrize("case", sorted(FILE_FAULTS))
def test_file_faults_name_the_file(tmp_path, case):
    """README, File formats: one fault per kind, as its file raises it."""
    name, doc, message, error_cls = FILE_FAULTS[case]
    path = tmp_path / "doc.json"
    with pytest.raises(error_cls) as err:
        load_as(name, doc, path)
    assert type(err.value) is error_cls and str(err.value) == f"{path}: {message}"
    if error_cls is AliasConflictError:
        assert (err.value.alias, err.value.canonicals) == ("x", ("a", "b"))


def test_dumps_layout():
    doc = {"schema_version": 2, "rows": [["b", 1], {"y": "\u00e9", "x": 0.5}], "empty": [],
           "map": {"k2": [1, 2], "k1": {}}, "name": "n"}
    assert dumps(doc) == (
        '{\n"empty": [],\n"map": {\n"k1": {},\n"k2": [1, 2]\n},\n"name": "n",\n'
        '"rows": [\n["b", 1],\n{"x": 0.5, "y": "\\u00e9"}\n],\n"schema_version": 2\n}\n'
    )
    assert dumps({}) == "{}\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_dumps_rejects_nan_and_infinity(value):
    """Every written document is strict JSON, wherever the value sits."""
    for doc in ({"x": value}, {"rows": [[1, value]]}, {"map": {"k": {"v": value}}}):
        with pytest.raises(ValueError):
            dumps(doc)



def test_dumps_after_a_failed_document():
    """A document that fails to encode leaves nothing behind for the next:
    the same row, now valid, encodes, and a row that holds itself is refused."""
    row = [1, math.nan, {"k": [2]}]
    with pytest.raises(ValueError):
        dumps({"rows": [row]})
    row[1] = 0.5
    assert dumps({"rows": [row]}) == '{\n"rows": [\n[1, 0.5, {"k": [2]}]\n]\n}\n'
    row.append(row)
    with pytest.raises(ValueError, match="Circular reference"):
        dumps({"rows": [row]})

def test_dumps_without_the_c_encoder(corpus_graph, corpus_records, monkeypatch):
    """Without the ``_json`` accelerator, ``dumps`` falls back to the pure-Python
    encoder and writes the same bytes, still refusing NaN."""
    docs = [corpus_graph.to_dict(), emit_intermediate(corpus_records),
            {"rows": [{"y": "\u00e9", "x": 0.5}], "map": {"k2": [1, 2], "k1": {}}}]
    expected = [dumps(doc) for doc in docs]
    monkeypatch.setattr(talentgraph._io, "c_make_encoder", None)
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert [dumps(doc) for doc in docs] == expected
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError):
            dumps({"rows": [[1, value]]})


def test_write_document_writes_dumps(corpus_graph, corpus_records, tmp_path, capsys):
    """A document written to a file or to stdout has the bytes of ``dumps``."""
    for name, doc in [("graph", corpus_graph.to_dict()),
                      ("intermediate", emit_intermediate(corpus_records))]:
        path = tmp_path / f"{name}.json"
        write_document(doc, path)
        assert path.read_bytes() == dumps(doc).encode("utf-8")
        write_document(doc)
        assert capsys.readouterr().out == dumps(doc)
