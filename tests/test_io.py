"""The versioned JSON document format: version policy and round trips."""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talentgraph import _io
from talentgraph._io import dumps, write_document
from talentgraph.errors import (
    DocumentFormatError,
    FixtureError,
    GazetteerFormatError,
    GraphFormatError,
    LexiconFormatError,
)
from talentgraph.evaluation import load_gold
from talentgraph.graph import KnowledgeGraph
from talentgraph.intermediate import (
    emit_intermediate,
    load_intermediate,
    read_intermediate,
    write_intermediate,
)
from talentgraph.lexicon import load_sentiment_gazetteer, load_skill_lexicon
from talentgraph.parser import parse_duration

from conftest import build_graph
from test_graph import exp, record

GRAPH_DOC = {"config": {"duration_bonus_factor": 0.5, "duration_cap_months": 120}}

# (loader, error class, smallest valid document, whether it reads a file)
LOADERS = {
    "lexicon": (load_skill_lexicon, LexiconFormatError, {"skills": []}, True),
    "gazetteer": (load_sentiment_gazetteer, GazetteerFormatError, {"entries": []}, True),
    "gold": (load_gold, FixtureError, {}, True),
    "graph-load": (KnowledgeGraph.load, GraphFormatError, GRAPH_DOC, True),
    "graph-from-dict": (KnowledgeGraph.from_dict, GraphFormatError, GRAPH_DOC, False),
    "read-intermediate": (read_intermediate, DocumentFormatError, {"jobseekers": {}}, True),
    "load-intermediate": (load_intermediate, DocumentFormatError, {"jobseekers": {}}, False),
}


@pytest.mark.parametrize("version", [99, True, "1", 1.0])
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_loaders_reject_other_schema_versions(tmp_path, name, version):
    loader, error_cls, doc, from_file = LOADERS[name]
    path = tmp_path / "doc.json"

    def load(schema_version):
        versioned = {**doc, "schema_version": schema_version}
        if not from_file:
            return loader(versioned)
        path.write_text(json.dumps(versioned), encoding="utf-8")
        return loader(path)

    load(1)
    with pytest.raises(error_cls, match="schema_version") as err:
        load(version)
    if from_file:
        assert str(path) in str(err.value)


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


def test_write_document_joins_batches(monkeypatch, corpus_graph, corpus_records, tmp_path, capsys):
    """A document written in many small batches, to a file or to stdout,
    has the bytes of ``dumps``."""
    monkeypatch.setattr(_io, "_WRITE_BATCH", 3)
    for name, doc in [("graph", corpus_graph.to_dict()),
                      ("intermediate", emit_intermediate(corpus_records))]:
        assert len(list(_io._ENCODER.iterencode(doc))) > 10 * _io._WRITE_BATCH
        path = tmp_path / f"{name}.json"
        write_document(doc, path)
        assert path.read_bytes() == dumps(doc).encode("utf-8")
        write_document(doc)
        assert capsys.readouterr().out == dumps(doc)
