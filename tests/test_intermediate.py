from __future__ import annotations

import json

import pytest

from talentgraph._io import dumps
from talentgraph.errors import DocumentFormatError, DuplicateJobseekerError
from talentgraph.intermediate import (
    emit_intermediate,
    load_intermediate,
    read_intermediate,
    write_intermediate,
)
from talentgraph.lexicon import parse_skill_records
from talentgraph.stats import compute_graph_stats, compute_stats

from test_graph import exp, record


def test_emit_nests_jobseeker_org_project(corpus_records):
    jane = corpus_records[0]
    doc = emit_intermediate([jane])
    body = doc["jobseekers"]["js0000-jane-doe"]
    assert body["_name"] == "Jane Doe"
    assert body["_declared_skills"] == ["c++", "java", "python"]
    assert set(body) == {"_name", "_declared_skills", "acme", "initech"}
    assert body["acme"]["project1"]["title"] == "Payment Platform"
    assert body["acme"]["project1"]["duration"] == "Jan 2020 - Jun 2021"
    assert "details" in body["acme"]["project1"]


def test_emit_two_projects_same_org():
    rec = record(
        "js0",
        experiences=[
            exp("acme", "first", title="One", raw="1 year"),
            exp("acme", "second", title="Two", raw="2 years"),
        ],
    )
    doc = emit_intermediate([rec])
    projects = doc["jobseekers"]["js0"]["acme"]
    assert set(projects) == {"project1", "project2"}
    assert projects["project2"]["title"] == "Two"


def test_emit_empty():
    assert emit_intermediate([]) == {"schema_version": 1, "jobseekers": {}}
    assert load_intermediate({"schema_version": 1, "jobseekers": {}}) == []


def test_emit_duplicate_jobseeker():
    with pytest.raises(DuplicateJobseekerError):
        emit_intermediate([record("js0"), record("js0")])


@pytest.mark.parametrize("org", ["_name", "_declared_skills", "_x", "_"])
def test_emit_rejects_a_reserved_organization_key(org):
    """Such a key would overwrite a reserved slot or make a document that does not load."""
    rec = record("js0", experiences=[exp("acme", "first"), exp(org, "second")])
    message = rf"^jobseekers\.js0\.{org}: organization key is reserved$"
    with pytest.raises(DocumentFormatError, match=message):
        emit_intermediate([rec])


def test_round_trip_on_corpus(corpus_records, tmp_path):
    path = tmp_path / "intermediate.json"
    write_intermediate(corpus_records, path)
    assert read_intermediate(path) == corpus_records


def test_round_trip_document_direction(corpus_records):
    doc = emit_intermediate(corpus_records)
    again = emit_intermediate(load_intermediate(doc))
    assert again == doc


def test_round_trip_via_json_text(corpus_records):
    text = dumps(emit_intermediate(corpus_records))
    assert load_intermediate(json.loads(text)) == corpus_records


def test_round_trip_preserves_interleaved_org_order():
    rec = record(
        "js0",
        experiences=[
            exp("acme", "a", months=12, raw="1 year"),
            exp("globex", "b", months=24, raw="2 years"),
            exp("acme", "c", months=36, raw="3 years"),
        ],
    )
    loaded = load_intermediate(emit_intermediate([rec]))
    assert [e.organization for e in loaded[0].experiences] == ["acme", "globex", "acme"]
    assert [e.duration_months for e in loaded[0].experiences] == [12, 24, 36]


def test_duration_reparsed_deterministically():
    rec = record("js0", experiences=[exp("acme", "x", months=999, raw="2 years")])
    loaded = load_intermediate(emit_intermediate([rec]))
    # months are recomputed from the raw string
    assert loaded[0].experiences[0].duration_months == 24


def test_missing_details_names_path():
    doc = {
        "schema_version": 1,
        "jobseekers": {
            "js0": {"acme": {"project1": {"title": "T", "duration": "1 year"}}}
        },
    }
    with pytest.raises(DocumentFormatError) as err:
        load_intermediate(doc)
    assert "jobseekers.js0.acme.project1.details" in str(err.value)


def test_malformed_document_shapes():
    with pytest.raises(DocumentFormatError):
        load_intermediate([])
    with pytest.raises(DocumentFormatError):
        load_intermediate({"jobseekers": {"js0": "not an object"}})
    with pytest.raises(DocumentFormatError):
        load_intermediate({"jobseekers": {"js0": {"_unknown": 1}}})
    with pytest.raises(DocumentFormatError):
        load_intermediate(
            {"jobseekers": {"js0": {"acme": {"p": {"title": "t", "duration": "d",
                                                   "details": "x", "seq": -1}}}}}
        )


@pytest.mark.parametrize("doc, message", [
    ({"jobseekers": {"js0": {"acme": []}}}, "jobseekers.js0.acme: expected a project object"),
    ({"jobseekers": {"js0": {"acme": {"p1": "x"}}}}, "jobseekers.js0.acme.p1: expected an object"),
], ids=["org-not-object", "project-not-object"])
def test_malformed_document_shape_is_located(doc, message):
    with pytest.raises(DocumentFormatError) as err:
        load_intermediate(doc)
    assert str(err.value) == message


def test_minimal_document_without_extensions_loads():
    doc = {
        "schema_version": 1,
        "jobseekers": {
            "jobseekerid": {
                "org1": {
                    "project1": {"title": "project title", "duration": "2 years",
                                 "details": "filtered text"},
                    "project2": {"title": "project title", "duration": "1 year",
                                 "details": "more text"},
                }
            }
        },
    }
    records = load_intermediate(doc)
    assert len(records) == 1
    assert len(records[0].experiences) == 2
    assert records[0].experiences[0].organization == "org1"


# -- stats -------------------------------------------------------------------

def test_avg_projects(lexicon):
    records = [
        record("js0", experiences=[exp("a", "x")]),
        record("js1", experiences=[exp("a", "x"), exp("b", "y"), exp("c", "z")]),
    ]
    stats = compute_stats(records, lexicon)
    assert stats.avg_projects_per_resume == pytest.approx(2.0)


def test_empty_corpus_stats(lexicon):
    stats = compute_stats([], lexicon)
    assert stats.resume_count == 0
    assert stats.avg_skills_per_resume == 0.0
    assert stats.skills_by_category == {}


def test_avg_twelve_skills_per_resume():
    skills = [f"skill{i:02d}" for i in range(24)]
    lexicon = parse_skill_records(
        [{"canonical": s, "category": "misc", "aliases": [s]} for s in skills]
    )
    records = [
        record("js0", declared=skills[:12]),
        record("js1", declared=skills[12:]),
    ]
    stats = compute_stats(records, lexicon)
    assert stats.distinct_skills == 24
    assert stats.avg_skills_per_resume == pytest.approx(12.0)


def test_corpus_stats_hand_counted(corpus_records, lexicon):
    stats = compute_stats(corpus_records, lexicon)
    assert stats.resume_count == 6
    assert stats.distinct_skills == 9
    assert stats.avg_skills_per_resume == pytest.approx(16 / 6)
    assert stats.avg_projects_per_resume == pytest.approx(7 / 6)
    assert stats.skills_by_category == {
        "programming languages": 3,
        "operating systems": 1,
        "database technologies": 1,
        "scripting languages": 1,
        "middleware technologies": 2,
        "web technologies": 1,
    }


def test_graph_stats_agree_on_fixture(corpus_records, lexicon, corpus_graph):
    # every mentioned skill is also declared in the fixture corpus, so the
    # edge-based and record-based statistics coincide
    record_stats = compute_stats(corpus_records, lexicon)
    graph_stats = compute_graph_stats(corpus_graph)
    assert graph_stats.resume_count == record_stats.resume_count
    assert graph_stats.distinct_skills == record_stats.distinct_skills
    assert graph_stats.avg_skills_per_resume == pytest.approx(
        record_stats.avg_skills_per_resume
    )
    assert graph_stats.avg_projects_per_resume == pytest.approx(
        record_stats.avg_projects_per_resume
    )
    assert graph_stats.skills_by_category == record_stats.skills_by_category


def test_graph_stats_empty():
    from talentgraph.graph import KnowledgeGraph

    stats = compute_graph_stats(KnowledgeGraph())
    assert stats.resume_count == 0
    assert stats.distinct_skills == 0
