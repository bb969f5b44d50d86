"""The nested jobseeker -> org -> project exchange document.

Shape::

    {
      "schema_version": 1,
      "jobseekers": {
        "js0000-jane-doe": {
          "_name": "Jane Doe",
          "_declared_skills": ["c++", "java"],
          "acme": {
            "project1": {
              "title": "Payment Platform",
              "duration": "Jan 2020 - Jun 2021",
              "details": "...",
              "seq": 0
            }
          }
        }
      }
    }

Inside a jobseeker object every non-underscore key is an organization
holding its projects; the reserved "_name" and "_declared_skills" siblings
carry what the org nesting cannot. Duration strings are preserved raw and
re-parsed to months on load (deterministically). The optional "seq" field
records each experience's position in the original record so grouping by
organization stays order-lossless. Loading rejects, located, any key it
does not read: a top-level key, an underscore key or a project key.

Jobseekers are keyed, not ordered: loading returns records sorted by
jobseeker id, which is the corpus order for parser-assigned ids.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterable

from ._io import SCHEMA_VERSION, check_document, check_keys, read_document, write_document
from .errors import DocumentFormatError, DuplicateJobseekerError
from .parser import ExperienceEntry, ResumeRecord, parse_duration

_RESERVED_NAME = "_name"
_RESERVED_SKILLS = "_declared_skills"
_SECTIONS = {"jobseekers": dict}
_PROJECT_FIELDS = frozenset({"title", "duration", "details", "seq"})


def emit_intermediate(records: Iterable[ResumeRecord]) -> dict:
    """Serialize records into the exchange document (plain dict); an
    organization starting with "_" would take a reserved key, so it raises."""
    jobseekers: dict[str, dict] = {}
    for record in records:
        if record.jobseeker_id in jobseekers:
            raise DuplicateJobseekerError(
                f"jobseeker {record.jobseeker_id!r} emitted twice"
            )
        body: dict = {
            _RESERVED_NAME: record.name,
            _RESERVED_SKILLS: sorted(record.declared_skills),
        }
        for seq, exp in enumerate(record.experiences):
            if exp.organization.startswith("_"):
                raise DocumentFormatError(f"jobseekers.{record.jobseeker_id}."
                                          f"{exp.organization}: organization key is reserved")
            org = body.setdefault(exp.organization, {})
            org[f"project{len(org) + 1}"] = {
                "title": exp.project_title,
                "duration": exp.duration_raw,
                "details": exp.details,
                "seq": seq,
            }
        jobseekers[record.jobseeker_id] = body
    return {"schema_version": SCHEMA_VERSION, "jobseekers": jobseekers}


def _require_str(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise DocumentFormatError(f"{path}: expected a string")
    return value


def load_intermediate(doc: dict) -> list[ResumeRecord]:
    """Inverse of emit_intermediate, modulo duration re-parsing."""
    jobseekers = check_document(doc, DocumentFormatError, _SECTIONS)["jobseekers"]

    records = []
    for jobseeker_id in sorted(jobseekers):
        path = f"jobseekers.{jobseeker_id}"
        body = jobseekers[jobseeker_id]
        if not isinstance(body, dict):
            raise DocumentFormatError(f"{path}: expected an object")

        name = body.get(_RESERVED_NAME, "unknown")
        name = _require_str(name, f"{path}.{_RESERVED_NAME}")
        raw_skills = body.get(_RESERVED_SKILLS, [])
        if not isinstance(raw_skills, list) or any(
            not isinstance(s, str) for s in raw_skills
        ):
            raise DocumentFormatError(
                f"{path}.{_RESERVED_SKILLS}: expected a list of strings"
            )

        staged = []  # (seq, document order, org, payload): (seq, order) is unique
        order = 0
        for org, projects in body.items():
            if org.startswith("_"):
                if org not in (_RESERVED_NAME, _RESERVED_SKILLS):
                    raise DocumentFormatError(f"{path}.{org}: unknown reserved key")
                continue
            if not isinstance(projects, dict):
                raise DocumentFormatError(f"{path}.{org}: expected a project object")
            for pkey, payload in projects.items():
                ppath = f"{path}.{org}.{pkey}"
                if not isinstance(payload, dict):
                    raise DocumentFormatError(f"{ppath}: expected an object")
                check_keys(payload, _PROJECT_FIELDS, DocumentFormatError, f"{ppath}: ")
                for required in ("title", "duration", "details"):
                    if required not in payload:
                        raise DocumentFormatError(f"{ppath}.{required}: missing")
                    _require_str(payload[required], f"{ppath}.{required}")
                seq = payload.get("seq", order)
                if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
                    raise DocumentFormatError(f"{ppath}.seq: expected a non-negative int")
                staged.append((seq, order, org, payload))
                order += 1

        experiences = []
        for seq, _, org, payload in sorted(staged):
            raw_duration = payload["duration"]
            experiences.append(
                ExperienceEntry(
                    organization=org,
                    project_title=payload["title"],
                    duration_months=parse_duration(raw_duration),
                    details=payload["details"],
                    duration_raw=raw_duration,
                )
            )
        records.append(
            ResumeRecord(
                jobseeker_id=jobseeker_id,
                name=name,
                declared_skills=set(raw_skills),
                experiences=experiences,
            )
        )
    return records


def write_intermediate(records: Iterable[ResumeRecord], path: str | Path) -> None:
    write_document(emit_intermediate(records), path)


def read_intermediate(path: str | Path) -> list[ResumeRecord]:
    return load_intermediate(read_document(path, "intermediate", DocumentFormatError, _SECTIONS))
