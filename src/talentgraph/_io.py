"""The versioned JSON document format shared by every file the package
reads or writes: lexicon, gazetteer, graph, intermediate document, gold
labels and the CLI's JSON output.

A document is a UTF-8 JSON object. Its "schema_version", when present, must
be the integer 1; a missing field reads as 1. Documents are written in one
canonical byte form: 2-space indent, sorted keys, one trailing newline, so
identical content always gives identical bytes.
"""
from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path
from typing import TextIO

SCHEMA_VERSION = 1

_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)
# Chunks joined per file write: with ``indent`` the encoder is pure Python
# and yields many small chunks, and holding them all (as ``json.dumps``
# does) costs several times the size of the document.
_WRITE_BATCH = 8192


def check_document(doc: object, error_cls: type[Exception], where: str = "") -> dict:
    """Return ``doc`` if it is an object of a supported schema version, else
    raise ``error_cls`` with ``where`` (such as the file name) as locator."""
    if not isinstance(doc, dict):
        raise error_cls(f"{where}top level must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    # type() rather than isinstance(): True == 1, but it is not a version.
    if type(version) is not int or version != SCHEMA_VERSION:
        raise error_cls(
            f"{where}schema_version {version!r} is not supported (expected {SCHEMA_VERSION})"
        )
    return doc


def read_document(path: str | Path, kind: str, error_cls: type[Exception]) -> dict:
    """Read and check one document, raising ``error_cls`` located at the file."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error_cls(f"cannot read {kind} file {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise error_cls(f"{path}: not valid JSON ({exc})") from exc
    return check_document(doc, error_cls, f"{path}: ")


def dumps(doc: dict) -> str:
    """The canonical text of a document, as a string; ``write_document``
    writes the same bytes without holding them all."""
    return _ENCODER.encode(doc) + "\n"


def write_document(doc: dict, path: str | Path | None = None) -> None:
    """Write the canonical text of ``doc`` to the file at ``path``, or to
    stdout when no path is given, streamed in batches of encoder chunks."""
    if not path:
        _write_chunks(doc, sys.stdout)
        return
    with Path(path).open("w", encoding="utf-8") as out:
        _write_chunks(doc, out)


def _write_chunks(doc: dict, out: TextIO) -> None:
    chunks = _ENCODER.iterencode(doc)
    while batch := list(islice(chunks, _WRITE_BATCH)):
        out.write("".join(batch))
    out.write("\n")


def write_text(text: str, path: str | Path | None = None) -> None:
    """Write ``text`` (output that is not a document, such as a table) to
    ``path`` as UTF-8, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")
