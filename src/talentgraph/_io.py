"""The versioned JSON document format shared by every file the package
reads or writes: lexicon, gazetteer, graph, intermediate document, gold
labels and the CLI's JSON output.

A document is a UTF-8 JSON object, and no object in it repeats a key. Its
"schema_version", when present, must be 4 for a graph file and 1 for any
other document; a missing field reads as 1. Its other keys are the sections
of its kind, each a list or an object; an absent section reads as an empty
one. Only ``read_document`` decodes a file, and each fault it raises names
the file. Every document is written in one canonical layout: top-level keys
sorted, one per line; each element of a non-empty top-level list or object on
its own line, encoded by the C encoder (sorted keys, no indent, non-ASCII
escaped); one trailing newline. Identical content gives identical bytes.
"""
from __future__ import annotations

import json
import sys
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable

SCHEMA_VERSION = 1


def _encoder():
    """Encode one value: sorted keys, non-ASCII escaped, and a ValueError for NaN
    or Infinity, which are not JSON. Make one per document: the C encoder serves
    all its rows, but a failed encode leaves its circular-reference markers set.
    No ``indent``: with one, CPython falls back to its pure-Python encoder.
    """
    if c_make_encoder is None:
        return json.JSONEncoder(sort_keys=True, allow_nan=False).encode
    encode = c_make_encoder({}, json.JSONEncoder().default, encode_basestring_ascii,
                            None, ": ", ", ", True, False, False)
    return lambda value: "".join(encode(value, 0))


def check_document(doc: object, error_cls: type[Exception], sections: dict[str, type],
                   version: int = SCHEMA_VERSION, remedy: str = "") -> dict:
    """A copy of ``doc``, an absent section of ``sections`` ({name: list or dict}) read
    as empty, if ``doc`` is an object of schema ``version`` with no other key and
    sections of those types; else raise ``error_cls`` (a wrong version's ends in ``remedy``)."""
    if not isinstance(doc, dict):
        raise error_cls("top level must be a JSON object")
    found = doc.get("schema_version", SCHEMA_VERSION)
    # type() rather than isinstance(): True == 1, but it is not a version.
    if type(found) is not int or found != version:
        raise error_cls(f"schema_version {found!r} is not supported "
                        f"(expected {version}){remedy}")
    for name in doc:
        if name not in sections and name != "schema_version":
            raise error_cls(f"unknown section {name!r}")
    doc = dict(doc)
    for name, kind in sections.items():
        if not isinstance(doc.setdefault(name, kind()), kind):
            raise error_cls(f"{name}: not {'a list' if kind is list else 'an object'}")
    return doc


def check_keys(obj: dict, known: set[str] | frozenset[str], error_cls: type[Exception],
               where: str = "") -> None:
    """Raise ``error_cls``, located at ``where``, naming the first key of ``obj``
    in its own order that is not in ``known``: no loader drops what it does not read."""
    if not obj.keys() <= known:
        name = next(key for key in obj if key not in known)
        raise error_cls(f"{where}unknown field {name!r}")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """An object's pairs as a dict; a repeated key, of which json keeps one value, raises."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return obj


def read_document(path: str | Path, kind: str, error_cls: type[Exception],
                  read: Callable[[object], Any]) -> Any:
    """``read(doc)``, ``doc`` the document in the file at ``path``; an ``error_cls`` that
    ``read`` raises is re-raised, class and attributes kept, with ``<path>: `` first."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error_cls(f"cannot read {kind} file {path}: {exc}") from exc
    try:
        doc = json.loads(raw, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # a JSONDecodeError, a repeated key or an over-long integer
        raise error_cls(f"{path}: not valid JSON ({exc})") from exc
    try:
        return read(doc)
    except error_cls as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _block(value: object, item, encode) -> str:
    """``value`` with each element of a non-empty list or object on a line
    of its own, encoded by ``item``; any other value encoded inline."""
    if value and isinstance(value, list):
        return "[\n" + ",\n".join(map(item, value)) + "\n]"
    if value and isinstance(value, dict):
        return "{\n" + ",\n".join(
            f"{encode(key)}: {item(value[key])}" for key in sorted(value)
        ) + "\n}"
    return encode(value)


def dumps(doc: dict) -> str:
    """The canonical text of a document."""
    encode = _encoder()
    return _block(doc, lambda value: _block(value, encode, encode), encode) + "\n"


def write_document(doc: dict, path: str | Path | None = None) -> None:
    """Write the canonical text of ``doc`` to the file at ``path``, or to
    stdout when no path is given."""
    write_text(dumps(doc), path)


def write_text(text: str, path: str | Path | None = None) -> None:
    """Write ``text`` (a document's text, or output that is not a document,
    such as a table) to ``path`` as UTF-8, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")
