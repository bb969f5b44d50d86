"""Only ``talentgraph._io`` decodes JSON: every other module of the package
reads a document through ``read_document``, so every file is decoded, and
every fault in it located at the file, by one rule."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "talentgraph"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "_io.py")
DECODERS = {"load", "loads"}


def json_decodes(source: str) -> list[int]:
    """The lines of ``source`` that call ``json.load`` or ``json.loads``, or
    import either from ``json``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in DECODERS and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"):
            lines.append(node.lineno)
        if (isinstance(node, ast.ImportFrom) and node.module == "json"
                and any(alias.name in DECODERS for alias in node.names)):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_but_io_decodes_json(path):
    assert json_decodes(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_each_way_to_decode():
    """The check can fail, and ``_io`` itself decodes."""
    assert json_decodes("import json\njson.loads(text)\njson.load(f)\n") == [2, 3]
    assert json_decodes("from json import dumps, loads\n") == [1]
    assert json_decodes("import json\njson.dumps(doc)\n") == []
    assert json_decodes((PACKAGE / "_io.py").read_text(encoding="utf-8"))
