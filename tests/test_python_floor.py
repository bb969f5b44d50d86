"""Every module of the package parses as the oldest Python that
``pyproject.toml``'s ``requires-python`` admits, so syntax newer than that
floor fails here, whichever newer interpreter runs the tests."""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
MODULES = sorted((ROOT / "src" / "talentgraph").glob("*.py"))


def python_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=python_floor())


def test_newer_syntax_fails_at_the_floor():
    """The check can fail: ``except*`` came in Python 3.11."""
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=python_floor())
