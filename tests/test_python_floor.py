"""Every module of the package parses as the oldest Python that
``pyproject.toml``'s ``requires-python`` admits, and every regular expression
it compiles uses no construct newer than that floor, so either fails here,
whichever newer interpreter runs the tests."""
from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

from talentgraph.lexicon import load_skill_lexicon
from talentgraph.tokenization import DEFAULT_KEEP_CHARS, token_pattern

from conftest import LEXICON_FILE

ROOT = Path(__file__).parent.parent
MODULES = sorted((ROOT / "src" / "talentgraph").glob("*.py"))
# Python 3.11 added possessive quantifiers ("a++") and atomic groups ("(?>a)").
NEWER_OPCODES = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


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


def package_patterns() -> dict[str, re.Pattern[str]]:
    """Each pattern the package compiles: every module-level pattern, and
    ``token_pattern``'s for the default keep characters, for the fixture
    lexicon's, and for a set that keeps a dot, which takes its other branch."""
    patterns = {}
    for path in MODULES:
        if path.stem == "__main__":  # importing it runs the command line
            continue
        name = "talentgraph" if path.stem == "__init__" else f"talentgraph.{path.stem}"
        patterns.update((f"{path.stem}.{attr}", value)
                        for attr, value in vars(importlib.import_module(name)).items()
                        if isinstance(value, re.Pattern))
    keep_sets = (DEFAULT_KEEP_CHARS, load_skill_lexicon(LEXICON_FILE).phrase_index[0], "+#-.")
    patterns.update((f"token_pattern({keep!r})", token_pattern(keep)) for keep in keep_sets)
    return patterns


PATTERNS = package_patterns()


def newer_opcodes(pattern: str, flags: int = 0) -> set[str]:
    """The opcodes of ``NEWER_OPCODES`` in ``pattern``'s parse tree. Python 3.10
    has no ``re._parser``; there, compiling the package's patterns at import
    already rejects these constructs."""
    parser = pytest.importorskip("re._parser")
    found, stack = set(), [parser.parse(pattern, flags)]
    while stack:
        node = stack.pop()
        if isinstance(node, parser.SubPattern):
            for op, arg in node.data:
                found.add(op.name)
                stack.append(arg)
        elif isinstance(node, (list, tuple)):
            stack.extend(node)
    return found & NEWER_OPCODES


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_pattern_compiles_at_the_oldest_supported_python(name):
    pattern = PATTERNS[name]
    assert newer_opcodes(pattern.pattern, pattern.flags) == set()


def test_newer_regex_fails_at_the_floor():
    """The check can fail: Python 3.11 added possessive quantifiers and atomic groups."""
    assert newer_opcodes("[a-z]++") == {"POSSESSIVE_REPEAT"}
    assert newer_opcodes("x(?>[a-z]*)|y") == {"ATOMIC_GROUP"}
