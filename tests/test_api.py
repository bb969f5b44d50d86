"""The package's public name lists."""
from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize("module", ["talentgraph", "talentgraph.parser"])
def test_all_names_resolve_once(module):
    """A removed name left in ``__all__`` breaks ``from module import *``."""
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
