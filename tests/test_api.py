"""The package's public name lists."""
from __future__ import annotations

import importlib
import sys

import pytest

import talentgraph

from conftest import run_python


PUBLIC_NAMES = [
    "CorpusStats", "EdgeKind", "ExperienceEntry", "KnowledgeGraph", "NodeId", "NodeKind",
    "Query", "QueryTerm", "RankedResult", "ResumeRecord", "ScoringConfig",
    "SentimentGazetteer", "SkillLexicon", "TalentGraphError", "WeightedEdge",
    "compute_graph_stats", "compute_stats", "dump_sentiment_gazetteer", "dump_skill_lexicon",
    "emit_intermediate", "execute", "explain", "extract_skills", "load_intermediate",
    "load_sentiment_gazetteer", "load_skill_lexicon", "normalize_org", "normalize_skill",
    "parse_duration", "parse_query", "parse_resume", "score_description", "split_sections",
    "tokenize", "__version__",
]


def test_public_names_are_pinned():
    """Refactors keep the package API: a name leaves or joins it only on purpose."""
    assert talentgraph.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("module", ["talentgraph", "talentgraph.parser"])
def test_all_names_resolve_once(module):
    """A removed name left in ``__all__`` breaks ``from module import *``."""
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_public_names_are_their_defining_modules_objects():
    """The package reads each name from its module on every access and
    stores none, so a rebinding in the module shows through the package."""
    names = [name for name in talentgraph.__all__ if name != "__version__"]
    for name in names:
        value = getattr(talentgraph, name)
        assert value.__module__.startswith("talentgraph."), name
        assert vars(sys.modules[value.__module__])[name] is value, name
    assert [name for name in names if name in vars(talentgraph)] == []


def test_star_import_binds_every_name_in_a_fresh_interpreter():
    code = ("import talentgraph\nfrom talentgraph import *\n"
            "print([n for n in talentgraph.__all__ if n not in globals()])")
    assert run_python("-c", code).stdout.decode().strip() == "[]"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'talentgraph' has no attribute 'nope'$"):
        talentgraph.nope
