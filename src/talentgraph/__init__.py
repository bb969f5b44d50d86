"""Talent analytics over resumes: parsing, a sentiment-weighted skill
knowledge graph, and skill-based ranking queries.

Public names resolve on first use (PEP 562): ``import talentgraph`` imports
no submodule, and ``talentgraph.execute`` imports ``talentgraph.query`` the
first time it is read. Nothing resolved is stored here: every access reads
the defining module's current attribute, so rebinding one (as
``bench/tracing.py`` does, and undoes) shows through the package.
"""
import importlib
import sys

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "cli": (),
    "errors": ("TalentGraphError",),
    "evaluation": (),
    "graph": ("EdgeKind", "KnowledgeGraph", "NodeId", "NodeKind", "ScoringConfig", "WeightedEdge"),
    "intermediate": ("emit_intermediate", "load_intermediate"),
    "lexicon": ("SentimentGazetteer", "SkillLexicon", "dump_sentiment_gazetteer",
                "dump_skill_lexicon", "load_sentiment_gazetteer", "load_skill_lexicon",
                "normalize_skill"),
    "parser": ("ExperienceEntry", "ResumeRecord", "extract_skills", "normalize_org",
               "parse_duration", "parse_resume", "split_sections"),
    "query": ("Query", "QueryTerm", "RankedResult", "execute", "explain", "parse_query"),
    "scoring": ("score_description",),
    "stats": ("CorpusStats", "compute_graph_stats", "compute_stats"),
    "tokenization": ("tokenize",),
}
# Each public name and its module's qualified name.
_MODULE_OF = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(sys.modules.get(module) or importlib.import_module(module), name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
