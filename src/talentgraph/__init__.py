"""Talent analytics over resumes: parsing, a sentiment-weighted skill
knowledge graph, and skill-based ranking queries."""

__version__ = "0.1.0"

from .errors import TalentGraphError
from .graph import EdgeKind, KnowledgeGraph, NodeId, NodeKind, ScoringConfig, WeightedEdge
from .intermediate import emit_intermediate, load_intermediate
from .lexicon import (
    SentimentEntry,
    SentimentGazetteer,
    SkillEntry,
    SkillLexicon,
    dump_sentiment_gazetteer,
    dump_skill_lexicon,
    load_sentiment_gazetteer,
    load_skill_lexicon,
    lookup_sentiment,
    normalize_skill,
)
from .parser import (
    ExperienceEntry,
    ResumeRecord,
    SectionMap,
    extract_skills,
    normalize_org,
    parse_duration,
    parse_resume,
    split_sections,
)
from .query import Query, QueryTerm, RankedResult, execute, explain, parse_query
from .scoring import DescriptionScore, score_description
from .stats import CorpusStats, compute_graph_stats, compute_stats
from .tokenization import tokenize

__all__ = [
    "CorpusStats",
    "DescriptionScore",
    "EdgeKind",
    "ExperienceEntry",
    "KnowledgeGraph",
    "NodeId",
    "NodeKind",
    "Query",
    "QueryTerm",
    "RankedResult",
    "ResumeRecord",
    "ScoringConfig",
    "SectionMap",
    "SentimentEntry",
    "SentimentGazetteer",
    "SkillEntry",
    "SkillLexicon",
    "TalentGraphError",
    "WeightedEdge",
    "compute_graph_stats",
    "compute_stats",
    "dump_sentiment_gazetteer",
    "dump_skill_lexicon",
    "emit_intermediate",
    "execute",
    "explain",
    "extract_skills",
    "load_intermediate",
    "load_sentiment_gazetteer",
    "load_skill_lexicon",
    "lookup_sentiment",
    "normalize_org",
    "normalize_skill",
    "parse_duration",
    "parse_query",
    "parse_resume",
    "score_description",
    "split_sections",
    "tokenize",
    "__version__",
]
