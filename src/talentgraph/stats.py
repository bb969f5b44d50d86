"""Corpus and graph statistics."""
from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Iterable

# The aliases: read per node.
from .graph import _JOBSEEKER, _JOBSEEKER_SKILL, _PROJECT, _SKILL, KnowledgeGraph
from .lexicon import SkillLexicon

if TYPE_CHECKING:
    from .parser import ResumeRecord


@dataclass
class CorpusStats:
    resume_count: int = 0
    distinct_skills: int = 0
    avg_skills_per_resume: float = 0.0
    avg_projects_per_resume: float = 0.0
    skills_by_category: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def compute_stats(records: Iterable[ResumeRecord], lexicon: SkillLexicon) -> CorpusStats:
    """Counts and means over parsed records (declared skills)."""
    records = list(records)
    if not records:
        return CorpusStats()
    all_skills: set[str] = set()
    skill_total = 0
    project_total = 0
    for record in records:
        all_skills |= record.declared_skills
        skill_total += len(record.declared_skills)
        project_total += len(record.experiences)
    categories = Counter(lexicon.categories.get(s) or "uncategorized" for s in all_skills)
    return CorpusStats(
        resume_count=len(records),
        distinct_skills=len(all_skills),
        avg_skills_per_resume=skill_total / len(records),
        avg_projects_per_resume=project_total / len(records),
        skills_by_category=dict(categories),
    )


def compute_graph_stats(graph: KnowledgeGraph) -> CorpusStats:
    """Same statistics read off a built graph (skills = jobseeker-skill edges)."""
    resume_count = project_count = 0  # each project has one jobseeker-project edge
    categories: Counter = Counter()
    for node, attrs in graph.nodes.items():
        if node.kind is _JOBSEEKER:
            resume_count += 1
        elif node.kind is _SKILL:
            categories[attrs.get("category") or "uncategorized"] += 1
        elif node.kind is _PROJECT:
            project_count += 1
    if resume_count == 0:
        return CorpusStats()
    return CorpusStats(
        resume_count=resume_count,
        distinct_skills=categories.total(),
        avg_skills_per_resume=graph.edge_count(_JOBSEEKER_SKILL) / resume_count,
        avg_projects_per_resume=project_count / resume_count,
        skills_by_category=dict(categories),
    )
