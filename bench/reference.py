"""Expected answers computed from the generator's ground truth.

Nothing here imports the program: the rules come from the README contracts
(build, rank, explain, stats, eval), applied to what the generator put into
each resume. Comparisons allow GRAPH_TOL on floats and reorder ids only
inside groups of totals that are equal within that tolerance.
"""
from __future__ import annotations

import random
from collections import Counter

from corpus import Corpus, make_query

GRAPH_TOL = 1e-9
DURATION_BONUS_FACTOR = 0.5
DURATION_CAP_MONTHS = 120


class Reference:
    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        # jobseeker -> skill -> [weight_sum, support_count, months_sum]
        self.edges: dict[str, dict[str, list]] = {}
        self.projects: dict[str, list[tuple[str, frozenset[str], float]]] = {}
        orgs, org_skill, skill_project = set(), set(), 0
        for resume in corpus.resumes:
            acc = {skill: [0.0, 0, 0] for skill in resume.declared}
            projects = []
            for ordinal, exp in enumerate(resume.experiences):
                orgs.add(exp.org)
                pkey = f"{resume.jobseeker_id}:p{ordinal}"
                projects.append((pkey, exp.mentioned, exp.score))
                for skill in exp.mentioned:
                    edge = acc.setdefault(skill, [0.0, 0, 0])
                    edge[0] += exp.score
                    edge[1] += 1
                    edge[2] += exp.months
                    org_skill.add((exp.org, skill))
                    skill_project += 1
            self.edges[resume.jobseeker_id] = acc
            self.projects[resume.jobseeker_id] = projects
        self.skill_nodes = {s for acc in self.edges.values() for s in acc}
        resumes = len(corpus.resumes)
        self.node_counts = {
            "jobseeker": resumes,
            "skill": len(self.skill_nodes),
            "organization": len(orgs),
            "project": sum(len(r.experiences) for r in corpus.resumes),
        }
        self.edge_counts = {
            "jobseeker_skill": sum(len(acc) for acc in self.edges.values()),
            "skill_project": skill_project,
            "org_skill": len(org_skill),
            "jobseeker_project": self.node_counts["project"],
            "project_org": self.node_counts["project"],
        }
        self.ids = sorted(self.edges)

    # -- derived strengths --------------------------------------------------

    def parts(self, jobseeker: str, skill: str) -> tuple[float, float, float, int]:
        """(sentiment mean, duration bonus, years, support count)."""
        edge = self.edges[jobseeker].get(skill)
        if edge is None:
            return 0.0, 0.0, 0.0, 0
        weight_sum, support, months = edge
        mean = weight_sum / support if support else 0.0
        bonus = DURATION_BONUS_FACTOR * min(months, DURATION_CAP_MONTHS) / DURATION_CAP_MONTHS
        return mean, bonus, months / 12.0, support

    def satisfies(self, jobseeker: str, term) -> bool:
        skill, lo, hi = term
        if skill not in self.edges[jobseeker]:
            return False
        years = self.edges[jobseeker][skill][2] / 12.0
        return (lo is None or years >= lo) and (hi is None or years <= hi)

    def rank(self, terms, top_k: int) -> list[tuple[str, float, list]]:
        """Every qualifying jobseeker, best first; the caller cuts at top_k."""
        rows = []
        for jobseeker in self.ids:
            if all(self.satisfies(jobseeker, t) for t in terms):
                per_skill = []
                for skill, _, _ in terms:
                    mean, bonus, years, _ = self.parts(jobseeker, skill)
                    per_skill.append((skill, mean + bonus, years))
                rows.append((jobseeker, sum(s for _, s, _ in per_skill), per_skill))
        rows.sort(key=lambda row: (-row[1], row[0]))
        return rows

    def explain(self, jobseeker: str, terms) -> dict:
        out = []
        for term in terms:
            skill, lo, hi = term
            mean, bonus, years, support = self.parts(jobseeker, skill)
            out.append({
                "skill": skill,
                "strength": mean + bonus,
                "sentiment_mean": mean,
                "duration_bonus": bonus,
                "years": years,
                "support_count": support,
                "projects": [p for p, mentioned, _ in self.projects[jobseeker] if skill in mentioned],
                "min_years": lo,
                "max_years": hi,
                "satisfied": self.satisfies(jobseeker, term),
            })
        return {
            "jobseeker_id": jobseeker,
            "total_score": sum(t["strength"] for t in out),
            "qualifies": all(t["satisfied"] for t in out),
            "terms": out,
        }

    def stats(self) -> dict:
        resumes = self.node_counts["jobseeker"]
        categories = Counter(
            self.corpus.by_canonical[s].category for s in self.skill_nodes
        )
        return {
            "resume_count": resumes,
            "distinct_skills": len(self.skill_nodes),
            "avg_skills_per_resume": self.edge_counts["jobseeker_skill"] / resumes,
            "avg_projects_per_resume": self.edge_counts["jobseeker_project"] / resumes,
            "skills_by_category": dict(sorted(categories.items())),
        }

    # -- gold labels --------------------------------------------------------

    def gold_doc(self, rng: random.Random, jobseekers: int = 30, projects: int = 40,
                 queries: int = 8) -> dict:
        """Gold labels that a correct graph scores perfectly on.

        Skills are the declared plus mentioned ones, a project is positive
        when it carries a skill edge and a nonzero score, and each query's
        relevant set is the reference's leading tie group.
        """
        sample = rng.sample(self.ids, min(jobseekers, len(self.ids)))
        all_projects = [p for js in self.ids for p in self.projects[js]]
        labelled = rng.sample(all_projects, min(projects, len(all_projects)))
        gold_queries, seen = [], set()
        while len(gold_queries) < queries:
            text, terms, _ = make_query(self.corpus, rng, self.skill_nodes)
            rows = self.rank(terms, 10)
            if not rows or text in seen:
                continue
            seen.add(text)
            lead = [r[0] for r in rows if abs(r[1] - rows[0][1]) <= GRAPH_TOL]
            gold_queries.append({"query": text, "relevant": lead})
        return {
            "schema_version": 1,
            "skills": {js: sorted(self.edges[js]) for js in sample},
            "sentiment": {
                pkey: "positive" if mentioned and score > 0 else "neutral"
                for pkey, mentioned, score in labelled
            },
            "queries": gold_queries,
        }


# -- comparisons -------------------------------------------------------------


def ranking_error(got: list[tuple[str, float | None]], want: list, top_k: int) -> str | None:
    """Why a returned ranking differs from the reference, or None.

    ``got`` holds (id, total) pairs, total None when the output shows no
    exact total; ``want`` is the full reference list from ``Reference.rank``.
    """
    expected = want[:top_k]
    if len(got) != len(expected):
        return f"{len(got)} results, expected {len(expected)}"
    if len({jid for jid, _ in got}) != len(got):
        return "duplicate ids"
    totals = {row[0]: row[1] for row in want}
    i = 0
    while i < len(expected):
        j = i + 1
        while j < len(want) and abs(want[j][1] - want[j - 1][1]) <= GRAPH_TOL:
            j += 1
        # Ids may be permuted within a group of equal totals; a group cut by
        # top_k may show any of its members.
        group = {row[0] for row in want[i:j]}
        shown = {jid for jid, _ in got[i:min(j, len(expected))]}
        if not shown <= group:
            return f"rank {i + 1}: got {sorted(shown - group)[:3]}, expected one of {sorted(group)[:3]}"
        i = j
    for jid, total in got:
        if total is not None and abs(total - totals[jid]) > GRAPH_TOL:
            return f"{jid}: total {total!r}, expected {totals[jid]!r}"
    return None


def per_skill_error(jobseeker: str, per_skill, ref: Reference) -> str | None:
    for skill, strength, years in per_skill:
        mean, bonus, want_years, _ = ref.parts(jobseeker, skill)
        if abs(strength - (mean + bonus)) > GRAPH_TOL or abs(years - want_years) > GRAPH_TOL:
            return f"{jobseeker}/{skill}: ({strength}, {years}) expected ({mean + bonus}, {want_years})"
    return None


def dict_error(got, want, where: str = "") -> str | None:
    """First difference between two JSON-like values, floats within GRAPH_TOL."""
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return None if abs(got - want) <= GRAPH_TOL else f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"
        for key in want:
            error = dict_error(got[key], want[key], f"{where}.{key}")
            if error:
                return error
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: {got!r} != {want!r}"
        for i, (g, w) in enumerate(zip(got, want)):
            error = dict_error(g, w, f"{where}[{i}]")
            if error:
                return error
        return None
    return None if got == want else f"{where}: {got!r} != {want!r}"


PERFECT_EVAL = {
    "extraction": {"precision": 1.0, "recall": 1.0, "f1": 1.0},
    "sentiment": {"accuracy": 1.0, "precision": 1.0, "recall": 1.0},
    "topk": {"3": 1.0, "5": 1.0, "10": 1.0},
}

