"""Weighted knowledge graph of jobseekers, skills, organizations, projects.

Edges carry (sum, count) accumulators rather than running means. A merge of
two graphs over disjoint corpora loads both graphs' rows, so ``_add_jobseeker``
sums every graph. Scores are summed as integers of 2**-64 units (exact for
scores >= 2**-11), so any ingestion order or merge tree gives the same
accumulators and file bytes.
The graph keeps only the facts its file holds: each jobseeker's
``{skill: WeightedEdge}`` (a ``WeightedEdge`` holds the accumulators only)
and each jobseeker's project rows by ordinal. The graph file (schema
version 4) holds each resume fact once: loading checks every row and
rebuilds the graph with the sums of construction, so a file cannot disagree
with itself; README, Graph file, gives its layout.

Construction per resume:

1. Score each experience's description once, if it mentions a skill, and write
   the resume as its graph file row: declared-only skills, and per experience
   [title, organization, months, score units, mentioned skills].
2. Add the row as a load does, by the file's row rule, so a record the file
   cannot hold is refused and changes nothing. Project keys are surrogate
   ("<jobseeker_id>:p<ordinal>"): project descriptions are never unified
   across resumes. Each mentioned skill's jobseeker-skill edge sums its
   experiences' scores and months; a declared-only skill's stays at zero.
3. The accumulated months feed a bounded duration bonus at read time:
   strength = mean(score) + factor * min(months, cap) / cap.

Reads never write. Lookups for one jobseeker (``jobseeker_skills``,
``supporting_projects``, ``project_score``) read that jobseeker's own
entries. The other four kinds (jobseeker-project, project-org, skill-project
and org-skill) are built from the project rows by each read of their edge
objects, one kind at a time (``edges_of_kind`` and ``get_edge`` build the
kind they read, ``edges`` all four), and never kept, so each of their edge
objects is a fresh copy; ``edge_count``, ``to_dot`` and ``==`` (which compares
``to_dict`` documents) build none. After construction the graph is immutable by
convention and so safe for concurrent reads.
Parallel ingestion builds shard graphs and merges them.

``NodeId``, the key of ``nodes``, compares and hashes by value. It is slotted
but not frozen, sparing a load a frozen constructor per node, so like a
finished graph it is immutable by convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterator, Mapping

from ._io import check_document, check_keys, read_document, write_document
from .errors import (DuplicateJobseekerError, GraphConfigError, GraphFormatError,
                     NodeNotFoundError)
from .lexicon import SentimentGazetteer, SkillLexicon

if TYPE_CHECKING:
    from .parser import ResumeRecord

GRAPH_SCHEMA_VERSION = 4
_REINGEST = "; re-run `talentgraph ingest` to rebuild the graph file"
WEIGHT_UNITS = 1 << 64  # accumulator units per score of 1.0
_UNIT = 2.0 ** -64  # multiplied in as a float: big-int division is slower
# The longest duration ``parser.parse_duration`` returns: "9999 years 9999 months".
MAX_DURATION_MONTHS = 12 * 9999 + 9999


class NodeKind(str, Enum):
    JOBSEEKER = "jobseeker"
    SKILL = "skill"
    ORGANIZATION = "organization"
    PROJECT = "project"


class EdgeKind(str, Enum):
    JOBSEEKER_SKILL = "jobseeker_skill"
    SKILL_PROJECT = "skill_project"
    ORG_SKILL = "org_skill"
    JOBSEEKER_PROJECT = "jobseeker_project"
    PROJECT_ORG = "project_org"


# The members under plain names, for per-node and per-edge code (build, load, save):
# CPython 3.11's ``EnumType.__getattr__`` makes each ``NodeKind.SKILL`` read cost about 0.2 us.
_JOBSEEKER, _SKILL, _ORGANIZATION, _PROJECT = NodeKind
_JOBSEEKER_SKILL, _SKILL_PROJECT, _ORG_SKILL, _JOBSEEKER_PROJECT, _PROJECT_ORG = EdgeKind
_DERIVED = {kind: kind for kind in (_SKILL_PROJECT, _ORG_SKILL, _JOBSEEKER_PROJECT, _PROJECT_ORG)}

_SECTIONS = {"config": dict, "skills": list, "jobseekers": list}
_CONFIG_FIELDS = {"duration_bonus_factor", "duration_cap_months", "tool_version"}


@dataclass(slots=True, unsafe_hash=True)  # not frozen; see the module docstring
class NodeId:
    kind: NodeKind
    key: str


@dataclass(slots=True)
class WeightedEdge:
    """An edge's accumulators; its endpoints are its key in its kind's dict."""
    weight_units: int = 0  # sum of quantized scores, in units of 2**-64
    support_count: int = 0
    months_sum: int = 0

    @property
    def weight_sum(self) -> float:
        """The sum of the scores, correctly rounded to a float."""
        return self.weight_units * _UNIT

    def mean_weight(self) -> float:
        return self.weight_units * _UNIT / self.support_count if self.support_count else 0.0


class _WeightTexts(dict):
    """Each mean weight's ``.3f`` text, formatted once: many edges share a weight."""
    def __missing__(self, mean: float) -> str:
        text = self[mean] = f"{mean:.3f}"
        return text


@dataclass(frozen=True)
class ScoringConfig:
    duration_bonus_factor: float = 0.5
    duration_cap_months: int = 120

    def __post_init__(self):
        # type() rather than isinstance(): a bool is an int in Python but not in JSON.
        factor, cap = self.duration_bonus_factor, self.duration_cap_months
        if type(factor) is not float and type(factor) is not int:
            raise GraphConfigError(f"duration_bonus_factor {factor!r} is not a number")
        if type(cap) is not int:
            raise GraphConfigError(f"duration_cap_months {cap!r} is not an integer")
        # Only a float can be non-finite; a huge int compares with 1e6 exactly.
        if type(factor) is float and not math.isfinite(factor):
            raise GraphConfigError("duration_bonus_factor must be finite")
        if factor < 0:
            raise GraphConfigError("duration_bonus_factor must be >= 0")
        if factor > 1e6:  # so sums of strengths stay finite
            raise GraphConfigError("duration_bonus_factor must be <= 1e6")
        if cap <= 0:
            raise GraphConfigError("duration_cap_months must be positive")
        if cap > 2**53:  # the integers a float holds exactly
            raise GraphConfigError("duration_cap_months must be <= 2**53")
        # A float, as the graph file writes and loads it.
        object.__setattr__(self, "duration_bonus_factor", float(factor))


def project_key(jobseeker_id: str, ordinal: int) -> str:
    return f"{jobseeker_id}:p{ordinal}"


def _fault(where: str, at: object, fault: str, ordinal: int | None = None) -> GraphFormatError:
    # The locator is formatted only for the row that is rejected.
    part = "" if ordinal is None else f".projects[{ordinal}]"
    return GraphFormatError(f"{where.format(at)}{part}: {fault}")


# The skills of a jobseeker the graph does not hold; read only.
_NO_EDGES: Mapping[str, WeightedEdge] = MappingProxyType({})


class KnowledgeGraph:
    def __init__(self, config: ScoringConfig | None = None):
        self.config = config or ScoringConfig()
        self.nodes: dict[NodeId, dict[str, str]] = {}
        # Every jobseeker -> {skill: jobseeker-skill edge}, and -> its project rows by
        # ordinal, each (project key, title, organization, months, score units, skills).
        self._jobseeker_skill: dict[str, dict[str, WeightedEdge]] = {}
        self._projects: dict[str, list[tuple]] = {}

    # -- construction -----------------------------------------------------

    def _add_jobseeker(self, row: object, known: set[str], orgs: set[str],
                       where: str, at: object) -> None:
        """Check one ``[id, name, declared, projects]`` row by the file's row rule, each fault
        located at ``where.format(at)``, and only then add its jobseeker's node, edges, project
        rows and their nodes. ``known`` holds the skills it may name, each given a node by the
        caller, and ``orgs`` the organizations with a node (README, Graph file)."""
        if type(row) is not list or len(row) != 4:
            raise _fault(where, at, "not an [id, name, declared, projects] row")
        jobseeker, name, declared, projects = row
        if not (isinstance(jobseeker, str) and isinstance(name, str)
                and type(declared) is list and type(projects) is list):
            raise _fault(where, at, "id and name must be strings, declared and projects lists")
        if jobseeker in self._jobseeker_skill:  # each jobseeker node has its entries
            raise _fault(where, at, f"duplicate jobseeker {jobseeker!r}")
        added = {NodeId(_JOBSEEKER, jobseeker): {"name": name}}  # with project and org nodes
        edges: dict[str, WeightedEdge] = {}
        get = edges.get
        rows = []
        for ordinal, project in enumerate(projects):
            if type(project) is not list or len(project) != 5:
                raise _fault(where, at, "not a [title, organization, months, score_units, "
                                        "skills] row", ordinal)
            title, org, months, units, mentioned = project
            if not (isinstance(title, str) and isinstance(org, str) and type(mentioned) is list):
                raise _fault(where, at, "title and organization must be strings, skills a list",
                             ordinal)
            # type(): JSON has no bool integers, and NaN or Infinity load as floats.
            if type(months) is not int or type(units) is not int:
                raise _fault(where, at, "months and score_units must be integers", ordinal)
            if not 0 <= months <= MAX_DURATION_MONTHS:
                raise _fault(where, at, f"months {months} outside [0, {MAX_DURATION_MONTHS}]",
                             ordinal)
            if not 0 <= units <= WEIGHT_UNITS:
                raise _fault(where, at, f"score_units {units} outside [0, 2**64]", ordinal)
            if units and not mentioned:
                raise _fault(where, at, "score_units without a mentioned skill", ordinal)
            try:  # one check per row; the loop only locates a fault
                clean = known.issuperset(mentioned) and len(set(mentioned)) == len(mentioned)
            except TypeError:  # an unhashable skill, which the loop names
                clean = False
            if not clean:
                for skill in mentioned:
                    if not isinstance(skill, str) or skill not in known:
                        raise _fault(where, at, f"unknown skill {skill!r}", ordinal)
                    if mentioned.count(skill) > 1:
                        raise _fault(where, at, f"skill {skill!r} is listed twice", ordinal)
            pkey = project_key(jobseeker, ordinal)  # the jobseeker is new, so its projects are
            added[NodeId(_PROJECT, pkey)] = {"title": title}
            if org not in orgs:  # an organization's node holds no attrs, so a rewrite keeps it
                orgs.add(org)
                added[NodeId(_ORGANIZATION, org)] = {}
            # A copy: the graph keeps the row, and the caller keeps the document.
            rows.append((pkey, title, org, months, units, tuple(mentioned)))
            for skill in mentioned:
                if (edge := get(skill)) is None:
                    edge = edges[skill] = WeightedEdge()
                edge.weight_units += units
                edge.support_count += 1
                edge.months_sum += months
        for skill in declared:
            if not isinstance(skill, str) or skill not in known:
                raise _fault(where + ".declared", at, f"unknown skill {skill!r}")
            edge = WeightedEdge()
            if edges.setdefault(skill, edge) is not edge:
                raise _fault(where + ".declared", at,
                             f"skill {skill!r} is listed twice or mentioned by a project")
        self.nodes.update(added)
        self._jobseeker_skill[jobseeker] = edges
        self._projects[jobseeker] = rows

    def add_resume(self, record: ResumeRecord, lexicon: SkillLexicon,
                   gazetteer: SentimentGazetteer) -> "KnowledgeGraph":
        """Ingest one parsed resume as the row ``to_dict`` would write for it, by the
        graph file's row rule. An already-ingested jobseeker id raises
        ``DuplicateJobseekerError``, and a record the file cannot hold (an id that is not a
        string, months outside the parser's range) a ``GraphFormatError``
        located at ``jobseeker '<id>'``; either leaves the graph unchanged."""
        # Read at call time: commands that never ingest never import these.
        from .parser import extract_skills
        from .scoring import score_description

        if isinstance(record.jobseeker_id, str) and record.jobseeker_id in self._jobseeker_skill:
            raise DuplicateJobseekerError(f"jobseeker {record.jobseeker_id!r} already ingested")
        projects, project_skills = [], set()
        for exp in record.experiences:
            mentioned = sorted(extract_skills(exp.details, lexicon))
            units = 0
            if mentioned:  # one score per description, the same for every skill
                units = round(score_description(exp.details, gazetteer) * WEIGHT_UNITS)
                project_skills.update(mentioned)
            projects.append([exp.project_title, exp.organization, exp.duration_months,
                             units, mentioned])
        known = project_skills.union(record.declared_skills)
        # key=str: a skill that is not a string sorts too, so the row rule can refuse it.
        row = [record.jobseeker_id, record.name, sorted(known - project_skills, key=str), projects]
        self._add_jobseeker(row, known, set(), "jobseeker {!r}", record.jobseeker_id)
        for skill in sorted(known):  # each a string, as the row rule checked
            if (node := NodeId(_SKILL, skill)) not in self.nodes:
                self.nodes[node] = {"category": lexicon.categories.get(skill) or ""}
        return self

    # -- lookups ----------------------------------------------------------

    def has_node(self, kind: NodeKind, key: str) -> bool:
        return NodeId(kind, key) in self.nodes

    def _require_node(self, kind: NodeKind, key: str) -> None:
        if not self.has_node(kind, key):
            raise NodeNotFoundError(f"no {kind.value} node {key!r}")

    def _derived(self, kind: EdgeKind) -> dict[tuple[str, str], WeightedEdge]:
        """The edges of one project-derived kind, ``{(source, target): edge}``, built
        from the project rows on each call and never kept."""
        kind = _DERIVED[kind]  # the member, for its plain value too; any other kind: KeyError
        edges: dict[tuple[str, str], WeightedEdge] = {}
        for jobseeker, rows in self._projects.items():
            for pkey, _, org, months, units, skills in rows:
                if kind is _JOBSEEKER_PROJECT:
                    edges[jobseeker, pkey] = WeightedEdge(0, 1, months)
                elif kind is _PROJECT_ORG:
                    edges[pkey, org] = WeightedEdge(0, 1, 0)
                elif kind is _SKILL_PROJECT:
                    edges.update(((skill, pkey), WeightedEdge(units, 1, 0)) for skill in skills)
                else:
                    for skill in skills:  # org-skill: the project scores summed
                        if (edge := edges.get((org, skill))) is None:
                            edge = edges[org, skill] = WeightedEdge()
                        edge.weight_units += units
                        edge.support_count += 1
        return edges

    @property
    def edges(self) -> Mapping[tuple[EdgeKind, str, str], WeightedEdge]:
        """Every edge by ``(kind, source, target)``, read only, for readers of the
        whole graph: built on each access, derived kinds included."""
        edges = {(_JOBSEEKER_SKILL, jobseeker, skill): edge
                 for jobseeker, skills in self._jobseeker_skill.items()
                 for skill, edge in skills.items()}
        for kind in _DERIVED:
            edges.update(((kind, source, target), edge)
                         for (source, target), edge in self._derived(kind).items())
        return MappingProxyType(edges)

    def edge_count(self, kind: EdgeKind) -> int:
        """The edges of ``kind``, counted from the kept rows: none is built."""
        if kind == _JOBSEEKER_SKILL:  # ==: a kind's plain value is accepted too
            return sum(map(len, self._jobseeker_skill.values()))
        if kind == _SKILL_PROJECT:
            return sum(len(row[5]) for rows in self._projects.values() for row in rows)
        if kind == _ORG_SKILL:
            return len({(row[2], skill) for rows in self._projects.values()
                        for row in rows for skill in row[5]})
        if kind == _JOBSEEKER_PROJECT or kind == _PROJECT_ORG:  # one per project row
            return sum(map(len, self._projects.values()))
        raise KeyError(kind)

    def get_edge(self, kind: EdgeKind, source: str, target: str) -> WeightedEdge | None:
        # A direct read, tested by identity first: queries make it per jobseeker and term.
        if kind is _JOBSEEKER_SKILL or kind == _JOBSEEKER_SKILL:
            return self._jobseeker_skill.get(source, _NO_EDGES).get(target)
        return self._derived(kind).get((source, target))

    def jobseeker_skills(self, jobseeker_id: str) -> Mapping[str, WeightedEdge]:
        """{skill: jobseeker-skill edge} of the jobseeker, read only; empty for
        no such jobseeker."""
        return MappingProxyType(self._jobseeker_skill.get(jobseeker_id, _NO_EDGES))

    def edges_of_kind(self, kind: EdgeKind) -> Iterator[tuple[str, str, WeightedEdge]]:
        """(source, target, edge) for every edge of ``kind``, sorted: a read of the
        whole graph, made on each call, so lookups by jobseeker use
        ``jobseeker_skills`` and ``supporting_projects``."""
        if kind == _JOBSEEKER_SKILL:  # walked in order: sorting a flat copy is slower
            yield from [(jobseeker, skill, edge) for jobseeker in sorted(self._jobseeker_skill)
                        for skill, edge in sorted(self._jobseeker_skill[jobseeker].items())]
        else:  # keys are unique within a kind, so no sort compares edges
            yield from sorted((source, target, edge)
                              for (source, target), edge in self._derived(kind).items())

    def jobseeker_ids(self) -> list[str]:
        return sorted(n.key for n in self.nodes if n.kind is NodeKind.JOBSEEKER)

    def skill_keys(self) -> list[str]:
        return sorted(n.key for n in self.nodes if n.kind is _SKILL)

    # -- derived strengths ------------------------------------------------

    def duration_bonus(self, months_sum: int) -> float:
        cap = self.config.duration_cap_months
        return self.config.duration_bonus_factor * min(months_sum, cap) / cap

    def edge_parts(self, edge: WeightedEdge | None) -> tuple[float, float, float, int]:
        """(sentiment mean, duration bonus, years, support count) of a
        jobseeker-skill edge; all zero for no edge. Strength is the sum of
        the first two."""
        if edge is None:
            return 0.0, 0.0, 0.0, 0
        return (edge.mean_weight(), self.duration_bonus(edge.months_sum),
                edge.months_sum / 12.0, edge.support_count)

    def jobseeker_skill_strength(self, jobseeker_id: str, skill: str) -> float:
        """Mean project sentiment for the skill plus the duration bonus."""
        self._require_node(NodeKind.JOBSEEKER, jobseeker_id)
        self._require_node(NodeKind.SKILL, skill)
        edge = self.get_edge(EdgeKind.JOBSEEKER_SKILL, jobseeker_id, skill)
        sentiment, bonus, _, _ = self.edge_parts(edge)
        return sentiment + bonus

    def supporting_projects(self, jobseeker_id: str, skill: str) -> list[str]:
        """Keys of this jobseeker's projects whose details mention the skill, by ordinal."""
        return [pkey for pkey, _, _, _, _, skills in self._projects.get(jobseeker_id, ())
                if skill in skills]

    def project_score(self, pkey: str) -> float:
        """The description score recorded on the project's skill edges (0 if none)."""
        self._require_node(NodeKind.PROJECT, pkey)
        jobseeker, _, ordinal = pkey.rpartition(":p")  # no ordinal holds ":p"
        _, _, _, _, units, _ = self._projects[jobseeker][int(ordinal)]
        return units * _UNIT  # the score on each of its skill-project edges

    # -- merge ------------------------------------------------------------

    def merge(self, other: "KnowledgeGraph") -> "KnowledgeGraph":
        """Load both graphs' rows as one graph: they must share the config, hold
        disjoint jobseekers and agree on the attrs of every skill both hold."""
        if self.config != other.config:
            raise GraphConfigError(f"config mismatch: {self.config} vs {other.config}")
        overlap = set(self.jobseeker_ids()) & set(other.jobseeker_ids())
        if overlap:
            raise DuplicateJobseekerError(f"jobseekers in both graphs: {sorted(overlap)}")
        doc, theirs = self.to_dict(), other.to_dict()
        skills = dict(doc["skills"])
        for key, attrs in theirs["skills"]:  # sorted, so a conflict names the first skill
            if skills.setdefault(key, attrs) != attrs:
                raise GraphConfigError(f"attrs mismatch on skill {key!r}: "
                                       f"{skills[key]} vs {attrs}")
        doc["skills"] = [[key, skills[key]] for key in sorted(skills)]
        doc["jobseekers"] = sorted(doc["jobseekers"] + theirs["jobseekers"])  # ids are unique
        return KnowledgeGraph.from_dict(doc)

    # -- persistence ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def to_dict(self) -> dict:
        """The graph document: each resume fact once, sorted (README, Graph file)."""
        from . import __version__

        skills, names = [], {}
        for node, attrs in self.nodes.items():
            if node.kind is _SKILL:
                skills.append([node.key, dict(attrs)])
            elif node.kind is _JOBSEEKER:
                names[node.key] = attrs["name"]
        skills.sort()  # keys are unique, so no sort compares attrs
        # Declared skills are the edges no project supports; the rest are sums of the rows.
        jobseekers = [
            [jobseeker, names[jobseeker],
             sorted(skill for skill, edge in edges.items() if not edge.support_count),
             [[title, org, months, units, sorted(mentioned)]
              for _, title, org, months, units, mentioned in self._projects[jobseeker]]]
            for jobseeker, edges in sorted(self._jobseeker_skill.items())
        ]
        return {
            "schema_version": GRAPH_SCHEMA_VERSION,
            "config": {"duration_bonus_factor": self.config.duration_bonus_factor,
                       "duration_cap_months": self.config.duration_cap_months,
                       "tool_version": __version__},
            "skills": skills,
            "jobseekers": jobseekers,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "KnowledgeGraph":
        """Check a graph document row by row and rebuild the graph from it, adding
        each jobseeker row as ``add_resume`` adds one. Each rejection is a
        ``GraphFormatError`` located at the config, a section, a row or a project
        row; see README, Graph file."""
        doc = check_document(doc, GraphFormatError, _SECTIONS, GRAPH_SCHEMA_VERSION, _REINGEST)
        config_doc = doc["config"]
        try:
            check_keys(config_doc, _CONFIG_FIELDS, GraphConfigError)
            version = config_doc.get("tool_version", "")
            if not isinstance(version, str):
                raise GraphConfigError(f"tool_version {version!r} is not a string")
            config = ScoringConfig(config_doc["duration_bonus_factor"],
                                   config_doc["duration_cap_months"])
        except (KeyError, GraphConfigError) as exc:
            raise GraphFormatError(f"bad config: {exc}") from exc

        graph = cls(config)
        known: set[str] = set()
        orgs: set[str] = set()  # each organization's node is added once
        for i, row in enumerate(doc["skills"]):
            if type(row) is not list or len(row) != 2:
                raise GraphFormatError(f"skills[{i}]: not a [key, attrs] row")
            key, attrs = row
            if not isinstance(key, str) or not isinstance(attrs, dict):
                raise GraphFormatError(f"skills[{i}]: bad key or attrs")
            for name, value in attrs.items():
                if not isinstance(value, str):
                    raise GraphFormatError(f"skills[{i}]: attr {name!r} is not a string")
            if key in known:
                raise GraphFormatError(f"skills[{i}]: duplicate skill {key!r}")
            known.add(key)
            graph.nodes[NodeId(_SKILL, key)] = dict(attrs)
        for i, row in enumerate(doc["jobseekers"]):
            graph._add_jobseeker(row, known, orgs, "jobseekers[{}]", i)
        return graph

    def save(self, path: str | Path) -> None:
        write_document(self.to_dict(), path)

    @classmethod
    def load(cls, path: str | Path) -> "KnowledgeGraph":
        return read_document(path, "graph", GraphFormatError, cls.from_dict)

    def to_dot(self) -> str:
        """Graphviz rendering with mean edge weights, for eyeballing fixtures: node
        kinds, then edge kinds, by value, each kind's rows sorted. The edge lines
        are rendered from the kept rows, and no edge object is built."""
        def quote(text: str) -> str:
            return text.replace("\\", "\\\\").replace('"', '\\"')

        lines = ["digraph talentgraph {"]
        nodes: dict[NodeKind, list[tuple]] = {kind: [] for kind in sorted(NodeKind)}
        for node, attrs in self.nodes.items():
            nodes[node.kind].append((node.key, attrs))
        # Each node's quoted dot id, made once and looked up by its edges' lines.
        ids: dict[NodeKind, dict[str, str]] = {kind: {} for kind in NodeKind}
        for kind, rows in nodes.items():
            rows.sort()  # keys are unique within a kind, so no sort compares attrs
            name, kind_ids = kind.value, ids[kind]
            for key, attrs in rows:
                dot_id = kind_ids[key] = f'"{name}:{quote(key)}"'
                label = attrs.get("name") or attrs.get("title") or key
                lines.append(f'  {dot_id} [label="{quote(label)}", kind="{name}"];')
        people, orgs, projects, skills = (ids[kind] for kind in nodes)  # by value
        texts = _WeightTexts()
        # The edge kinds by value. Jobseeker-project and project-org edges weigh 0,
        # and each skill-project edge its project's score.
        for jobseeker in sorted(self._projects):
            head = f"  {people[jobseeker]} -> "
            lines.extend(f'{head}{projects[pkey]} [label="jobseeker_project 0.000"];'
                         for pkey, *_ in sorted(self._projects[jobseeker]))
        for jobseeker in sorted(self._jobseeker_skill):
            head = f"  {people[jobseeker]} -> "
            lines.extend(f'{head}{skills[skill]} [label="jobseeker_skill '
                         f'{texts[edge.mean_weight()]}"];'
                         for skill, edge in sorted(self._jobseeker_skill[jobseeker].items()))
        project_rows = sorted(row for rows in self._projects.values() for row in rows)
        by_skill: dict[str, list[str]] = {}  # each skill's line tails, by project key
        org_skill: dict[str, dict[str, list[int]]] = {}  # org -> skill -> [units, count]
        for pkey, _, org, _, units, mentioned in project_rows:
            tail = f' -> {projects[pkey]} [label="skill_project {texts[units * _UNIT]}"];'
            of_org = org_skill.setdefault(org, {})
            for skill in mentioned:
                by_skill.setdefault(skill, []).append(tail)
                acc = of_org.setdefault(skill, [0, 0])
                acc[0] += units
                acc[1] += 1
        for org in sorted(org_skill):
            head = f"  {orgs[org]} -> "
            lines.extend(f'{head}{skills[skill]} [label="org_skill '
                         f'{texts[units * _UNIT / count]}"];'
                         for skill, (units, count) in sorted(org_skill[org].items()))
        lines.extend(f'  {projects[pkey]} -> {orgs[org]} [label="project_org 0.000"];'
                     for pkey, _, org, _, _, _ in project_rows)
        for skill in sorted(by_skill):
            head = f"  {skills[skill]}"
            lines.extend(head + tail for tail in by_skill[skill])
        return "\n".join(lines) + "\n}\n"
