"""Weighted knowledge graph of jobseekers, skills, organizations, projects.

Edges carry (sum, count) accumulators rather than running means, and two
graphs built from disjoint corpora merge by component-wise addition. Scores
are summed as integers of 2**-64 units (exact for scores >= 2**-11), so any
ingestion order or merge tree gives the same accumulators and file bytes.
``edges[(kind, source, target)]`` and ``get_edge`` give a ``WeightedEdge``
that holds the accumulators only: its kind and endpoints are its key. The
graph file (schema version 3) holds one section per node and edge kind, so
no row repeats its kind; README, Graph file, gives its layout and checks.

Construction per resume:

1. Ensure the jobseeker node and a skill node (plus a zero-accumulator
   jobseeker-skill edge) for every declared skill.
2. For each experience, ensure organization and project nodes with
   jobseeker-project and project-org edges; project keys are surrogate
   ("<jobseeker_id>:p<ordinal>") because project descriptions are never
   unified across resumes.
3. Score the description once (scope-free) and accumulate that same score
   into the skill-project edge of every skill mentioned in the details.
4. Accumulate the same score and the experience's months into the
   jobseeker-skill edge.
5. Accumulate the same score into the org-skill edge.
6. The accumulated months feed a bounded duration bonus at read time:
   strength = mean(score) + factor * min(months, cap) / cap.

Lookups by node (``out_edges``, ``in_edges``) go through one adjacency
index per (edge kind, direction), derived from ``edges`` on its first lookup
and emptied whenever a new edge is created, so ingestion builds none and a
command indexes only the kinds it reads. After construction the graph is
immutable by convention and safe for concurrent reads: readers racing on a
first lookup each build the same index and publish it with one dict item
assignment. Parallel ingestion builds shard graphs and merges them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping

from ._io import check_document, read_document, write_document
from .errors import (
    DuplicateJobseekerError,
    GraphConfigError,
    GraphFormatError,
    NodeNotFoundError,
)
from .lexicon import SentimentGazetteer, SkillLexicon

if TYPE_CHECKING:
    from .parser import ResumeRecord

GRAPH_SCHEMA_VERSION = 3
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


EDGE_ENDPOINTS: dict[EdgeKind, tuple[NodeKind, NodeKind]] = {
    EdgeKind.JOBSEEKER_SKILL: (NodeKind.JOBSEEKER, NodeKind.SKILL),
    EdgeKind.SKILL_PROJECT: (NodeKind.SKILL, NodeKind.PROJECT),
    EdgeKind.ORG_SKILL: (NodeKind.ORGANIZATION, NodeKind.SKILL),
    EdgeKind.JOBSEEKER_PROJECT: (NodeKind.JOBSEEKER, NodeKind.PROJECT),
    EdgeKind.PROJECT_ORG: (NodeKind.PROJECT, NodeKind.ORGANIZATION),
}

# Kinds in file order (a str enum member sorts by its value), and the graph
# file's section of each kind: "nodes/<kind>" or "edges/<kind>".
_NODE_ORDER, _EDGE_ORDER = sorted(NodeKind), sorted(EdgeKind)
_SECTIONS: dict[Enum, str] = {kind: f"nodes/{kind.value}" for kind in _NODE_ORDER} | {
    kind: f"edges/{kind.value}" for kind in _EDGE_ORDER}
_TOP_LEVEL = {"schema_version", "config", *_SECTIONS.values()}
_CONFIG_FIELDS = {"duration_bonus_factor", "duration_cap_months", "tool_version"}


@dataclass(frozen=True)
class NodeId:
    kind: NodeKind
    key: str


@dataclass(slots=True)
class WeightedEdge:
    """An edge's accumulators; its kind and endpoints are its key in ``edges``."""
    weight_units: int = 0  # sum of quantized scores, in units of 2**-64
    support_count: int = 0
    months_sum: int = 0

    @property
    def weight_sum(self) -> float:
        """The sum of the scores, correctly rounded to a float."""
        return self.weight_units * _UNIT

    def mean_weight(self) -> float:
        return self.weight_units * _UNIT / self.support_count if self.support_count else 0.0


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


def _range_fault(units: int, count: int, months: int) -> str:
    """Name the first range check, in README order, that an edge's accumulators fail."""
    if count < 0 or units < 0 or months < 0:
        return "negative accumulator"
    if count > 2**53:
        return f"support_count {count} above 2**53"
    if count == 0 and units:
        return "weight_units without support"
    if count == 0 and months:
        return "months_sum without support"
    # Each contribution is a score in [0, 1], at most 2**64 units,
    if units > count * WEIGHT_UNITS:
        return f"weight_units {units} above support_count {count} * 2**64"
    # and adds at most MAX_DURATION_MONTHS, so years stay a float.
    return f"months_sum {months} above support_count {count} * {MAX_DURATION_MONTHS}"


class KnowledgeGraph:
    def __init__(self, config: ScoringConfig | None = None):
        self.config = config or ScoringConfig()
        self.nodes: dict[NodeId, dict[str, str]] = {}
        self.edges: dict[tuple[EdgeKind, str, str], WeightedEdge] = {}
        # (kind, outgoing) -> {node: {other endpoint: edge}}; see the module docstring.
        self._adjacency: dict[tuple[EdgeKind, bool], dict[str, dict[str, WeightedEdge]]] = {}

    # -- construction -----------------------------------------------------

    def _ensure_node(self, node: NodeId, **attrs: str) -> None:
        if node not in self.nodes:
            self.nodes[node] = dict(attrs)

    def _add(self, kind: EdgeKind, source: str, target: str,
             units: int = 0, count: int = 0, months: int = 0) -> None:
        """Add to an edge's accumulators, creating the edge if it is missing."""
        key = (kind, source, target)
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = WeightedEdge()
            if self._adjacency:
                self._adjacency = {}
        edge.weight_units += units
        edge.support_count += count
        edge.months_sum += months

    def add_resume(
        self,
        record: ResumeRecord,
        lexicon: SkillLexicon,
        gazetteer: SentimentGazetteer,
    ) -> "KnowledgeGraph":
        """Ingest one parsed resume; rejects an already-ingested jobseeker id."""
        # Read at call time: commands that never ingest never import these.
        from .parser import extract_skills
        from .scoring import score_description

        jobseeker = NodeId(NodeKind.JOBSEEKER, record.jobseeker_id)
        if jobseeker in self.nodes:
            raise DuplicateJobseekerError(
                f"jobseeker {record.jobseeker_id!r} already ingested"
            )
        self._ensure_node(jobseeker, name=record.name)

        for skill in sorted(record.declared_skills):
            if (node := NodeId(NodeKind.SKILL, skill)) not in self.nodes:
                self.nodes[node] = {"category": lexicon.category_of(skill) or ""}
            self._add(EdgeKind.JOBSEEKER_SKILL, record.jobseeker_id, skill)

        for ordinal, exp in enumerate(record.experiences):
            org = exp.organization
            self._ensure_node(NodeId(NodeKind.ORGANIZATION, org))
            pkey = project_key(record.jobseeker_id, ordinal)
            self._ensure_node(NodeId(NodeKind.PROJECT, pkey), title=exp.project_title)
            self._add(EdgeKind.JOBSEEKER_PROJECT, record.jobseeker_id, pkey, count=1)
            self._add(EdgeKind.PROJECT_ORG, pkey, org, count=1)

            mentioned = extract_skills(exp.details, lexicon)
            if not mentioned:
                continue
            # One scope-free score per description: every skill mentioned in
            # it receives the identical contribution.
            units = round(score_description(exp.details, None, gazetteer) * WEIGHT_UNITS)
            for skill in sorted(mentioned):
                if (node := NodeId(NodeKind.SKILL, skill)) not in self.nodes:
                    self.nodes[node] = {"category": lexicon.category_of(skill) or ""}
                self._add(EdgeKind.SKILL_PROJECT, skill, pkey, units, 1)
                self._add(EdgeKind.JOBSEEKER_SKILL, record.jobseeker_id, skill,
                          units, 1, exp.duration_months)
                self._add(EdgeKind.ORG_SKILL, org, skill, units, 1)
        return self

    # -- lookups ----------------------------------------------------------

    def has_node(self, kind: NodeKind, key: str) -> bool:
        return NodeId(kind, key) in self.nodes

    def _require_node(self, kind: NodeKind, key: str) -> None:
        if not self.has_node(kind, key):
            raise NodeNotFoundError(f"no {kind.value} node {key!r}")

    def get_edge(self, kind: EdgeKind, source: str, target: str) -> WeightedEdge | None:
        return self.edges.get((kind, source, target))

    def _adjacency_index(self, kind: EdgeKind, outgoing: bool) -> dict[str, dict]:
        index = self._adjacency.get((kind, outgoing))
        if index is None:
            index = {}
            for (edge_kind, source, target), edge in self.edges.items():
                if edge_kind is kind:
                    node, other = (source, target) if outgoing else (target, source)
                    index.setdefault(node, {})[other] = edge
            self._adjacency[kind, outgoing] = index  # published only once filled
        return index

    def out_edges(self, kind: EdgeKind, source: str) -> Mapping[str, WeightedEdge]:
        """{target: edge} for the edges of ``kind`` leaving ``source``; read only."""
        return self._adjacency_index(kind, True).get(source, {})

    def in_edges(self, kind: EdgeKind, target: str) -> Mapping[str, WeightedEdge]:
        """{source: edge} for the edges of ``kind`` entering ``target``; read only."""
        return self._adjacency_index(kind, False).get(target, {})

    def _file_rows(self) -> tuple[dict[NodeKind, list[tuple]], dict[EdgeKind, list[tuple]]]:
        """(key, attrs) rows per node kind and (source, target, edge) rows per
        edge kind, in the graph file's order: kinds by value, then rows sorted."""
        nodes: dict[NodeKind, list[tuple]] = {kind: [] for kind in _NODE_ORDER}
        for node, attrs in self.nodes.items():
            nodes[node.kind].append((node.key, attrs))
        edges: dict[EdgeKind, list[tuple]] = {kind: [] for kind in _EDGE_ORDER}
        for (kind, source, target), edge in self.edges.items():
            edges[kind].append((source, target, edge))
        # Keys are unique within a kind, so no sort compares attrs or edges.
        for rows in (*nodes.values(), *edges.values()):
            rows.sort()
        return nodes, edges

    def edges_of_kind(self, kind: EdgeKind) -> Iterator[tuple[str, str, WeightedEdge]]:
        """(source, target, edge) for every edge of ``kind`` in file order. It sorts
        all edges on each call, so lookups by node use ``out_edges``/``in_edges``."""
        yield from self._file_rows()[1][kind]

    def jobseeker_ids(self) -> list[str]:
        return sorted(n.key for n in self.nodes if n.kind is NodeKind.JOBSEEKER)

    def skill_keys(self) -> list[str]:
        return sorted(n.key for n in self.nodes if n.kind is NodeKind.SKILL)

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
        return (
            edge.mean_weight(),
            self.duration_bonus(edge.months_sum),
            edge.months_sum / 12.0,
            edge.support_count,
        )

    def jobseeker_skill_strength(self, jobseeker_id: str, skill: str) -> float:
        """Mean project sentiment for the skill plus the duration bonus."""
        self._require_node(NodeKind.JOBSEEKER, jobseeker_id)
        self._require_node(NodeKind.SKILL, skill)
        edge = self.get_edge(EdgeKind.JOBSEEKER_SKILL, jobseeker_id, skill)
        sentiment, bonus, _, _ = self.edge_parts(edge)
        return sentiment + bonus

    def supporting_projects(self, jobseeker_id: str, skill: str) -> list[str]:
        """Project keys of this jobseeker whose details mention the skill."""
        return sorted(
            pkey
            for pkey in self.out_edges(EdgeKind.JOBSEEKER_PROJECT, jobseeker_id)
            if (EdgeKind.SKILL_PROJECT, skill, pkey) in self.edges
        )

    def project_score(self, pkey: str) -> float:
        """The description score recorded on the project's skill edges (0 if none)."""
        self._require_node(NodeKind.PROJECT, pkey)
        # Every skill edge of a project carries the same score; the one with
        # the smallest skill is the one the file lists first.
        edges = self.in_edges(EdgeKind.SKILL_PROJECT, pkey)
        return edges[min(edges)].mean_weight() if edges else 0.0

    # -- merge ------------------------------------------------------------

    def merge(self, other: "KnowledgeGraph") -> "KnowledgeGraph":
        """Combine two graphs over disjoint jobseeker sets (same config, and the
        same attrs on every node both hold)."""
        if self.config != other.config:
            raise GraphConfigError(f"config mismatch: {self.config} vs {other.config}")
        overlap = set(self.jobseeker_ids()) & set(other.jobseeker_ids())
        if overlap:
            raise DuplicateJobseekerError(f"jobseekers in both graphs: {sorted(overlap)}")
        merged = KnowledgeGraph(self.config)
        for graph in (self, other):
            for node, attrs in graph.nodes.items():
                if merged.nodes.setdefault(node, dict(attrs)) != attrs:
                    raise GraphConfigError(f"attrs mismatch on {node.kind.value} {node.key!r}: "
                                           f"{merged.nodes[node]} vs {attrs}")
            for key, e in graph.edges.items():
                merged._add(*key, e.weight_units, e.support_count, e.months_sum)
        return merged

    # -- persistence ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return (
            self.config == other.config
            and self.nodes == other.nodes
            and self.edges == other.edges
        )

    def to_dict(self) -> dict:
        from . import __version__

        doc: dict = {
            "schema_version": GRAPH_SCHEMA_VERSION,
            "config": {
                "duration_bonus_factor": self.config.duration_bonus_factor,
                "duration_cap_months": self.config.duration_cap_months,
                "tool_version": __version__,
            },
        }
        nodes, edges = self._file_rows()
        for kind, rows in nodes.items():
            doc[_SECTIONS[kind]] = [[key, dict(attrs)] for key, attrs in rows]
        for kind, rows in edges.items():
            doc[_SECTIONS[kind]] = [[source, target, e.weight_units, e.support_count, e.months_sum]
                                    for source, target, e in rows]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "KnowledgeGraph":
        """Check and load a graph document in one pass over its rows.

        Each rejection is a ``GraphFormatError`` located at the config, a
        section or one row of a section; see README, Graph file.
        """
        check_document(doc, GraphFormatError, version=GRAPH_SCHEMA_VERSION, remedy=_REINGEST)
        config_doc = doc.get("config")
        if not isinstance(config_doc, dict):
            raise GraphFormatError("missing 'config' object")
        try:
            for name in config_doc:
                if name not in _CONFIG_FIELDS:
                    raise GraphConfigError(f"unknown field {name!r}")
            version = config_doc.get("tool_version", "")
            if not isinstance(version, str):
                raise GraphConfigError(f"tool_version {version!r} is not a string")
            config = ScoringConfig(
                config_doc["duration_bonus_factor"], config_doc["duration_cap_months"]
            )
        except (KeyError, GraphConfigError) as exc:
            raise GraphFormatError(f"bad config: {exc}") from exc
        for name in doc:
            if name not in _TOP_LEVEL:
                raise GraphFormatError(f"unknown section {name!r}")

        graph = cls(config)
        nodes, edges = graph.nodes, graph.edges
        keys: dict[NodeKind, set[str]] = {}  # the keys loaded, per node kind
        for kind in _NODE_ORDER:
            where = _SECTIONS[kind]
            rows = doc.get(where, [])
            if type(rows) is not list:
                raise GraphFormatError(f"{where}: not a list")
            same_kind = keys[kind] = set()
            for i, row in enumerate(rows):
                if type(row) is not list or len(row) != 2:
                    raise GraphFormatError(f"{where}[{i}]: not a [key, attrs] row")
                key, attrs = row
                if not isinstance(key, str) or not isinstance(attrs, dict):
                    raise GraphFormatError(f"{where}[{i}]: bad key or attrs")
                for name, value in attrs.items():
                    if not isinstance(value, str):
                        raise GraphFormatError(f"{where}[{i}]: attr {name!r} is not a string")
                if key in same_kind:
                    raise GraphFormatError(f"{where}[{i}]: duplicate node {key!r}")
                same_kind.add(key)
                nodes[NodeId(kind, key)] = dict(attrs)

        for kind in _EDGE_ORDER:
            where = _SECTIONS[kind]
            rows = doc.get(where, [])
            if type(rows) is not list:
                raise GraphFormatError(f"{where}: not a list")
            src_keys, dst_keys = (keys[end] for end in EDGE_ENDPOINTS[kind])
            for i, row in enumerate(rows):
                if type(row) is not list or len(row) != 5:
                    raise GraphFormatError(f"{where}[{i}]: not a [source, target, "
                                           "weight_units, support_count, months_sum] row")
                source, target, units, count, months = row
                if not isinstance(source, str) or not isinstance(target, str):
                    raise GraphFormatError(f"{where}[{i}]: source and target must be strings")
                # type() rather than isinstance(): JSON has no bool integers, and
                # NaN or Infinity tokens load as floats.
                if type(units) is not int or type(count) is not int or type(months) is not int:
                    raise GraphFormatError(f"{where}[{i}]: weight_units, support_count "
                                           "and months_sum must be integers")
                # Every range check at once: no support forces units and months to 0.
                if not (0 <= count <= 2**53 and 0 <= units <= count << 64
                        and 0 <= months <= count * MAX_DURATION_MONTHS):
                    raise GraphFormatError(f"{where}[{i}]: {_range_fault(units, count, months)}")
                if source not in src_keys:
                    raise GraphFormatError(f"{where}[{i}]: dangling source {source!r}")
                if target not in dst_keys:
                    raise GraphFormatError(f"{where}[{i}]: dangling target {target!r}")
                edge = WeightedEdge(units, count, months)
                if edges.setdefault((kind, source, target), edge) is not edge:
                    raise GraphFormatError(f"{where}[{i}]: duplicate edge")
        return graph

    def save(self, path: str | Path) -> None:
        write_document(self.to_dict(), path)

    @classmethod
    def load(cls, path: str | Path) -> "KnowledgeGraph":
        doc = read_document(path, "graph", GraphFormatError, GRAPH_SCHEMA_VERSION, _REINGEST)
        return cls.from_dict(doc)

    def to_dot(self) -> str:
        """Graphviz rendering with mean edge weights, for eyeballing fixtures."""
        def quote(text: str) -> str:
            return text.replace("\\", "\\\\").replace('"', '\\"')

        lines = ["digraph talentgraph {"]
        nodes, edges = self._file_rows()
        # Each node's quoted dot id, made once and looked up by its edges' lines.
        ids: dict[NodeKind, dict[str, str]] = {kind: {} for kind in NodeKind}
        for kind, rows in nodes.items():
            name, kind_ids = kind.value, ids[kind]
            for key, attrs in rows:
                dot_id = kind_ids[key] = f'"{name}:{quote(key)}"'
                label = attrs.get("name") or attrs.get("title") or key
                lines.append(f'  {dot_id} [label="{quote(label)}", kind="{name}"];')
        for kind, rows in edges.items():
            name = kind.value
            src_ids, dst_ids = (ids[end] for end in EDGE_ENDPOINTS[kind])
            for source, target, edge in rows:
                lines.append(f"  {src_ids[source]} -> {dst_ids[target]}"
                             f' [label="{name} {edge.mean_weight():.3f}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
