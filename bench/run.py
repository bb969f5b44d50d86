"""Seeded end-to-end benchmark of talentgraph.

    python3 bench/run.py --workload ingest|rank|cli --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...   # each workload in turn, in its own process

Run from the repository root; the program is imported from ``src/``. Each
run generates its inputs from the seed (resume text, lexicon, gazetteer,
gold labels) under ``.bench_work/``, sets up, runs one closed-loop client
in this process for at least ``--seconds`` and at least the workload's
minimum operation count, then checks every answer against the generator's
ground truth outside the timings. Every run also checks, on a tiny seed,
that the generator is deterministic and that its ground truth matches a
freshly built graph.

Workloads:

* ``ingest``: ``cli.main(["ingest", ..., "--intermediate", ...])`` over 50
  resume files, at least 10 times. Parser, lexicon, tokenization, scoring,
  graph build/save and intermediate writing do all the work; query does none.
* ``rank``: ``parse_query`` + ``execute`` against a 300-resume graph that
  set-up ingests and loads; every 10th request is an ``explain``. Query
  skills follow the corpus skew, from head to tail skills.
* ``cli``: cold ``cli.main`` commands against a 200-resume graph file that
  set-up ingests. The mix is synthetic, not taken from observed use: the
  five commands (query, explain, stats, eval, export --format dot) in equal
  shares, each with every combination of the ``--lexicon`` and ``--json``
  flags it takes equally often, in shuffled blocks of 20; 100 distinct
  commands, repeated in turn. Every command reloads the graph file and the
  lexicon.

The last stdout line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones in
BENCHMARK.json, reported by every workload:

* ``setup_s``: median over the run's set-ups of the program calls before the
  timed phase (fresh import, lexicon and gazetteer load on ingest; plus the
  ingest command on cli, and ingest and graph load on rank). Generating the
  inputs is excluded.
* ``op_p50_ref_ms`` and ``op_tail_ref_ms``: latency of the workload's
  operation: the ingest command (tail: p75, as a run holds only 15-20
  commands), the query request on rank (tail: p99; explains are reported in
  the context block only) and the cli command (tail: p90).
* ``graph_bytes_per_resume``: size of the ingested graph file per resume.
* ``peak_rss_mb``: peak resident memory of the process after the timed phase.

The timings (``setup_s`` and ``op_*``) are CPU time of this process (user
plus system; the program is single-threaded and CPU-bound, so on an idle
machine this equals wall time, but it leaves out time a shared host takes
the CPU away), scaled to a reference speed. A shared host runs the same
code up to 1.6x faster or slower from one second to the next; a fixed
pure-Python probe task measures that speed. Probes run before each set-up
and every ``Calibration.every_s`` seconds between operations. Set-up times
are multiplied by ``CAL_REFERENCE_MS`` / (the trimmed mean of the set-up
probes), and each operation's time by ``CAL_REFERENCE_MS`` / (the mean of
the probe just before it and the one just after it). The probe does not run
the program, so a change to the program moves the metrics in full. Raw
wall-clock and CPU figures and the mean probe times are in the context block.

With ``--trace 1`` the metrics are the per-layer ones from a separate traced
run (see tracing.py and ``traced_run``). The line before the result is a
context block: sizes, node and edge counts, sample counts, the per-workload
figures (``ingest_resumes_per_s``, ``query_p50_ms`` ... ``cli_p90_ms``,
``failed_ratio``) with units and sample counts, the graph file's sha256 and
any failed checks.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

from corpus import Corpus, make_query  # noqa: E402
from reference import (  # noqa: E402
    GRAPH_TOL,
    PERFECT_EVAL,
    Reference,
    dict_error,
    per_skill_error,
    ranking_error,
)
from tracing import LAYER_TARGETS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# CPU time of ``probe`` at the reference speed; it fixes the unit ``ref_ms``.
# On the shared 2-vCPU host (Python 3.11) on which the benchmark was defined,
# the probe's trimmed mean over a run ranged from 10 to 17 ms.
CAL_REFERENCE_MS = 12.0
_PROBE_WORDS = [f"Tok{i % 211}-{i % 17}" for i in range(1000)]
_PROBE_TEXT = " ".join(f"Word{i % 97}, c++ net-{i % 13}." for i in range(1500))
_PROBE_TOKEN = re.compile(r"[\w+#-]+")
_PROBE_ROWS = [(f"node{i % 977}", i % 13, (i * 7919) % 1000 / 7.0) for i in range(5000)]
_PROBE_DOC = json.dumps({"nodes": [{"id": f"n{i}", "kind": "skill", "w": i / 3} for i in range(1500)]})


def probe() -> float:
    """CPU seconds of a fixed pure-Python task that mixes the program's kinds of
    work in about equal shares: text tokenized by a regex into tuple keys, a
    large list sorted by a key function, a JSON document decoded and
    re-encoded. Over 14 processes, the quartile spread of the program's parse,
    query and graph-load times divided by this mix's time was 2-6%; unscaled,
    it was 30-40%."""
    start = process_time()
    counts: dict[tuple[str, int], int] = {}
    for word in _PROBE_WORDS:
        key = (word.lower().strip("-"), len(word))
        counts[key] = counts.get(key, 0) + 1
    phrases: dict[tuple[str, ...], int] = {}
    for match in _PROBE_TOKEN.finditer(_PROBE_TEXT):
        token = match.group(0).lower().strip("-")
        phrases[tuple(token.split("-"))] = len(token)
    index: dict[str, list[float]] = {}
    for name, _, weight in sorted(_PROBE_ROWS, key=lambda row: (row[1], -row[2], row[0])):
        index.setdefault(name, []).append(weight)
    nodes = json.loads(_PROBE_DOC)["nodes"]
    json.dumps({node["id"]: (node["kind"], node["w"]) for node in nodes})
    return process_time() - start


class Calibration:
    """Probe times taken through a phase of a run, in the order they were taken.

    The host's speed flips between a few states that each last 0.1-0.5 s,
    so probe times are multimodal. A set-up spans many states and is scaled
    by the trimmed mean of the probes before the set-ups, which follows the
    share of time spent in each state. An operation is shorter and is scaled
    by the two probes that bracket it (``local_scale``). Compared with one
    scale for the whole timed phase, that narrowed op_tail_ref_ms's range
    over 4 runs of one seed from 16% to 5% on ingest and from 3% to 1% on
    cli, and its quartile spread over 5 seeds from 0.14 to 0.03 on cli and
    from 0.16 to 0.10 on rank.
    """

    every_s = 0.1  # wall seconds between probes in the timed phase
    burst = 4  # probes before each set-up
    trim = 0.1

    def __init__(self):
        self.probes: list[float] = []
        self.last = float("-inf")

    def probe_burst(self) -> None:
        self.probes += [probe() for _ in range(self.burst)]

    def maybe_probe(self) -> int:
        """Probe if ``every_s`` seconds have passed since the last probe; return the probe count."""
        if perf_counter() - self.last >= self.every_s:
            self.probes.append(probe())
            self.last = perf_counter()
        return len(self.probes)

    def probe_ms(self) -> float:
        ordered = sorted(self.probes)
        cut = int(len(ordered) * self.trim)
        return statistics.mean(ordered[cut:len(ordered) - cut]) * 1000

    def scale(self) -> float:
        """Multiply a CPU time of this phase by this to get it at the reference speed."""
        return CAL_REFERENCE_MS / self.probe_ms()

    def local_scale(self, count: int) -> float:
        """The scale for an operation run when ``count`` probes had been taken:
        from the last probe before it and the first after it, if any."""
        return CAL_REFERENCE_MS / (statistics.mean(self.probes[count - 1:count + 1]) * 1000)

    def context(self) -> dict:
        return {"reference_probe_ms": CAL_REFERENCE_MS, "probe_ms": self.probe_ms(),
                "probes": len(self.probes)}


def import_program():
    """Import talentgraph afresh, so each set-up pays the import."""
    for name in [n for n in sys.modules if n == "talentgraph" or n.startswith("talentgraph.")]:
        del sys.modules[name]
    tg = importlib.import_module("talentgraph")
    importlib.import_module("talentgraph.cli")
    return tg


def run_cli(tg, argv: list[str]) -> tuple[int, str, str]:
    """One in-process command: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tg.cli.main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an operation that raised counts as failed
            code = -1
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-pct * len(ordered) // 100) - 1)]


def node_kinds(graph) -> Counter:
    return Counter(node.kind.value for node in graph.nodes)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def code_digest() -> str:
    """Digest of the program and benchmark sources, to key recorded hashes."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Workload:
    """Inputs, set-up, timed operation and answer checks of one workload."""

    name = ""
    resumes = 0
    setups = 3  # set-ups per timed run; setup_s is their median
    min_ops = 1
    trace_ops = 1  # operations of the traced run, each run untraced and traced
    gated_kind: str | None = None  # the kind of operation op_p50_ref_ms and op_tail_ref_ms time
    tail_pct = 100  # the percentile op_tail_ref_ms reports
    sample_queries = 0  # library queries and explains among the graph checks
    pool: int | None = None  # distinct requests; operation i repeats request i % pool

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.corpus = Corpus(seed, self.resumes)
        self.ref = Reference(self.corpus)
        self.files = self.corpus.write(workdir)
        self.files["gold"] = workdir / "gold.json"
        gold = self.ref.gold_doc(random.Random(f"{seed}-gold"))
        self.files["gold"].write_text(json.dumps(gold), encoding="utf-8")
        self.files["graph"] = workdir / "graph.json"
        self.files["intermediate"] = workdir / "intermediate.json"
        self.ingests: list[tuple[float, int, str, str]] = []  # seconds, code, stdout, sha
        self.tg = None

    # -- shared steps -------------------------------------------------------

    def ingest_argv(self) -> list[str]:
        f = self.files
        return [
            "ingest", str(f["resumes"]), "--lexicon", str(f["lexicon"]),
            "--gazetteer", str(f["gazetteer"]), "--out", str(f["graph"]),
            "--intermediate", str(f["intermediate"]),
        ]

    def ingest(self) -> None:
        start = perf_counter()
        code, out, _ = run_cli(self.tg, self.ingest_argv())
        seconds = perf_counter() - start
        digest = sha256(self.files["graph"]) if code == 0 else ""
        self.ingests.append((seconds, code, out, digest))

    def setup(self, install=None) -> None:
        """Program calls before the timed phase; ``install`` traces them."""
        self.tg = import_program()
        if install is not None:
            install(self.tg)

    def op(self, i: int):
        raise NotImplementedError

    def check_op(self, i: int, record) -> str | None:
        raise NotImplementedError

    def kind(self, i: int) -> str:
        return self.name

    def report(self, samples) -> dict:
        """Per-workload figures (ingest rate, percentiles per kind) for the context block."""
        raise NotImplementedError

    # -- checks -------------------------------------------------------------

    def check_ingests(self) -> list[str]:
        errors = []
        expected = f"ingested {self.resumes} resumes -> "
        for _, code, out, _ in self.ingests:
            if code != 0 or not out.startswith(expected):
                errors.append(f"ingest exited {code}: {out.strip()[:200]}")
        digests = {d for *_, d in self.ingests}
        if len(digests) > 1:
            errors.append(f"ingest of one corpus gave {len(digests)} different graph files")
        return errors

    def graph_checks(self, graph, lexicon):
        """(name, error or None) for each whole-graph check."""
        tg, ref = self.tg, self.ref
        yield "node counts", dict_error(node_kinds(graph), ref.node_counts, "nodes")
        edge_kinds = Counter(kind.value for kind, _, _ in graph.edges)
        yield "edge counts", dict_error(edge_kinds, ref.edge_counts, "edges")
        accumulators = {
            (source, target): (edge.weight_sum, edge.support_count, edge.months_sum)
            for (kind, source, target), edge in graph.edges.items()
            if kind.value == "jobseeker_skill"
        }
        want = {
            (js, skill): tuple(acc) for js, skills in ref.edges.items() for skill, acc in skills.items()
        }
        bad = [
            key for key in want
            if key not in accumulators
            or abs(accumulators[key][0] - want[key][0]) > GRAPH_TOL
            or accumulators[key][1:] != want[key][1:]
        ]
        yield "jobseeker-skill accumulators", (
            f"{len(bad)} differ, first {bad[0]}: {accumulators.get(bad[0])} != {want[bad[0]]}"
            if bad else None
        )
        stats = tg.compute_graph_stats(graph).to_dict()
        yield "graph stats", dict_error(stats, ref.stats(), "stats")
        report = tg.evaluation.evaluate_graph(
            graph, tg.evaluation.load_gold(self.files["gold"]), lexicon
        )
        yield "eval on generated gold", dict_error(report.to_dict(), PERFECT_EVAL, "eval")
        rng = random.Random(f"{self.seed}-graph-checks")
        for n in range(self.sample_queries):
            text, terms, top_k = make_query(self.corpus, rng)
            if n % 4 == 3:
                jobseeker = rng.choice(ref.ids)
                got = tg.explain(jobseeker, tg.parse_query(text, lexicon), graph).to_dict()
                yield f"explain {jobseeker} {text!r}", dict_error(got, ref.explain(jobseeker, terms))
            else:
                results = tg.execute(tg.parse_query(text, lexicon), graph)
                yield f"query {text!r}", self.results_error(results, terms, top_k)

    def results_error(self, results, terms, top_k) -> str | None:
        error = ranking_error(
            [(r.jobseeker_id, r.total_score) for r in results], self.ref.rank(terms, top_k), top_k
        )
        for r in results:
            error = error or per_skill_error(r.jobseeker_id, r.per_skill, self.ref)
        return error

    def intermediate_error(self) -> str | None:
        records = self.tg.intermediate.read_intermediate(self.files["intermediate"])
        if [r.jobseeker_id for r in records] != self.ref.ids:
            return "intermediate jobseeker ids differ"
        by_id = {r.jobseeker_id: r for r in self.corpus.resumes}
        for record in records:
            resume = by_id[record.jobseeker_id]
            got = (record.name, record.declared_skills,
                   [(e.organization, e.project_title, e.duration_months) for e in record.experiences])
            want = (resume.name, set(resume.declared),
                    [(e.org, e.title, e.months) for e in resume.experiences])
            if got != want:
                return f"intermediate {record.jobseeker_id}: {got} != {want}"
        return None

    def checks(self, records) -> tuple[int, list[str]]:
        """Run every check; return (checks attempted, failure messages).

        ``records`` holds [op index, record, copies]: ``copies`` operations
        gave this record, and a failed check counts for each of them.
        """
        failures = []
        for i, record, copies in records:
            error = str(record) if isinstance(record, Failed) else self.check_op(i, record)
            if error:
                failures += [f"op {i} ({self.kind(i)}): {error}"] * copies
        named = [("ingest", e) for e in self.check_ingests()] or [("ingest", None)]
        graph = self.tg.KnowledgeGraph.load(self.files["graph"])
        lexicon = self.tg.load_skill_lexicon(self.files["lexicon"])
        named += list(self.graph_checks(graph, lexicon))
        named.append(("intermediate", self.intermediate_error()))
        failures += [f"{name}: {error}" for name, error in named if error]
        return sum(copies for *_, copies in records) + len(named), failures

    def graph_bytes_per_resume(self) -> float:
        return self.files["graph"].stat().st_size / self.resumes


class Failed(str):
    """An operation that raised; the text names the exception."""


class IngestWorkload(Workload):
    name = "ingest"
    resumes = 50  # about 1 s a command at the seed commit: 15-20 commands in a 20 s run
    setups = 11
    min_ops = 10
    tail_pct = 75
    trace_ops = 2
    sample_queries = 40

    def setup(self, install=None) -> None:
        super().setup(install)
        self.tg.load_skill_lexicon(self.files["lexicon"])
        self.tg.load_sentiment_gazetteer(self.files["gazetteer"])

    def op(self, i: int):
        self.ingest()
        return self.ingests[-1][1]

    def check_op(self, i: int, record) -> str | None:
        return None if record == 0 else f"exit code {record}"

    def report(self, samples) -> dict:
        seconds = [s for _, s in samples]
        rate = self.resumes * len(seconds) / sum(seconds)
        return {"ingest_resumes_per_s": named(rate, "resumes/s", len(seconds))}


class RankWorkload(Workload):
    name = "rank"
    resumes = 300  # three set-ups per run; ingesting 300 resumes takes 6-8 s
    min_ops = 1200  # > 1000 queries for p99 and > 100 explains for p90
    trace_ops = 600
    gated_kind = "query"
    tail_pct = 99
    pool = 6000  # distinct requests; fewer than a run makes, so a run cycles through them

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = random.Random(f"{seed}-requests")
        self.requests = []
        for i in range(self.pool):
            text, terms, top_k = make_query(self.corpus, rng)
            jobseeker = rng.choice(self.ref.ids) if i % 10 == 9 else None
            self.requests.append((text, terms, top_k, jobseeker))

    def setup(self, install=None) -> None:
        super().setup(install)
        self.ingest()
        self.graph = self.tg.KnowledgeGraph.load(self.files["graph"])
        self.lexicon = self.tg.load_skill_lexicon(self.files["lexicon"])

    def kind(self, i: int) -> str:
        return "explain" if self.requests[i % self.pool][3] else "query"

    def report(self, samples) -> dict:
        return {
            **percentiles("query", [s for k, s in samples if k == "query"], (50, 99)),
            **percentiles("explain", [s for k, s in samples if k == "explain"], (50, 90)),
        }

    def op(self, i: int):
        tg = self.tg
        text, _, _, jobseeker = self.requests[i % self.pool]
        query = tg.parse_query(text, self.lexicon)
        if jobseeker:
            return query, tg.explain(jobseeker, query, self.graph)
        return query, tg.execute(query, self.graph)

    def check_op(self, i: int, record) -> str | None:
        _, terms, top_k, jobseeker = self.requests[i % self.pool]
        query, answer = record
        got_terms = tuple((t.skill, t.min_years, t.max_years) for t in query.terms)
        if got_terms != terms or query.top_k != top_k:
            return f"parsed {got_terms} top {query.top_k}, expected {terms} top {top_k}"
        if jobseeker:
            return dict_error(answer.to_dict(), self.ref.explain(jobseeker, terms), "explain")
        return self.results_error(answer, terms, top_k)


class CliWorkload(Workload):
    name = "cli"
    resumes = 200
    min_ops = 120  # > 100 commands for p90
    trace_ops = 60
    tail_pct = 90
    # A synthetic mix, not taken from observed use: every shuffled block of 20
    # holds each of the five commands 4 times, each with every combination
    # of the flags it takes equally often.
    BLOCK = (
        [("query", flags) for flags in ([], ["lexicon"], ["json"], ["lexicon", "json"])]
        + [("explain", flags) for flags in ([], ["lexicon"], ["json"], ["lexicon", "json"])]
        + [("stats", flags) for flags in ([], ["json"], [], ["json"])]
        + [("eval", flags) for flags in ([], ["lexicon"], ["json"], ["lexicon", "json"])]
        + [("export", [])] * 4
    )
    pool = 100  # distinct commands; fewer than a run makes, so a run cycles through them

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = random.Random(f"{seed}-commands")
        self.commands = []
        while len(self.commands) < self.pool:
            block = list(self.BLOCK)
            rng.shuffle(block)
            self.commands += [self._command(rng, command, flags) for command, flags in block]

    def _command(self, rng: random.Random, command: str, flags: list[str]):
        """(kind, argv, expectation); the kind is the command and its flags."""
        f = {k: str(v) for k, v in self.files.items()}
        kind = "-".join([command, *flags])
        lex = ["--lexicon", f["lexicon"]] if "lexicon" in flags else []
        json_flag = ["--json"] if "json" in flags else []
        text, terms, top_k = make_query(self.corpus, rng, None if lex else self.ref.skill_nodes)
        if command == "query":
            return kind, ["query", f["graph"], text, *lex, *json_flag], (terms, top_k)
        if command == "explain":
            jobseeker = rng.choice(self.ref.ids)
            argv = ["explain", f["graph"], jobseeker, text, *lex, *json_flag]
            return kind, argv, (jobseeker, terms)
        if command == "stats":
            return kind, ["stats", f["graph"], *json_flag], None
        if command == "eval":
            return kind, ["eval", f["graph"], f["gold"], *lex, *json_flag], None
        return kind, ["export", f["graph"], "--format", "dot"], None

    def setup(self, install=None) -> None:
        super().setup(install)
        self.ingest()

    def kind(self, i: int) -> str:
        return self.commands[i % self.pool][0]

    def report(self, samples) -> dict:
        return percentiles("cli", [s for _, s in samples], (50, 90))

    def op(self, i: int):
        return run_cli(self.tg, self.commands[i % self.pool][1])

    def check_op(self, i: int, record) -> str | None:
        kind, argv, expect = self.commands[i % self.pool]
        code, out, err = record
        if code != 0:
            return f"exit {code}: {err.strip()[-300:]}"
        try:
            return self._output_error(kind, out, expect)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output ({exc!r}): {out[:200]!r}"

    def _output_error(self, kind: str, out: str, expect) -> str | None:
        ref = self.ref
        command, *flags = kind.split("-")
        as_json = "json" in flags
        if command == "query" and as_json:
            terms, top_k = expect
            doc = json.loads(out)
            got = [(r["jobseeker_id"], r["total_score"]) for r in doc["results"]]
            error = ranking_error(got, ref.rank(terms, top_k), top_k)
            for r in doc["results"]:
                per_skill = [(p["skill"], p["strength"], p["years"]) for p in r["per_skill"]]
                error = error or per_skill_error(r["jobseeker_id"], per_skill, ref)
            return error or (None if doc["top_k"] == top_k else f"top_k {doc['top_k']}")
        if command == "query":
            terms, top_k = expect
            rows = out.splitlines()[1:]
            got = [] if rows == ["(no matching jobseekers)"] else [(row.split()[1], None) for row in rows]
            return ranking_error(got, ref.rank(terms, top_k), top_k)
        if command == "explain" and as_json:
            jobseeker, terms = expect
            return dict_error(json.loads(out)["explanation"], ref.explain(jobseeker, terms), "explain")
        if command == "explain":
            jobseeker, terms = expect
            want = ref.explain(jobseeker, terms)
            lines = out.splitlines()
            head = [f"jobseeker {jobseeker}", f"  qualifies: {'yes' if want['qualifies'] else 'no'}"]
            return None if lines[:2] == head else f"{lines[:2]} != {head}"
        if command == "stats" and as_json:
            return dict_error(json.loads(out)["stats"], ref.stats(), "stats")
        if command == "stats":
            first = out.splitlines()[0].split()
            return None if first == ["resumes", str(self.resumes)] else f"first line {first}"
        if command == "eval" and as_json:
            return dict_error(json.loads(out)["metrics"], PERFECT_EVAL, "eval")
        if command == "eval":
            values = [line.split()[-1] for line in out.splitlines() if line.startswith("  ")]
            want = ["1.0000"] * sum(len(group) for group in PERFECT_EVAL.values())
            return None if values == want else f"eval table values {values}"
        lines = out.splitlines()
        want = sum(ref.node_counts.values()) + sum(ref.edge_counts.values()) + 2
        if lines[0] != "digraph talentgraph {" or len(lines) != want:
            return f"dot output has {len(lines)} lines, expected {want}"
        return None


WORKLOADS = {w.name: w for w in (IngestWorkload, RankWorkload, CliWorkload)}


def timed_op(workload: Workload, i: int) -> tuple[float, float, object]:
    """CPU and wall seconds taken by operation ``i``, and its record for the checks."""
    wall, cpu = perf_counter(), process_time()
    try:
        record = workload.op(i)
    except Exception as exc:  # an operation that raised counts as failed
        record = Failed(f"{type(exc).__name__}: {exc}")
    return process_time() - cpu, perf_counter() - wall, record


def timed_ops(workload: Workload, seconds: float, min_ops: int, calibration: Calibration):
    """Closed loop: next operation once the last returns, until both limits are met.

    Samples are (kind, CPU seconds, wall seconds, scale); calibration probes
    run between operations, outside their timings. A repeat of a pool request
    whose record equals the first one's adds a copy to that record instead of
    being kept, so the benchmark's own memory, and with it peak_rss_mb, does
    not grow with the number of operations a run makes.
    """
    samples, records, first = [], [], {}
    start = perf_counter()
    i = 0
    while i < min_ops or perf_counter() - start < seconds:
        probes = calibration.maybe_probe()
        cpu, wall, record = timed_op(workload, i)
        samples.append((workload.kind(i), cpu, wall, probes))
        slot = first.get(i % workload.pool) if workload.pool else None
        if slot is not None and not isinstance(record, Failed) and records[slot][1] == record:
            records[slot][2] += 1
        else:
            if workload.pool:
                first.setdefault(i % workload.pool, len(records))
            records.append([i, record, 1])
        i += 1
    samples = [(kind, cpu, wall, calibration.local_scale(probes)) for kind, cpu, wall, probes in samples]
    return samples, records


def record_digest(workload: Workload) -> str | None:
    """Compare the graph file's sha256 with earlier runs of this seed and code."""
    digests = {d for *_, d in workload.ingests if d}
    if len(digests) != 1:
        return None
    digest = digests.pop()
    path = OUT / "graph_sha256.json"
    key = f"{workload.name}:{workload.seed}:{code_digest()}"
    seen = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    if key in seen and seen[key] != digest:
        return f"graph file sha256 {digest} differs from an earlier run's {seen[key]}"
    seen[key] = digest
    OUT.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True), encoding="utf-8")
    tmp.replace(path)
    return None


def named(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def percentiles(kind: str, seconds: list[float], pcts: tuple[int, ...]) -> dict:
    """Named per-operation percentiles in ms, with their sample counts."""
    ms = [s * 1000 for s in seconds]
    return {f"{kind}_p{pct}_ms": named(percentile(ms, pct), "ms", len(ms)) for pct in pcts}


def context(workload: Workload, samples, failures, attempted) -> dict:
    tg, ref = workload.tg, workload.ref
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    report = workload.report(samples)
    report["failed_ratio"] = named(len(failures) / attempted, "ratio", attempted)
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "python": platform.python_version(),
        "src_lines": src_lines,
        "tool_version": tg.__version__,
        "corpus": {
            "resumes": workload.resumes,
            "lexicon_skills": len(workload.corpus.skills),
            "aliases_per_skill": len(workload.corpus.skills[0].aliases) - 1,
            "gazetteer_keywords": len(workload.corpus.keywords),
        },
        "nodes": ref.node_counts,
        "edges": ref.edge_counts,
        "samples": dict(Counter(kind for kind, _ in samples)),
        "report": report,
        "graph_sha256": sorted({d for *_, d in workload.ingests if d}),
        "failures": failures[:20],
    }


def self_check(seed: int = 7, resumes: int = 12) -> list[str]:
    """The generator is deterministic and a freshly built graph matches its truth."""
    first, second = Corpus(seed, resumes), Corpus(seed, resumes)
    errors = []
    if [r.text for r in first.resumes] != [r.text for r in second.resumes] or (
        first.lexicon_doc() != second.lexicon_doc()
        or first.gazetteer_doc() != second.gazetteer_doc()
    ):
        errors.append("generator is not deterministic")
    tg = import_program()
    lexicon = tg.lexicon.parse_skill_records(first.lexicon_doc()["skills"])
    gazetteer = tg.lexicon.parse_sentiment_records(first.gazetteer_doc()["entries"])
    graph = tg.KnowledgeGraph()
    for i, resume in enumerate(first.resumes):
        record, _ = tg.parse_resume(resume.text, lexicon, i)
        if record.jobseeker_id != resume.jobseeker_id:
            errors.append(f"jobseeker id {record.jobseeker_id} != {resume.jobseeker_id}")
        graph.add_resume(record, lexicon, gazetteer)
    ref = Reference(first)
    for name, got, want in (("nodes", node_kinds(graph), ref.node_counts),
                            ("stats", tg.compute_graph_stats(graph).to_dict(), ref.stats())):
        error = dict_error(got, want, name)
        if error:
            errors.append(error)
    for js in ref.ids:
        for skill in ref.edges[js]:
            if abs(graph.jobseeker_skill_strength(js, skill) - sum(ref.parts(js, skill)[:2])) > GRAPH_TOL:
                errors.append(f"strength {js}/{skill} differs from ground truth")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "talentgraph" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        for name in WORKLOADS:
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = subprocess.run(argv, check=False).returncode
            if code:
                return code
        return 0

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        return run(WORKLOADS[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_run(workload: Workload, seconds: float):
    """Set up several times, then time the closed loop; end-to-end metrics.

    The context figures (percentiles per kind, ingest rate) use the same
    scaled CPU times as the metrics.
    """
    # The host's speed can change within a run, so set-ups and operations are
    # each scaled by probes taken among them.
    setup_calibration, calibration = Calibration(), Calibration()
    setup_cpu, setup_wall = [], []
    for _ in range(workload.setups):
        gc.collect()  # garbage of the last set-up would otherwise raise peak_rss_mb at random
        setup_calibration.probe_burst()
        wall, cpu = perf_counter(), process_time()
        workload.setup()
        setup_cpu.append(process_time() - cpu)
        setup_wall.append(perf_counter() - wall)
    gc.collect()
    timed, records = timed_ops(workload, seconds, workload.min_ops, calibration)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failures = workload.checks(records)
    gated = [(cpu, wall, scale) for kind, cpu, wall, scale in timed if workload.gated_kind in (None, kind)]
    op_ms = [cpu * 1000 * scale for cpu, _, scale in gated]
    values = {
        "setup_s": statistics.median(setup_cpu) * setup_calibration.scale(),
        "graph_bytes_per_resume": workload.graph_bytes_per_resume(),
        "op_p50_ref_ms": statistics.median(op_ms),
        "op_tail_ref_ms": percentile(op_ms, workload.tail_pct),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    raw = {
        "setup_wall_s": statistics.median(setup_wall),
        "setup_cpu_s": statistics.median(setup_cpu),
        "op_p50_wall_ms": statistics.median(wall * 1000 for _, wall, _ in gated),
        "op_tail_wall_ms": percentile([wall * 1000 for _, wall, _ in gated], workload.tail_pct),
        "op_p50_cpu_ms": statistics.median(cpu * 1000 for cpu, _, _ in gated),
    }
    samples = [(kind, cpu * scale) for kind, cpu, _, scale in timed]
    extra = {"setup_samples": len(setup_cpu), "figures": "CPU time at the reference speed",
             "calibration": {
                 "setup": {**setup_calibration.context(), "scale": setup_calibration.scale()},
                 "timed": {**calibration.context(),
                           "median_scale": statistics.median(scale for *_, scale in timed)},
             },
             "unscaled": raw}
    return samples, attempted, failures, metrics, extra


def traced_run(workload: Workload, name: str):
    """Traced set-up, then each of the first ``trace_ops`` operations untraced and traced.

    The two runs of an operation follow each other, in alternating order, so
    the tracing overhead (traced minus untraced seconds, summed) compares the
    same work at nearly the same time. The checks run with the tracer removed.
    """
    tracer = Tracer()
    workload.setup(install=tracer.install)
    tracer.uninstall()
    gc.collect()
    samples, records, overhead = [], [], 0.0
    for i in range(workload.trace_ops):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.install(workload.tg)
            _, elapsed, record = timed_op(workload, i)
            if traced:
                tracer.uninstall()
            overhead += elapsed if traced else -elapsed
            samples.append((workload.kind(i), elapsed))
            records.append([i, record, 1])
    attempted, failures = workload.checks(records)
    spans = OUT / f"trace-{name}.json"
    tracer.write(spans)
    values = tracer.layer_metrics(overhead)
    metrics = {layer: {"value": value, "unit": UNITS[layer]} for layer, value in values.items()}
    extra = {"figures": "wall time, untraced and traced runs together",
             "spans": len(tracer.spans), "span_file": str(spans.relative_to(ROOT)),
             "traced_ops": workload.trace_ops,
             "layers_not_run": [layer for layer, value in values.items() if not value],
             "layer_targets": LAYER_TARGETS}
    return samples, attempted, failures, metrics, extra


def run(cls, args, workdir: Path) -> int:
    workload = cls(args.seed, workdir)
    problems = [f"self-check: {e}" for e in self_check()]
    if args.trace:
        samples, attempted, failures, metrics, extra = traced_run(
            workload, f"{workload.name}-{args.seed}"
        )
    else:
        samples, attempted, failures, metrics, extra = timed_run(workload, args.seconds)
    digest_error = record_digest(workload)
    failures = problems + failures + ([f"graph file: {digest_error}"] if digest_error else [])
    for failure in failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"context": {**context(workload, samples, failures, attempted), **extra}}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
