"""Spans and counters recorded around the program's public functions.

Only the traced run installs these wrappers; timed runs call the program
untouched. A span holds an id, a name, start and end (perf_counter seconds)
and its parent's id (-1 at the root); spans stay in memory and are written
once at the end. Functions called too often for a span each (tokenize,
get_edge, edges_of_kind) get counters instead.

Per-layer metrics are totals over the traced set-up and the traced pass of
the workload's first operations; the answer checks run untraced. A layer the
workload does not run reads 0 and is listed under ``layers_not_run`` in the
context block. A layer's self time is its spans' duration minus that of
their direct children.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# Per-layer metric -> the end-to-end metric (and the per-workload figure in
# the context block) that it should move, on which workload.
INGEST = "op_p50_ref_ms on ingest (ingest_resumes_per_s)"
EXPLAIN = "explain_p50_ms and explain_p90_ms in rank's context block (not gated)"
LAYER_TARGETS = {
    "lexicon.load_s": "setup_s on rank and cli; op_p50_ref_ms on cli (cli_p50_ms)",
    "lexicon.init_s": "op_p50_ref_ms on cli: commands without --lexicon build one from the graph",
    "parser.parse_resume_self_s": f"{INGEST}; setup_s on rank",
    "parser.extract_skills_s": INGEST,
    "parser.extract_skills_calls": INGEST,
    "tokenization.tokenize_calls": INGEST,
    "scoring.score_description_s": INGEST,
    "scoring.score_description_calls": INGEST,
    "graph.add_resume_self_s": INGEST,
    "graph.save_s": f"{INGEST}; setup_s on rank and cli",
    "graph.file_bytes": "graph_bytes_per_resume on every workload",
    "intermediate.write_s": INGEST,
    "graph.load_s": "op_p50_ref_ms on cli (cli_p50_ms); setup_s on rank",
    "graph.edges_of_kind_calls": f"{EXPLAIN}; op_tail_ref_ms on cli (cli_p90_ms): eval, stats, explain",
    "graph.edges_sorted": f"{EXPLAIN}; op_tail_ref_ms on cli (cli_p90_ms): eval, stats, explain",
    "graph.get_edge_calls": "op_p50_ref_ms and op_tail_ref_ms on rank (query_p50_ms, query_p99_ms)",
    "query.edge_lookups_per_result": "op_p50_ref_ms and op_tail_ref_ms on rank (query_p50_ms, query_p99_ms)",
    "query.parse_query_s": "op_p50_ref_ms and op_tail_ref_ms on rank (query_p50_ms, query_p99_ms)",
    "query.execute_s": "op_p50_ref_ms and op_tail_ref_ms on rank (query_p50_ms, query_p99_ms)",
    "query.explain_s": EXPLAIN,
    "evaluation.load_gold_s": "op_tail_ref_ms on cli (cli_p90_ms)",
    "evaluation.evaluate_graph_s": "op_tail_ref_ms on cli (cli_p90_ms)",
    "stats.compute_graph_stats_s": "op_tail_ref_ms on cli (cli_p90_ms)",
    "cli.self_s": "op_p50_ref_ms on cli (cli_p50_ms)",
    "trace.overhead_s": "none: traced minus untraced time of the same operations",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @property
    def current(self) -> str | None:
        return self.spans[self._stack[-1]][1] if self._stack else None

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(result, args)`` may count."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [span_id, name, perf_counter(), 0.0, parent]
            tracer.spans.append(record)
            tracer._stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                record[3] = perf_counter()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counter(self, name: str, fn, extra=None):
        """Wrap ``fn`` so each call bumps ``name``; ``extra(args)`` may count more."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if extra is not None:
                extra(args)
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ---------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind every module-level name in the package that holds ``original``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "talentgraph" or mod_name.startswith("talentgraph.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _replace_method(self, cls, attr: str, wrap) -> None:
        raw = cls.__dict__[attr]
        self._undo.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(wrap(raw.__func__)))
        else:
            setattr(cls, attr, wrap(raw))

    def install(self, tg) -> None:
        """Wrap the layer boundaries of an imported ``talentgraph`` package."""
        graph_cls = tg.graph.KnowledgeGraph
        counts = self.counts

        def count_results(result, _args):
            counts["query.results"] += len(result)

        def count_file(_result, args):
            counts["graph.file_bytes"] += Path(args[1]).stat().st_size

        def count_lookup(_args):
            if self.current == "query.execute":
                counts["query.edge_lookups"] += 1

        def count_sorted(args):
            counts["graph.edges_sorted"] += len(args[0].edges)

        functions = [
            ("cli.main", tg.cli.main),
            ("lexicon.load", tg.lexicon.load_skill_lexicon),
            ("lexicon.load", tg.lexicon.load_sentiment_gazetteer),
            ("parser.parse_resume", tg.parser.parse_resume),
            ("parser.extract_skills", tg.parser.extract_skills),
            ("scoring.score_description", tg.scoring.score_description),
            ("intermediate.write", tg.intermediate.write_intermediate),
            ("query.parse_query", tg.query.parse_query),
            ("query.explain", tg.query.explain),
            ("evaluation.load_gold", tg.evaluation.load_gold),
            ("evaluation.evaluate_graph", tg.evaluation.evaluate_graph),
            ("stats.compute_graph_stats", tg.stats.compute_graph_stats),
        ]
        for name, fn in functions:
            self._replace_everywhere(fn, self.span(name, fn))
        execute = tg.query.execute
        self._replace_everywhere(execute, self.span("query.execute", execute, count_results))
        tokenize = tg.tokenization.tokenize
        self._replace_everywhere(tokenize, self.counter("tokenization.tokenize_calls", tokenize))

        self._replace_method(tg.lexicon.SkillLexicon, "__init__",
                             lambda fn: self.span("lexicon.init", fn))
        self._replace_method(graph_cls, "add_resume", lambda fn: self.span("graph.add_resume", fn))
        self._replace_method(graph_cls, "save", lambda fn: self.span("graph.save", fn, count_file))
        self._replace_method(graph_cls, "load", lambda fn: self.span("graph.load", fn))
        self._replace_method(graph_cls, "get_edge",
                             lambda fn: self.counter("graph.get_edge_calls", fn, count_lookup))
        self._replace_method(graph_cls, "edges_of_kind",
                             lambda fn: self.counter("graph.edges_of_kind_calls", fn, count_sorted))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Total duration, total self time and call count per span name."""
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for _, name, start, end, parent in self.spans:
            duration = end - start
            total[name] += duration
            self_time[name] += duration
            calls[name] += 1
            if parent >= 0:
                self_time[self.spans[parent][1]] -= duration
        return total, self_time, calls

    def layer_metrics(self, overhead_s: float) -> dict[str, float]:
        total, self_time, calls = self.totals()
        c = self.counts
        return {
            "lexicon.load_s": total["lexicon.load"],
            "lexicon.init_s": total["lexicon.init"],
            "parser.parse_resume_self_s": self_time["parser.parse_resume"],
            "parser.extract_skills_s": total["parser.extract_skills"],
            "parser.extract_skills_calls": calls["parser.extract_skills"],
            "tokenization.tokenize_calls": c["tokenization.tokenize_calls"],
            "scoring.score_description_s": total["scoring.score_description"],
            "scoring.score_description_calls": calls["scoring.score_description"],
            "graph.add_resume_self_s": self_time["graph.add_resume"],
            "graph.save_s": total["graph.save"],
            "graph.file_bytes": c["graph.file_bytes"],
            "intermediate.write_s": total["intermediate.write"],
            "graph.load_s": total["graph.load"],
            "graph.edges_of_kind_calls": c["graph.edges_of_kind_calls"],
            "graph.edges_sorted": c["graph.edges_sorted"],
            "graph.get_edge_calls": c["graph.get_edge_calls"],
            "query.edge_lookups_per_result": c["query.edge_lookups"] / max(c["query.results"], 1),
            "query.parse_query_s": total["query.parse_query"],
            "query.execute_s": total["query.execute"],
            "query.explain_s": total["query.explain"],
            "evaluation.load_gold_s": total["evaluation.load_gold"],
            "evaluation.evaluate_graph_s": total["evaluation.evaluate_graph"],
            "stats.compute_graph_stats_s": total["stats.compute_graph_stats"],
            "cli.self_s": self_time["cli.main"],
            "trace.overhead_s": overhead_s,
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["id", "name", "start", "end", "parent"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
