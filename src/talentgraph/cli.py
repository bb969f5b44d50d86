"""Command-line entry point.

Subcommands: ingest, query, explain, export, stats, eval. All machine
readable output (--json) is deterministic: identical inputs and flags
produce byte-identical bytes.

A command imports only the modules it runs: this module imports the graph
and lexicon layers, and each command imports the rest itself (query and
explain ``query``, stats ``stats`` and on a corpus ``parser``, eval ``evaluation``,
ingest ``parser``, ``scoring`` and, with ``--intermediate``, ``intermediate``).
It also builds only its own subcommand's parser (see ``build_arg_parser``).

Each command runs with the cyclic garbage collector paused: its graph holds
no cycles and is freed by reference counting on return, so the collector
would only re-scan it while it grows. ``main`` restores the caller's state.
"""
from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from ._io import SCHEMA_VERSION, write_document, write_text
from .errors import TalentGraphError
from .graph import EdgeKind, KnowledgeGraph, ScoringConfig
from .lexicon import SkillLexicon, load_sentiment_gazetteer, load_skill_lexicon


def _lexicon_for_graph(lexicon_path: str | None, graph: KnowledgeGraph) -> SkillLexicon:
    """Load the lexicon, or fall back to one whose only aliases are the graph's
    skill keys, each its own canonical.

    The fallback resolves canonical skill names but no aliases. It names every
    key the graph holds: a load refuses a key that a query would not read as
    itself (``lexicon.skill_key_fault``).
    """
    if lexicon_path:
        return load_skill_lexicon(lexicon_path)
    keys = graph.skill_keys()
    return SkillLexicon(dict(zip(keys, keys)), dict.fromkeys(keys, "uncategorized"))


def _parse_corpus(corpus: Path, lexicon: SkillLexicon):
    """Yield (path, record, diagnostics) per ``*.txt`` resume, in name order.

    A file skipped with a warning still consumes its seed, so other ids do not change.
    """
    from .parser import parse_resume

    files = sorted(corpus.glob("*.txt"))
    if not files:
        print(f"warning: no .txt resumes in {corpus}", file=sys.stderr)
    for seed, path in enumerate(files):
        try:
            text = path.read_text(encoding="utf-8-sig")
        except UnicodeDecodeError:
            print(f"warning: {path} is not valid UTF-8, skipped", file=sys.stderr)
            continue
        if not text.strip():
            print(f"warning: {path} is empty, skipped", file=sys.stderr)
            continue
        yield (path, *parse_resume(text, lexicon, seed))


def _cmd_ingest(args: argparse.Namespace) -> int:
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise TalentGraphError(f"corpus directory not found: {corpus}")
    lexicon = load_skill_lexicon(args.lexicon)
    gazetteer = load_sentiment_gazetteer(args.gazetteer)
    config = ScoringConfig(
        duration_bonus_factor=args.duration_bonus_factor,
        duration_cap_months=args.duration_cap_months,
    )
    graph = KnowledgeGraph(config)

    records = []
    diagnostics = 0
    for path, record, messages in _parse_corpus(corpus, lexicon):
        diagnostics += len(messages)
        if args.verbose:
            for message in messages:
                print(f"{path.name}: {message}", file=sys.stderr)
        records.append(record)
        graph.add_resume(record, lexicon, gazetteer)

    graph.save(args.out)
    if args.intermediate:
        from .intermediate import write_intermediate

        write_intermediate(records, args.intermediate)
    print(
        f"ingested {len(records)} resumes -> {args.out} "
        f"({len(graph.nodes)} nodes, {sum(map(graph.edge_count, EdgeKind))} edges, "
        f"{diagnostics} diagnostics)"
    )
    return 0


def _format_results(results) -> str:
    lines = [f"rank  {'jobseeker':<28} {'total':>8}  per-skill"]
    for rank, result in enumerate(results, start=1):
        breakdown = "; ".join(
            f"{skill} {strength:.3f} ({years:.1f}y)"
            for skill, strength, years in result.per_skill
        )
        lines.append(
            f"{rank:<5} {result.jobseeker_id:<28} {result.total_score:>8.4f}  {breakdown}"
        )
    if not results:
        lines.append("(no matching jobseekers)")
    return "\n".join(lines)


def _cmd_query(args: argparse.Namespace) -> int:
    from .query import execute, parse_query

    graph = KnowledgeGraph.load(args.graph)
    lexicon = _lexicon_for_graph(args.lexicon, graph)
    query = parse_query(args.dsl, lexicon)
    results = execute(query, graph)
    if args.json:
        write_document({"schema_version": SCHEMA_VERSION, "query": args.dsl, "top_k": query.top_k,
                        "results": [r.to_dict() for r in results]}, args.out)
    else:
        write_text(_format_results(results) + "\n", args.out)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .query import explain, parse_query

    graph = KnowledgeGraph.load(args.graph)
    lexicon = _lexicon_for_graph(args.lexicon, graph)
    query = parse_query(args.dsl, lexicon)
    explanation = explain(args.jobseeker, query, graph)
    if args.json:
        write_document({"schema_version": SCHEMA_VERSION, "explanation": explanation.to_dict()})
        return 0
    print(f"jobseeker {explanation.jobseeker_id}")
    print(f"  qualifies: {'yes' if explanation.qualifies else 'no'}")
    print(f"  total score: {explanation.total_score:.4f}")
    for term in explanation.terms:
        bounds = ""
        if term["min_years"] is not None:
            bounds = f" [needs {term['min_years']:g}"
            bounds += f"-{term['max_years']:g}y]" if term["max_years"] is not None else "+y]"
        status = "ok" if term["satisfied"] else "FAILS"
        print(
            f"  {term['skill']}: strength {term['strength']:.4f} "
            f"(sentiment {term['sentiment_mean']:.4f} + duration {term['duration_bonus']:.4f}), "
            f"{term['years']:.2f} years over {term['support_count']} scored projects"
            f"{bounds} {status}"
        )
        if term["projects"]:
            print(f"    projects: {', '.join(term['projects'])}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    graph = KnowledgeGraph.load(args.graph)
    if args.format == "json":
        write_document(graph.to_dict(), args.out)
    else:
        write_text(graph.to_dot(), args.out)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .stats import compute_graph_stats, compute_stats

    path = Path(args.path)
    if path.is_dir():
        if not args.lexicon:
            raise TalentGraphError("--lexicon is required when computing stats on a corpus")
        lexicon = load_skill_lexicon(args.lexicon)
        stats = compute_stats([rec for _, rec, _ in _parse_corpus(path, lexicon)], lexicon)
    else:
        stats = compute_graph_stats(KnowledgeGraph.load(path))
    if args.json:
        write_document({"schema_version": SCHEMA_VERSION, "stats": stats.to_dict()})
        return 0
    print(f"resumes                  {stats.resume_count}")
    print(f"distinct skills          {stats.distinct_skills}")
    print(f"avg skills per resume    {stats.avg_skills_per_resume:.2f}")
    print(f"avg projects per resume  {stats.avg_projects_per_resume:.2f}")
    for category, count in sorted(stats.skills_by_category.items()):
        print(f"  {category:<22} {count}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from .evaluation import evaluate_graph, load_gold

    graph = KnowledgeGraph.load(args.graph)
    gold = load_gold(args.gold)
    lexicon = _lexicon_for_graph(args.lexicon, graph)
    report = evaluate_graph(graph, gold, lexicon, mode=args.topk_mode)
    if args.json:
        write_document({"schema_version": SCHEMA_VERSION, "metrics": report.to_dict()})
        return 0
    print("metric                        value")
    print("-" * 35)
    for heading, metrics, keys in (
        ("skill extraction", report.extraction, ("precision", "recall", "f1")),
        ("sentiment", report.sentiment, ("accuracy", "precision", "recall")),
    ):
        if metrics:
            print(heading)
            for key in keys:
                print(f"  {'f1-score' if key == 'f1' else key:<27} {metrics[key]:.4f}")
    if report.topk:
        print(f"ranking ({'hit-rate' if args.topk_mode == 'hit' else 'precision'}@k)")
        for k, value in sorted(report.topk.items()):
            print(f"  top {k:<2} relevant            {value:.4f}")
    return 0


_COMMANDS = ("ingest", "query", "explain", "export", "stats", "eval")


def build_arg_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The whole parser tree; when ``argv`` starts with a command, a tree of that
    command's subparser alone, which parses ``argv`` and prints what the whole
    tree would. Each subcommand's ``func`` is the module's at build time."""
    parser = argparse.ArgumentParser(
        prog="talentgraph",
        description="Parse resumes, build a sentiment-weighted skill graph, run ranking queries.",
    )
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    # The usage line lists every command; a metavar on the whole tree would
    # also rename "argument command" in its errors.
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_COMMANDS) + "}" if only else None)

    def add(name: str, summary: str) -> argparse.ArgumentParser | None:
        return sub.add_parser(name, help=summary) if only in (None, name) else None

    if p := add("ingest", "parse a resume directory and persist the graph"):
        p.add_argument("corpus", help="directory of UTF-8 .txt resumes, one per file")
        p.add_argument("--lexicon", required=True, help="skill lexicon JSON file")
        p.add_argument("--gazetteer", required=True, help="sentiment gazetteer JSON file")
        p.add_argument("--out", required=True, help="graph file to write")
        p.add_argument("--intermediate", help="also write the exchange document here")
        p.add_argument("--duration-bonus-factor", type=float,
                       default=ScoringConfig.duration_bonus_factor)
        p.add_argument("--duration-cap-months", type=int,
                       default=ScoringConfig.duration_cap_months)
        p.add_argument("-v", "--verbose", action="store_true", help="print parse diagnostics")
        p.set_defaults(func=_cmd_ingest)

    if p := add("query", "rank jobseekers for a query"):
        p.add_argument("graph", help="graph file from ingest")
        p.add_argument("dsl", help='query, e.g. "C++ 8-10, Java 6-8, Python 2-3"')
        p.add_argument("--lexicon", help="lexicon for alias-aware skill resolution")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", help="write the output to this file")
        p.set_defaults(func=_cmd_query)

    if p := add("explain", "decompose one jobseeker's score for a query"):
        p.add_argument("graph")
        p.add_argument("jobseeker", help="jobseeker id")
        p.add_argument("dsl")
        p.add_argument("--lexicon")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_explain)

    if p := add("export", "re-serialize a graph file"):
        p.add_argument("graph")
        p.add_argument("--format", choices=("json", "dot"), default="json")
        p.add_argument("--out")
        p.set_defaults(func=_cmd_export)

    if p := add("stats", "corpus or graph statistics"):
        p.add_argument("path", help="resume directory or graph file")
        p.add_argument("--lexicon", help="required for directory input")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_stats)

    if p := add("eval", "score the graph against a gold fixture"):
        p.add_argument("graph")
        p.add_argument("gold", help="gold labels JSON file")
        p.add_argument("--lexicon")
        p.add_argument("--topk-mode", choices=("hit", "precision"), default="hit")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_arg_parser(argv).parse_args(argv)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (TalentGraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
