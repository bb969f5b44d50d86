"""The benchmark's workloads, run briefly. Their correctness checks read
``graph.nodes``, the ``graph.edges`` keys and the edge accumulators
directly, so a change to the graph's layout breaks the benchmark before it
breaks any other test; the cli workload also checks the dot line counts,
eval, stats and rankings after each cold load, and the rank workload checks
explains, which read the jobseeker's own project rows. These tests change
nothing under bench/."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).parent.parent / "bench" / "run.py"


def run_workload(name: str) -> None:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", "3", "--seconds", "0.1"],
        check=True, capture_output=True, text=True,
    )
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["correct"] is True, done.stdout
    assert summary["failed"] == 0, done.stdout


def test_bench_ingest_workload_is_correct():
    run_workload("ingest")


def test_bench_cli_workload_is_correct():
    run_workload("cli")


def test_bench_rank_workload_is_correct():
    run_workload("rank")
