"""The benchmark's ingest workload, run briefly. Its correctness checks read
``graph.nodes``, the ``graph.edges`` keys and the edge accumulators directly,
so a change to the graph's layout breaks the benchmark before it breaks any
other test. This test changes nothing under bench/."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).parent.parent / "bench" / "run.py"


def test_bench_ingest_workload_is_correct():
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", "ingest", "--seed", "3", "--seconds", "0.1"],
        check=True, capture_output=True, text=True,
    )
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["correct"] is True, done.stdout
    assert summary["failed"] == 0, done.stdout
