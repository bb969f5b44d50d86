"""Each ``BENCH_<pr>.json`` at the repository root holds the benchmark runs that
a change's CHANGES.md line quotes, and the figures it quotes. This test checks
the file's shape and recomputes every quoted figure from the listed runs, so
a figure cannot drift from its runs. It passes trivially when no file exists.

A file holds, for each run of ``bench/run.py``: the workload, the side
(``parent`` or ``change``) with its commit and the git tree id of its
``src/``, the seed, ``--seconds``, ``--trace``, the pair and the run's place
in it, and the two JSON lines the run printed, unedited. Its summaries give,
for one untraced workload, seed and end-to-end metric, each pair's (parent,
change) figures, each side's median and quartiles (``statistics.quantiles``,
``n=4``, ``method="inclusive"``) and the number of pairs in which the change
reads lower. ``claimed`` names the workload, metric and seeds of a claimed
gain, each of which needs a summary; it is null when the change claims no
gain, and then every untraced workload and seed has a summary of every
end-to-end metric."""
from __future__ import annotations

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"] for metric in BENCHMARK["per_layer"]}
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
SIDES = ("parent", "change")
HEX40 = re.compile(r"[0-9a-f]{40}")
RUN_KEYS = {"workload", "side", "commit", "src_tree", "seed", "seconds", "trace", "pair",
            "position", "lines"}
SUMMARY_KEYS = {"workload", "seed", "metric", "pairs", "parent", "change", "lower", "of"}


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def check_run(run: dict, parent: str) -> tuple[dict, dict]:
    """The run's printed (context, result), after its shape is checked."""
    assert set(run) == RUN_KEYS
    assert run["workload"] in WORKLOADS and run["side"] in SIDES
    assert run["commit"] == (parent if run["side"] == "parent" else None)
    assert HEX40.fullmatch(run["src_tree"])
    assert type(run["seed"]) is int and run["seconds"] > 0 and run["trace"] in (0, 1)
    assert type(run["pair"]) is int and run["pair"] >= 0 and run["position"] in (0, 1)
    assert len(run["lines"]) == 2 and all(type(line) is str for line in run["lines"])
    context, result = map(json.loads, run["lines"])
    assert (context["context"]["workload"], context["context"]["seed"]) == (
        run["workload"], run["seed"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["failed"]) == (True, 0), run
    names = set(result["metrics"])
    assert names == END_TO_END if run["trace"] == 0 else names <= PER_LAYER
    return context, result


def check_file(path: Path) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert HEX40.fullmatch(doc["parent"])
    groups: dict[tuple, dict[int, dict[str, dict]]] = {}
    for run in doc["runs"]:
        _, result = check_run(run, doc["parent"])
        pair = groups.setdefault((run["workload"], run["seed"], run["trace"]), {}).setdefault(
            run["pair"], {})
        assert run["side"] not in pair, f"two {run['side']} runs in one pair"
        pair[run["side"]] = {**run, "metrics": result["metrics"]}
    for (workload, seed, trace), pairs in groups.items():
        assert sorted(pairs) == list(range(len(pairs))), (workload, seed, trace)
        firsts = []
        for pair in pairs.values():
            assert set(pair) == set(SIDES), f"{workload} seed {seed}: a pair lacks a side"
            assert {pair[side]["position"] for side in SIDES} == {0, 1}
            assert len({pair[side]["seconds"] for side in SIDES}) == 1
            firsts.append(next(side for side in SIDES if pair[side]["position"] == 0))
        assert all(a != b for a, b in zip(firsts, firsts[1:])), "sides do not alternate"
        for side in SIDES:
            assert len({pair[side]["src_tree"] for pair in pairs.values()}) == 1, side

    claimed = doc["claimed"]
    assert claimed is None or (claimed["metric"] in END_TO_END
                               and claimed["workload"] in WORKLOADS)
    summarized = set()
    for summary in doc["summaries"]:
        assert set(summary) == SUMMARY_KEYS
        key = (summary["workload"], summary["seed"], summary["metric"])
        assert summary["metric"] in END_TO_END and key not in summarized
        summarized.add(key)
        pairs = groups[summary["workload"], summary["seed"], 0]
        figures = [[pairs[i][side]["metrics"][summary["metric"]]["value"] for side in SIDES]
                   for i in sorted(pairs)]
        assert summary["pairs"] == figures, key
        for n, side in enumerate(SIDES):
            assert summary[side] == spread([pair[n] for pair in figures]), (key, side)
        assert (summary["lower"], summary["of"]) == (
            sum(change < parent for parent, change in figures), len(figures)), key
    if claimed is None:  # no gain claimed: every untraced run's figures are summarized
        assert summarized == {(workload, seed, metric) for workload, seed, trace in groups
                              if trace == 0 for metric in END_TO_END}
        return
    for seed in claimed["seeds"]:
        assert (claimed["workload"], seed, claimed["metric"]) in summarized


FILES = sorted(ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", FILES, ids=[path.name for path in FILES])
def test_bench_file_recomputes(path):
    check_file(path)


def test_a_changed_figure_fails_the_check(tmp_path):
    """Editing one run's figure breaks a recomputed summary."""
    if not FILES:
        pytest.skip("no BENCH_*.json yet")
    doc = json.loads(FILES[-1].read_text(encoding="utf-8"))
    summary = doc["summaries"][0]
    run = next(run for run in doc["runs"] if run["trace"] == 0
               and (run["workload"], run["seed"]) == (summary["workload"], summary["seed"]))
    result = json.loads(run["lines"][1])
    result["metrics"][summary["metric"]]["value"] += 1.0
    run["lines"][1] = json.dumps(result)
    edited = tmp_path / "BENCH_0.json"
    edited.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(AssertionError):
        check_file(edited)
