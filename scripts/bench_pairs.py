#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs.

Usage, from the repository root:

    git archive HEAD~ | tar -x -C /tmp/parent
    python3 scripts/bench_pairs.py --parent /tmp/parent --workload symbolic_grid \
        --seed 11 --pairs 10 --out BENCH_7.json

For every workload (``--workload`` may repeat; all of them by default) pair
i runs ``perfbench/run.py --seed SEED+i`` once in the parent checkout and
once in this working tree, the side that goes first alternating from pair
to pair so that a drift of the host's speed falls on both sides alike.
Each run lasts ``--seconds``, by default the ``run_seconds`` of
BENCHMARK.json.  A metric counts in a pair only when both runs of the pair
reported it, so the two series stay aligned seed for seed.  It prints each
side's median and quartiles of every end-to-end metric, for ``wall_s`` and
``setup_s`` the number of pairs in which the change's value is lower (a tie
counts for neither side) and whether that shows a gain, and for every
``end_to_end`` metric of
BENCHMARK.json one of three states, reading its ``bound`` as relative to the
parent's median:

* ``within bound``;
* ``worse``: the change's median is worse than the parent's by more than
  the bound, in the metric's ``better`` direction;
* ``unresolved``: the parent's own (q3 - q1)/median exceeds the bound, or a
  side has no value, so the runs cannot tell.

A gain in ``wall_s`` is shown (``wall_s_gain_shown``) only when the change
is lower in at least 9 of every 10 pairs and the parent's median exceeds the
change's by more than the parent's own q3 - q1; the same rule gives
``setup_s_gain_shown``, next to ``setup_s_wins`` and ``setup_s_pairs``.
Each side's ``wall_s`` and ``setup_s`` of every counted pair, in pair
order, are kept under ``series``, so that a count of wins can be read back
pair by pair.  After the pairs, each side runs ``perfbench/run.py --trace
1`` once per workload with the first pair's seed, and its ``correct`` is
recorded under ``traced``.

It also records and prints each side's ``src_lines``, the total line count
of its ``src/qbern/*.py`` as ``wc -l`` counts it.  It writes those figures
as JSON to ``--out``.  The exit code is 1 when any run, traced or not,
reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
GAIN_METRICS = ("wall_s", "setup_s")  # each gets _wins, _pairs and _gain_shown


def run_side(directory: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py --trace TRACE`` run in ``directory``: its final
    JSON object."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=directory, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def src_lines(directory: Path) -> int:
    """The newlines in ``directory``'s ``src/qbern/*.py``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (directory / "src" / "qbern").glob("*.py"))


def quartiles(series: list) -> dict:
    if len(series) == 1:
        return {"median": series[0], "q1": series[0], "q3": series[0]}
    q1, median, q3 = statistics.quantiles(series, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(dirs: dict, workload: str, seed: int, pairs: int, seconds: float):
    """(summary, all runs correct) for one workload over alternating pairs."""
    values = {side: {} for side in SIDES}
    correct = True
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        out = {side: run_side(dirs[side], workload, seed + i, seconds, 0) for side in order}
        correct = correct and all(o.get("correct") for o in out.values())
        metrics = {side: out[side].get("metrics", {}) for side in SIDES}
        for name in metrics["parent"]:
            if name in metrics["change"]:
                for side in SIDES:
                    values[side].setdefault(name, []).append(metrics[side][name]["value"])
    summary = {side: {name: quartiles(series) for name, series in values[side].items()}
               for side in SIDES}
    summary["series"] = {side: {metric: values[side].get(metric, []) for metric in GAIN_METRICS}
                         for side in SIDES}
    for metric in GAIN_METRICS:
        pairs = list(zip(values["parent"].get(metric, []), values["change"].get(metric, [])))
        summary[f"{metric}_wins"] = sum(change < parent for parent, change in pairs)
        summary[f"{metric}_pairs"] = len(pairs)
        summary[f"{metric}_gain_shown"] = gain_shown(summary, metric)
    summary["traced"] = {side: bool(run_side(dirs[side], workload, seed, seconds, 1)
                                    .get("correct")) for side in SIDES}
    summary["all_correct"] = correct and all(summary["traced"].values())
    return summary, summary["all_correct"]


def gain_shown(summary: dict, metric: str = "wall_s") -> bool:
    """The change is lower in at least 9/10 of the pairs (ties count for
    neither side) and its median ``metric`` is below the parent's by more
    than the parent's q3 - q1."""
    wins, pairs = summary[f"{metric}_wins"], summary[f"{metric}_pairs"]
    if not pairs or 10 * wins < 9 * pairs:
        return False
    parent, change = summary["parent"][metric], summary["change"][metric]
    return parent["median"] - change["median"] > parent["q3"] - parent["q1"]


def bound_state(summary: dict, metric: dict) -> str:
    """``within bound``, ``worse`` or ``unresolved`` for one end-to-end
    metric of BENCHMARK.json (its ``bound`` relative to the parent's median)."""
    parent = summary["parent"].get(metric["name"])
    change = summary["change"].get(metric["name"])
    if parent is None or change is None:
        return "unresolved"
    median, bound = parent["median"], metric["bound"]
    if parent["q3"] - parent["q1"] > bound * abs(median):
        return "unresolved"
    worse = change["median"] - median if metric["better"] == "lower" else median - change["median"]
    return "worse" if worse > bound * abs(median) else "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    dirs = {"parent": args.parent, "change": ROOT}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    report = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "pairs": args.pairs, "seeds": [args.seed, args.seed + args.pairs - 1],
        "seconds": seconds, "workloads": {},
        "src_lines": {side: src_lines(dirs[side]) for side in SIDES},
    }
    print(f"src lines: parent {report['src_lines']['parent']}, "
          f"change {report['src_lines']['change']}")
    ok = True
    for workload in workloads:
        summary, correct = compare(dirs, workload, args.seed, args.pairs, seconds)
        ok = ok and correct
        summary["bounds"] = {m["name"]: bound_state(summary, m) for m in spec["end_to_end"]}
        report["workloads"][workload] = summary
        for side in SIDES:
            for name, q in summary[side].items():
                print(f"{workload} {side:6} {name}: median {q['median']:.6g} "
                      f"(q1 {q['q1']:.6g}, q3 {q['q3']:.6g})")
        for name, state in summary["bounds"].items():
            print(f"{workload} {name}: {state}")
        for metric in GAIN_METRICS:
            print(f"{workload}: change lower in {metric} in "
                  f"{summary[f'{metric}_wins']}/{summary[f'{metric}_pairs']} "
                  f"pairs; gain shown: {summary[f'{metric}_gain_shown']}")
        print(f"{workload}: traced run correct: parent {summary['traced']['parent']}, "
              f"change {summary['traced']['change']}; all runs correct: {correct}")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
