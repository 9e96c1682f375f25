"""Smoke tests of the scripts under ``scripts/``: exit status and summary."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibrate_convergence(capsys):
    assert load("calibrate_convergence").main(["--primes", "7"]) == 0
    out = capsys.readouterr().out
    assert "=== p=7, q=1+p, K=24, level cap 5 ===" in out
    assert "worst slack at cap: +0" in out
    assert "proven bounds above the true agreement: 0" in out


def test_bench_pairs(tmp_path, capsys):
    bench = load("bench_pairs")
    calls = []

    def fake_run(directory, workload, seed, seconds, trace):
        side = "parent" if directory == tmp_path else "change"
        calls.append((side, workload, seed, trace))
        wall = 0.6 + seed / 100 if side == "parent" else 0.25 + seed / 100
        return {"correct": True, "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                             "setup_s": {"value": 0.1, "unit": "s"}}}

    bench.run_side = fake_run
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path), "--workload", "symbolic_grid", "--seed", "3",
            "--pairs", "4", "--out", str(out)]
    assert bench.main(argv) == 0
    # sides alternate which goes first, and pair i runs seed 3 + i
    untraced = [c for c in calls if not c[3]]
    assert [c[0] for c in untraced] == ["parent", "change", "change", "parent"] * 2
    assert [c[2] for c in untraced] == [3, 3, 4, 4, 5, 5, 6, 6]
    # then one traced run per side and workload, with the first pair's seed
    assert sorted(c for c in calls if c[3]) == [("change", "symbolic_grid", 3, 1),
                                                ("parent", "symbolic_grid", 3, 1)]
    printed = capsys.readouterr().out
    assert "change lower in wall_s in 4/4 pairs; gain shown: True" in printed
    assert "traced run correct: parent True, change True; all runs correct: True" in printed
    report = json.loads(out.read_text())["workloads"]["symbolic_grid"]
    assert report["wall_s_wins"] == 4
    # 0.645 - 0.295 is far above the parent's q3 - q1 of 0.015
    assert report["wall_s_gain_shown"] is True
    assert report["traced"] == {"parent": True, "change": True}
    assert report["parent"]["wall_s"]["median"] == pytest.approx(0.645)
    assert report["change"]["wall_s"]["q1"] == pytest.approx(0.2875)
    assert report["change"]["setup_s"]["median"] == pytest.approx(0.1)

    # A parent run that prints nothing drops its whole pair, so every later
    # pair still compares the same seed on both sides; each end-to-end metric
    # gets one of three states against its relative bound.
    def gappy_run(directory, workload, seed, seconds, trace):
        side = "parent" if directory == tmp_path else "change"
        if side == "parent" and seed == 4:
            return {"correct": False, "metrics": {}}
        values = {
            "wall_s": 0.5 + seed / 100 + (0.005 if side == "change" else 0),
            "setup_s": 0.2 if side == "change" else 0.1,         # twice the parent's
            "peak_rss_mb": 20 + 10 * (seed % 2),                 # a spread of 5/30
            "verify_pass_ratio": 1.0,
        }
        return {"correct": True,
                "metrics": {name: {"value": v} for name, v in values.items()}}

    bench.run_side = gappy_run
    assert bench.main(argv) == 1  # the empty run is not correct
    printed = capsys.readouterr().out
    report = json.loads(out.read_text())["workloads"]["symbolic_grid"]
    # pairs of seeds 3, 5 and 6: the change is slower in each
    assert (report["wall_s_wins"], report["wall_s_pairs"]) == (0, 3)
    assert report["wall_s_gain_shown"] is False
    assert "change lower in wall_s in 0/3 pairs; gain shown: False" in printed
    assert report["parent"]["wall_s"]["median"] == pytest.approx(0.55)
    assert report["change"]["wall_s"]["median"] == pytest.approx(0.555)
    assert report["bounds"] == {"setup_s": "worse", "wall_s": "within bound",
                                "peak_rss_mb": "unresolved",
                                "verify_pass_ratio": "within bound"}
    assert "symbolic_grid setup_s: worse" in printed
    assert "symbolic_grid peak_rss_mb: unresolved" in printed

    # Lower in every pair, but by less than the parent's own spread: no gain
    # is shown.  A traced run that is not correct fails the comparison.
    def close_run(directory, workload, seed, seconds, trace):
        side = "parent" if directory == tmp_path else "change"
        if trace:
            return {"correct": side == "parent", "metrics": {}}
        wall = 0.5 + seed / 10 - (0.01 if side == "change" else 0)
        return {"correct": True, "metrics": {"wall_s": {"value": wall}}}

    bench.run_side = close_run
    assert bench.main(argv) == 1
    printed = capsys.readouterr().out
    report = json.loads(out.read_text())["workloads"]["symbolic_grid"]
    # medians 0.95 and 0.94 against the parent's q3 - q1 of 0.15
    assert (report["wall_s_wins"], report["wall_s_pairs"]) == (4, 4)
    assert report["wall_s_gain_shown"] is False
    assert report["traced"] == {"parent": True, "change": False}
    assert "change lower in wall_s in 4/4 pairs; gain shown: False" in printed
    assert "traced run correct: parent True, change False; all runs correct: False" in printed

    # 9 of 10 pairs is enough, 8 of 10 is not
    parent = {"median": 1.0, "q1": 0.99, "q3": 1.01}
    change = {"median": 0.9, "q1": 0.89, "q3": 0.91}
    for wins, shown in ((10, True), (9, True), (8, False)):
        summary = {"wall_s_wins": wins, "wall_s_pairs": 10,
                   "parent": {"wall_s": parent}, "change": {"wall_s": change}}
        assert bench.gain_shown(summary) is shown
