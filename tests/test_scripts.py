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

    def fake_run(directory, workload, seed, seconds):
        side = "parent" if directory == tmp_path else "change"
        calls.append((side, workload, seed))
        wall = 0.6 + seed / 100 if side == "parent" else 0.25 + seed / 100
        return {"correct": True, "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                             "setup_s": {"value": 0.1, "unit": "s"}}}

    bench.run_side = fake_run
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path), "--workload", "symbolic_grid", "--seed", "3",
            "--pairs", "4", "--out", str(out)]
    assert bench.main(argv) == 0
    # sides alternate which goes first, and pair i runs seed 3 + i
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent"] * 2
    assert [c[2] for c in calls] == [3, 3, 4, 4, 5, 5, 6, 6]
    assert "change lower in wall_s in 4/4 pairs; all runs correct: True" in capsys.readouterr().out
    report = json.loads(out.read_text())["workloads"]["symbolic_grid"]
    assert report["wall_s_wins"] == 4
    assert report["parent"]["wall_s"]["median"] == pytest.approx(0.645)
    assert report["change"]["wall_s"]["q1"] == pytest.approx(0.2875)
    assert report["change"]["setup_s"]["median"] == pytest.approx(0.1)
