"""Smoke tests of the scripts under ``scripts/``: exit status and summary."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_verification(capsys):
    assert load("run_verification").main(["--primes", "7"]) == 0
    out = capsys.readouterr().out
    assert "symbolic        {'total': 478, 'passed': 478, 'failed': 0" in out
    assert "padic p=7       {'total': 40, 'passed': 40, 'failed': 0" in out
    assert "total wall time" in out


def test_calibrate_convergence(capsys):
    assert load("calibrate_convergence").main(["--primes", "7"]) == 0
    out = capsys.readouterr().out
    assert "=== p=7, q=1+p, K=24, level cap 5 ===" in out
    assert "worst slack at cap: +0" in out
    assert "proven bounds above the true agreement: 0" in out
