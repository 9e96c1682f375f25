"""Golden reports: the suite's JSON-lines output and exit codes, byte for byte.

Each file under ``tests/golden/`` is the stdout of one CLI invocation, and
``exit_codes.json`` holds its exit code.  A refactor of the identity layer
must leave all of them unchanged.  To regenerate one after an intended
change of the reports, run for example
``PYTHONPATH=src python -m qbern.cli verify > tests/golden/verify_symbolic.jsonl``
and review the diff.
"""

import json
from pathlib import Path

import pytest

from qbern.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify_symbolic": ["verify"],
    "verify_padic_p3": ["verify", "--backend", "padic", "--p", "3"],
    "verify_padic_p5": ["verify", "--backend", "padic", "--p", "5"],
    "verify_padic_p7": ["verify", "--backend", "padic", "--p", "7"],
    "selftest": ["selftest"],
    "selftest_corrupt": ["selftest", "--corrupt"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    out = tmp_path / f"{name}.jsonl"
    code = main(CASES[name] + ["--out", str(out)])
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert out.read_bytes() == (GOLDEN / f"{name}.jsonl").read_bytes()
