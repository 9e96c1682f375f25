"""Golden reports: the CLI's output and exit codes, byte for byte.

Each file under ``tests/golden/`` is the stdout of one CLI invocation, named
after its ``CASES`` key (``.jsonl`` for reports, ``.csv`` for tables), and
``exit_codes.json`` holds its exit code.  A refactor of the identity layer
or of the symbolic kernels must leave all of them unchanged.  To regenerate
one after an intended change of the reports, run for example
``PYTHONPATH=src python -m qbern.cli verify > tests/golden/verify_symbolic.jsonl``
and review the diff.
"""

import json
from pathlib import Path

import pytest

from qbern.cli import main

GOLDEN = Path(__file__).parent / "golden"
GRIDS = Path(__file__).parent / "grids"

CASES = {
    "verify_symbolic": ["verify"],
    "verify_padic_p3": ["verify", "--backend", "padic", "--p", "3"],
    "verify_padic_p5": ["verify", "--backend", "padic", "--p", "5"],
    "verify_padic_p7": ["verify", "--backend", "padic", "--p", "7"],
    # PROP2, THM3, EQ7, Q_TO_1, EQ9_EQ11 and EQ10_SYMMETRY at x = 2, n <= 20
    "verify_deep_n20": ["verify", "--grid", str(GRIDS / "deep_n20.json")],
    "selftest": ["selftest"],
    "selftest_corrupt": ["selftest", "--corrupt"],
    "table_beta_at_one": ["table", "--kind", "beta", "--range", "0:20", "--at-one",
                          "--format", "csv"],
    "table_beta_at_one_deep": ["table", "--kind", "beta", "--range", "0:30", "--at-one",
                               "--format", "csv"],
    "table_integral_k1": ["table", "--kind", "integral", "--range", "0:8", "--k", "1"],
    "integrate_bernstein_p3": [
        "integrate", "--backend", "padic", "--p", "3", "--integrand",
        '{"type":"bernstein_product","factors":[[1,3,1],[1,2,2]]}',
    ],
    "integrate_none_p3": [
        "integrate", "--backend", "padic", "--p", "3", "--level-cap", "1",
        "--integrand", '{"type":"bracket_power","offset":0,"power":6}',
    ],
    "xi_padic_p5": ["xi", "--n", "12", "--backend", "padic", "--p", "5"],
    "xi_symbolic": ["xi", "--n", "16"],
    "xi_symbolic_deep": ["xi", "--n", "24"],
    "beta_poly_padic_p5": ["beta-poly", "--n", "3", "--x", "-1/2", "--backend", "padic",
                           "--p", "5"],
    "bernstein_symbolic": ["bernstein", "--k", "1", "--n", "3", "--x", "2"],
    # the symbolic values at a negative integer x, and a table of the basis there
    "beta_poly_symbolic_neg": ["beta-poly", "--n", "12", "--x", "-3"],
    "table_bernstein_symbolic": ["table", "--kind", "bernstein", "--range", "0:8", "--x", "-2"],
    "table_beta_padic_p5": ["table", "--kind", "beta", "--range", "0:6", "--backend", "padic",
                            "--p", "5", "--format", "csv"],
    "table_beta_padic_p3_deep": ["table", "--kind", "beta", "--range", "0:24", "--backend",
                                 "padic", "--p", "3", "--format", "csv"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    (golden,) = GOLDEN.glob(f"{name}.*")
    out = tmp_path / golden.name
    code = main(CASES[name] + ["--out", str(out)])
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert out.read_bytes() == golden.read_bytes()
