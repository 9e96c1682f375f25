"""Command-line surface: outputs, formats, exit codes."""

import csv
import gc
import io
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import qbern
from qbern import cli
from qbern.cli import _csv_field, main
from qbern.errors import DomainError
from qbern.identities import CATALOG, SuiteConfig, default_grid

SRC = str(Path(qbern.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_beta_symbolic(capsys):
    code, out, _ = run(capsys, "beta", "--n", "1", "--backend", "symbolic")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == {"num": ["-1"], "den": ["1", "1"]}
    assert payload["rendered"] == "(-1)/(1 + q)"


def test_beta_zero(capsys):
    code, out, _ = run(capsys, "beta", "--n", "0")
    assert code == 0
    assert json.loads(out)["value"] == {"num": ["1"], "den": ["1"]}


def test_beta_padic_payload(capsys):
    code, out, _ = run(capsys, "beta", "--n", "2", "--backend", "padic", "--p", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["backend"] == "padic"
    assert payload["certified_precision"] > 0
    assert payload["value"]["p"] == 3


def test_beta_precision_exhausted_exit(capsys):
    # the exact value at q = 1+p, embedded once, carries all 4 unit digits
    code, out, _ = run(capsys, "beta", "--n", "5", "--backend", "padic",
                       "--p", "3", "--q", "1+p", "--precision", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["certified_precision"] == payload["value"]["valuation"] + 4 == 4


def test_xi_command(capsys):
    code, out, _ = run(capsys, "xi", "--n", "2")
    assert code == 0
    assert json.loads(out)["value"] == {"num": ["-1"], "den": ["-1", "0", "1"]}


def test_beta_poly(capsys):
    code, out, _ = run(capsys, "beta-poly", "--n", "2", "--x", "0")
    assert code == 0
    assert json.loads(out)["value"] == {"num": ["0", "1"], "den": ["1", "2", "2", "1"]}


def test_bernstein_command(capsys):
    code, out, _ = run(capsys, "bernstein", "--k", "0", "--n", "3", "--x", "0")
    assert code == 0
    assert json.loads(out)["value"] == {"num": ["1"], "den": ["1"]}


def test_integrate_constant(capsys):
    code, out, _ = run(capsys, "integrate", "--backend", "padic", "--p", "3",
                       "--integrand", '{"type":"bracket_power","offset":0,"power":0}')
    assert code == 0
    payload = json.loads(out)
    assert payload["level"] == 1
    assert payload["value"]["digits"][0] == 1


def test_integrate_constant_bernstein_product_low_precision(capsys):
    # [x]_q^0 (1 - [x]_q)^0 is the constant 1: at K = 2 it integrates like
    # [x]_q^0, with no 1/(1 - q) formed
    args = ("integrate", "--backend", "padic", "--p", "3", "--precision", "2",
            "--integrand")
    want = run(capsys, *args, '{"type":"bracket_power","offset":0,"power":0}')
    got = run(capsys, *args, '{"type":"bernstein_product","factors":[[0,0,1]]}')
    assert got == want
    code, out, _ = got
    assert code == 3
    assert json.loads(out)["stabilization_valuation"] == 1


@pytest.mark.parametrize("integrand", [
    '{"type":"bracket_power","offset":0,"power":2}',
    '{"type":"reflected_power","offset":1,"power":2}',
])
def test_integrate_low_precision_bracket_exits_2(capsys, integrand):
    # at K = 2 and q = 4, 1/(1 - q) keeps K - 2 nu(q - 1) = 0 digits, so the
    # level-1 sum cannot be formed and the error escapes
    code, out, err = run(capsys, "integrate", "--backend", "padic", "--p", "3",
                         "--precision", "2", "--integrand", integrand)
    assert (code, out) == (2, "")
    assert err == "error: division result would be certified only modulo p^0\n"


def test_integrate_bracket_power(capsys):
    code, out, _ = run(capsys, "integrate", "--backend", "padic", "--p", "3",
                       "--target-valuation", "6",
                       "--integrand", '{"type":"bracket_power","offset":0,"power":2}')
    assert code == 0
    assert json.loads(out)["stabilization_valuation"] >= 6


def test_integrate_budget_exit(capsys):
    code, _, err = run(capsys, "integrate", "--backend", "padic", "--p", "3",
                       "--level-cap", "2", "--target-valuation", "6",
                       "--integrand", '{"type":"bracket_power","offset":0,"power":6}')
    assert code == 3
    assert "level cap" in err


def test_integrate_certifies_at_cap(capsys):
    # p = 5 reaches valuation 8 only through the extrapolation, here from
    # levels 1..3, which fix the degree-2 polynomial
    code, out, _ = run(capsys, "integrate", "--backend", "padic", "--p", "5",
                       "--target-valuation", "8",
                       "--integrand", '{"type":"bracket_power","offset":0,"power":2}')
    assert code == 0
    payload = json.loads(out)
    assert payload["level"] == 3
    assert payload["stabilization_valuation"] >= 8
    code, _, err = run(capsys, "integrate", "--backend", "padic", "--p", "3",
                       "--level-cap", "2", "--target-valuation", "8",
                       "--integrand", '{"type":"bracket_power","offset":0,"power":6}')
    assert code == 3
    assert "level cap" in err


@pytest.mark.parametrize("integrand,level_cap,kind", [
    ('{"type":"bracket_power","offset":0,"power":2}', "8", "exact-degree"),
    ('{"type":"bracket_power","offset":0,"power":6}', "3", "a-priori-bound"),
    # a short id: the full parameter string of this row would share its
    # first 100 characters with the row above
    pytest.param('{"type":"bracket_power","offset":0,"power":6}', "1", "none",
                 id="bracket-power-6-cap-1-none"),
])
def test_integrate_prints_certificate_kind(capsys, integrand, level_cap, kind):
    code, out, _ = run(capsys, "integrate", "--backend", "padic", "--p", "3",
                       "--level-cap", level_cap, "--integrand", integrand)
    assert code in (0, 3)
    payload = json.loads(out)
    assert payload["certificate"] == kind
    # no certificate prints as "-inf", never as "inf"
    assert (payload["stabilization_valuation"] == "-inf") == (kind == "none")


@pytest.mark.parametrize("argv", [
    ["bernstein", "--k", "1", "--n", "2", "--x", "-1/2", "--backend", "padic"],
    ["beta-poly", "--n", "2", "--x", "-1/2", "--backend", "padic"],
    ["beta", "--n", "2", "--backend", "padic", "--q", "-1/2"],
    ["bernstein", "--k", "1", "--n", "2", "--x", "-2", "--q", "-1/2", "--backend", "padic"],
])
def test_negative_literal_spaced_or_joined(capsys, argv):
    spaced = run(capsys, *argv)
    joined = []
    for token in argv:
        if joined and joined[-1] in ("--x", "--q"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    assert spaced[0] == 0
    assert spaced == run(capsys, *joined)


@pytest.mark.parametrize("argv", [
    ["bernstein", "--k", "1", "--n", "2", "--backend", "padic", "--x"],
    ["bernstein", "--k", "1", "--n", "2", "--x", "--backend", "padic"],
    ["beta", "--n", "2", "--backend", "padic", "--q"],
])
def test_missing_literal_value_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["beta-poly", "--n", "2", "--x", "1/2"],
    ["bernstein", "--k", "1", "--n", "2", "--x", "1/2"],
    ["table", "--kind", "bernstein", "--range", "0:2", "--x", "1/2"],
])
def test_symbolic_rational_x_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--backend", "symbolic")
    assert (code, out) == (2, "")
    assert err == "error: symbolic backend takes integer x only\n"


@pytest.mark.parametrize("backend", ["symbolic", "padic"])
@pytest.mark.parametrize("argv", [
    ["beta-poly", "--n", "3"],
    ["bernstein", "--k", "1", "--n", "3"],
])
def test_integer_written_as_a_fraction_is_an_integer_x(capsys, argv, backend):
    # 2.0 and 4/2 are the integer 2: the same path and the same bytes
    want = run(capsys, *argv, "--x", "2", "--backend", backend, "--p", "3")
    assert want[0] == 0
    for literal in ("2.0", "4/2"):
        assert run(capsys, *argv, "--x", literal, "--backend", backend, "--p", "3") == want


@pytest.mark.parametrize("argv", [
    ["bernstein", "--k", "1", "--n", "2", "--x", "-1", "--p", "3"],
    ["beta-poly", "--n", "3", "--x", "-5", "--p", "5", "--q", "26"],
    ["beta-poly", "--n", "3", "--x", "300", "--p", "5", "--q", "26"],
])
def test_padic_integer_x_certifies_every_digit(capsys, argv):
    # [x]_q at an integer x keeps all K = 24 digits, as it does at x = 1
    code, out, _ = run(capsys, *argv, "--backend", "padic")
    assert code == 0
    assert json.loads(out)["certified_precision"] == 24


_BUDGET_ERROR = ("error: a symbolic value of degree {} at this x needs more than "
                 "the term budget of 2000000 terms\n")


@pytest.mark.parametrize("argv, degree", [
    (["bernstein", "--k", "0", "--n", "2"], 2),
    (["beta-poly", "--n", "3"], 3),
    (["beta-poly", "--n", "0"], 0),
    (["table", "--kind", "bernstein", "--range", "0:2"], 0),
])
def test_huge_symbolic_integer_x_exits_3(capsys, argv, degree):
    # refused before any Z[q] list is built, with one error line; a padic
    # context takes the termwise path and prints the value
    for x in ("1e400", "-1e400"):
        assert run(capsys, *argv, "--x", x) == (3, "", _BUDGET_ERROR.format(degree))
    code, out, err = run(capsys, *argv, "--x", "1e400", "--backend", "padic")
    assert (code, err) == (0, "") and out


def test_huge_symbolic_integer_x_skips_its_row(capsys, tmp_path):
    row = {"identity": "EQ10_SYMMETRY", "params": {"k": 1, "n": 2, "x": 10 ** 400}}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"identities": [row, {"identity": "PROP2", "params": {"n": 3}}]}))
    for backend, skipped in (("symbolic", 1), ("padic", 0)):
        code, out, err = run(capsys, "verify", "--grid", str(path), "--backend", backend)
        lines = [json.loads(line) for line in out.strip().split("\n")]
        assert (code, err) == (0, "")
        assert lines[-1]["summary"]["skipped_out_of_domain"] == skipped
        assert lines[-1]["summary"]["passed"] == 2 - skipped
    assert lines[0]["notes"] == ""
    code, out, _ = run(capsys, "verify", "--grid", str(path))
    assert json.loads(out.split("\n")[0])["notes"] == _BUDGET_ERROR.format(2)[7:-1]


def test_integrate_requires_padic(capsys):
    code, _, err = run(capsys, "integrate",
                       "--integrand", '{"type":"bracket_power","offset":0,"power":1}')
    assert code == 2
    assert err == "error: the Riemann evaluator requires the padic backend\n"


# nested past the interpreter's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000

MALFORMED_INTEGRANDS = {
    "missing-key": '{"type":"bracket_power","offset":0}',
    "not-an-object": "[1]",
    "not-json": "{not json",
    "string-value": '{"type":"reflected_power","offset":"1","power":2}',
    "bool-value": '{"type":"bracket_power","offset":true,"power":6}',
    "custom-hash": '{"type":"custom_hash","seed":7}',
    "short-triple": '{"type":"bernstein_product","factors":[[1,2]]}',
    "factors-not-a-list": '{"type":"bernstein_product","factors":5}',
    "factors-missing": '{"type":"bernstein_product"}',
    "unknown-type": '{"type":"nope"}',
    "type-not-a-string": '{"type":[1],"offset":0,"power":2}',
    "integrand-unknown-field": '{"type":"bracket_power","offset":0,"power":2,"junk":1}',
    "missing-file": "@{tmp}/missing.json",
    "directory": "@{tmp}",
    "deeply-nested": DEEP,
    "deeply-nested-file": "@{tmp}/deep.json",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INTEGRANDS))
def test_integrate_malformed_integrand(name, capsys, tmp_path):
    spec = MALFORMED_INTEGRANDS[name].replace("{tmp}", str(tmp_path))
    (tmp_path / "deep.json").write_text(DEEP)
    code, out, err = run(capsys, "integrate", "--backend", "padic", "--integrand", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_integrate_capped_prints_best(capsys):
    code, out, err = run(capsys, "integrate", "--backend", "padic", "--p", "3",
                         "--level-cap", "2",
                         "--integrand", '{"type":"bracket_power","offset":0,"power":2}')
    assert code == 3
    payload = json.loads(out)
    assert payload["level"] == 2
    assert payload["stabilization_valuation"] == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "best achieved valuation 2" in err


def test_integrate_unsummable_level_prints_best(capsys):
    # level 4 keeps no digit at K = 6, q = 10: cap 4 ends like cap 3
    argv = ["integrate", "--backend", "padic", "--p", "3", "--precision", "6",
            "--q", "10", "--target-valuation", "8",
            "--integrand", '{"type":"bracket_power","offset":0,"power":2}']
    outs = []
    for cap in ("3", "4"):
        code, out, err = run(capsys, *argv, "--level-cap", cap)
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "best achieved valuation 2" in err
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[1])["stabilization_valuation"] == 2


def test_verify_small_grid(capsys, tmp_path):
    grid = {
        "backend": "symbolic",
        "identities": [
            {"identity": "PROP2", "params": {"n": 2}},
            {"identity": "PROP2", "params": {"n": 1}},
            {"identity": "THM3", "params": {"n": 4}},
        ],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    code, out, _ = run(capsys, "verify", "--grid", str(path))
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4  # three reports plus the summary
    reports = [json.loads(line) for line in lines[:-1]]
    assert reports[1]["domain_ok"] is False
    summary = json.loads(lines[-1])["summary"]
    assert summary["failed"] == 0
    assert summary["skipped_out_of_domain"] == 1


def _grid(*entries, **fields):
    return json.dumps({**fields, "identities": [
        {"identity": name, "params": params} for name, params in entries]})


MALFORMED_GRIDS = {
    "not-json": "{not json",
    "not-an-object": "5",
    "identities-not-a-list": json.dumps({"identities": 5}),
    "entry-not-a-pair": json.dumps({"identities": [5]}),
    "unknown-identity": _grid(("NOPE", {"n": 2})),
    "identity-not-a-string": _grid(({}, {"n": 2})),
    "entry-unknown-key": json.dumps({"identities": [
        {"identity": "PROP2", "params": {"n": 2}, "junk": 1}]}),
    "missing-params": _grid(("PROP2", {})),
    "missing-one-param": _grid(("THM4_COR5", {"n": 3})),
    "ill-typed-int": _grid(("PROP2", {"n": "x"})),
    "bool-for-int": _grid(("PROP2", {"n": True})),
    "ill-typed-list": _grid(("THM4_COR5", {"n": 3, "k": 1})),
    "ill-typed-pairs": _grid(("THM6", {"nm": [[2, 1, 1]], "k": 1})),
    "unknown-param": _grid(("PROP2", {"n": 2, "bogus": 1})),
    "params-not-an-object": _grid(("PROP2", [2])),
    "reading-in-domain": _grid(("THM6", {"nm": [[2, 1], [2, 1]], "k": 1,
                                         "reading": "mystery"})),
    "reading-out-of-domain": _grid(("THM6", {"nm": [[1, 1]], "k": 1,
                                             "reading": "mystery"})),
    "symbolic-q-literal": _grid(("PROP2", {"n": 2}), backend="symbolic", q="5"),
    "corrupt-field": _grid(("PROP2", {"n": 2}), corrupt=True),
    "deeply-nested": DEEP,
}


@pytest.mark.parametrize("name", sorted(MALFORMED_GRIDS))
def test_verify_malformed_grid(name, capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(MALFORMED_GRIDS[name])
    code, out, err = run(capsys, "verify", "--grid", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_precision_short_row_does_not_abort_the_grid(capsys, tmp_path):
    # at q = 1 + 3^12, 2 nu(q - 1) = K = 24, so the Riemann side of EQ6
    # keeps no digit and is skipped; the rows around it still run
    path = tmp_path / "grid.json"
    path.write_text(_grid(("PROP2", {"n": 2}), ("EQ6", {"n": 2}),
                          ("THM6", {"nm": [[4, 2], [5, 2]], "k": 1}),
                          backend="padic", prime=3, precision=24, q="531442"))
    code, out, err = run(capsys, "verify", "--grid", str(path))
    assert (code, err) == (0, "")
    prop2, eq6, thm6, summary = map(json.loads, out.splitlines())
    assert prop2["identity"] == "PROP2" and prop2["verdict"]["kind"] in ("exact", "valuation")
    assert eq6["identity"] == "EQ6" and not eq6["domain_ok"]
    assert eq6["notes"] == "division result would be certified only modulo p^0"
    assert thm6["identity"] == "THM6" and thm6["verdict"]["kind"] == "exact"
    assert summary["summary"]["skipped_out_of_domain"] == 1


def test_verify_flag_overrides_grid_field(capsys, tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(_grid(("PROP2", {"n": 2}), backend="padic", prime=3))
    code, out, _ = run(capsys, "verify", "--grid", str(path), "--p", "5")
    assert code == 0
    report = json.loads(out.splitlines()[0])
    assert report["lhs"]["p"] == 5 and report["rhs"]["p"] == 5


ZERO_DENOMINATORS = {
    "beta-q": ["beta", "--n", "3", "--backend", "padic", "--p", "3", "--q", "1/0"],
    "bernstein-table-x": ["table", "--kind", "bernstein", "--range", "0:3", "--x", "1/0"],
    "beta-poly-x": ["beta-poly", "--n", "2", "--backend", "padic", "--x", "5/0"],
    "grid-q": ["verify", "--grid", _grid(("PROP2", {"n": 2}), backend="padic", q="1/0")],
}


@pytest.mark.parametrize("name", sorted(ZERO_DENOMINATORS))
def test_zero_denominator_literal(name, capsys, tmp_path):
    argv = list(ZERO_DENOMINATORS[name])
    if argv[0] == "verify":
        path = tmp_path / "grid.json"
        path.write_text(argv[2])
        argv[2] = str(path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "zero denominator" in err


def test_malformed_grid_q_is_a_usage_error(capsys, tmp_path):
    # as on the command line (ARGV_OUTCOMES), in the wording of a zero denominator
    path = tmp_path / "grid.json"
    path.write_text(_grid(("PROP2", {"n": 2}), backend="padic", q="abc"))
    assert run(capsys, "verify", "--grid", str(path)) == (
        2, "", "error: invalid rational literal 'abc'\n")


def test_q_congruent_to_one_exits_2(capsys):
    # q = 10 is 1 mod 3^2, so q - 1 vanishes at precision 2; q itself is not 1
    code, out, err = run(capsys, "beta", "--n", "1", "--backend", "padic",
                         "--p", "3", "--precision", "2", "--q", "10")
    assert (code, out) == (2, "")
    assert err == "error: q - 1 vanishes to the working precision: q = 10 is congruent to 1 mod 3^2\n"
    code, _, err = run(capsys, "beta", "--n", "1", "--backend", "padic", "--q", "1")
    assert code == 2
    assert err == "error: q = 1 is not an admissible padic q\n"


def test_verify_byte_identical(capsys, tmp_path):
    grid = {"backend": "symbolic",
            "identities": [{"identity": "EQ7", "params": {"n": 3}}]}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    _, first, _ = run(capsys, "verify", "--grid", str(path))
    _, second, _ = run(capsys, "verify", "--grid", str(path))
    assert first == second


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--p", "3")
    assert code == 0
    assert '"summary"' in out


def test_selftest_honours_level_cap(capsys):
    code, out, _ = run(capsys, "selftest", "--level-cap", "1")
    assert code == 1
    assert "within level cap 1" in out


def test_selftest_corrupt(capsys):
    code, out, _ = run(capsys, "selftest", "--p", "3", "--corrupt")
    assert code == 1
    lines = out.strip().split("\n")
    summary = json.loads(lines[-1])["summary"]
    assert summary["failed"] >= 1


def test_selftest_target_above_the_precision_fails(capsys):
    # at 2 digits PROP2 still runs, but the target valuation is past what it
    # certifies, so it fails with the achieved valuation; the rest skip
    code, out, _ = run(capsys, "selftest", "--precision", "2")
    assert code == 1
    *reports, summary = map(json.loads, out.splitlines())
    assert [r["identity"] for r in reports if r["domain_ok"]] == ["PROP2"]
    verdict = reports[1]["verdict"]
    assert (verdict["kind"], verdict["valuation"]) == ("fail", 1)
    assert summary["summary"] == {"failed": 1, "passed": 0, "quarantined_failures": 0,
                                  "skipped_out_of_domain": 3, "total": 4}


TARGETS_BELOW_ONE = {
    "verify": ["verify", "--backend", "padic", "--target-valuation", "-1"],
    "selftest": ["selftest", "--target-valuation", "0"],
    "integrate": ["integrate", "--backend", "padic", "--p", "3", "--target-valuation", "0",
                  "--integrand", '{"type":"bernstein_product","factors":[[1,3,1]]}'],
    "grid": ["verify", "--grid", _grid(("PROP2", {"n": 2}), backend="padic",
                                       target_valuation=0)],
}


@pytest.mark.parametrize("name", sorted(TARGETS_BELOW_ONE))
def test_target_valuation_below_one_exits_2(name, capsys, tmp_path):
    # a comparison at valuation <= 0 certifies no digit, so no row may pass by it
    argv = list(TARGETS_BELOW_ONE[name])
    if name == "grid":
        path = tmp_path / "grid.json"
        path.write_text(argv[2])
        argv[2] = str(path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "target valuation must be at least 1" in err


def test_level_cap_below_one_in_a_grid_file_exits_2(capsys, tmp_path):
    # PROP2 reads no oracle, so only the configuration can refuse the cap
    path = tmp_path / "grid.json"
    path.write_text(_grid(("PROP2", {"n": 2}), backend="padic", level_cap=0))
    assert run(capsys, "verify", "--grid", str(path)) == (
        2, "", "error: level cap must be >= 1\n")


def test_selftest_corrupt_flips_the_first_row_that_ran(capsys):
    code, out, _ = run(capsys, "selftest", "--corrupt", "--precision", "3")
    assert code == 1
    reports = [json.loads(line) for line in out.splitlines()[:-1]]
    flipped = [r for r in reports if r["parameters"].get("corrupted")]
    assert len(flipped) == 1 and flipped[0]["verdict"]["kind"] == "fail"


@pytest.mark.parametrize("before, after", [
    (["--precision", "6", "table", "--kind", "beta", "--range", "0:2", "--backend", "padic"],
     ["table", "--kind", "beta", "--range", "0:2", "--backend", "padic", "--precision", "6"]),
    (["--backend", "padic", "--p", "5", "beta", "--n", "3"],
     ["beta", "--n", "3", "--backend", "padic", "--p", "5"]),
], ids=["precision", "backend"])
def test_global_flags_before_the_subcommand(capsys, before, after):
    first = run(capsys, *before)
    assert first[0] == 0
    assert first == run(capsys, *after)


# argv -> (exit code, a fragment of stderr): how the command line is read,
# whatever reads it
_Q1 = "q = 1 is not an admissible padic q"
ARGV_OUTCOMES = {
    "flag-equals-value": (["beta", "--n=1", "--backend=padic", "--q=1"], 2, _Q1),
    "flags-before-command": (["--backend", "padic", "--q", "1", "beta", "--n", "1"], 2, _Q1),
    "flags-after-command": (["beta", "--n", "1", "--backend", "padic", "--q", "1"], 2, _Q1),
    "repeat-last-wins": (["beta", "--n", "1", "--backend", "padic", "--q", "1", "--q", "4"],
                         0, ""),
    "repeat-last-loses": (["beta", "--n", "1", "--backend", "padic", "--q", "4", "--q", "1"],
                          2, _Q1),
    "repeat-after-command-wins": (["--q", "4", "beta", "--n", "1", "--backend", "padic",
                                   "--q", "1"], 2, _Q1),
    # a malformed rational literal is a usage error, worded as a zero
    # denominator is, wherever the literal is read
    "q-word": (["beta", "--n", "1", "--backend", "padic", "--q", "abc"], 2,
               "error: invalid rational literal 'abc'"),
    "q-two-slashes": (["beta", "--n", "1", "--backend", "padic", "--q", "1/2/3"], 2,
                      "error: invalid rational literal '1/2/3'"),
    "q-nan": (["beta", "--n", "1", "--backend", "padic", "--q", "nan"], 2,
              "error: invalid rational literal 'nan'"),
    "x-hex": (["beta-poly", "--n", "2", "--x", "0x10"], 2,
              "error: invalid rational literal '0x10'"),
    "prefix-prec": (["beta", "--n", "1", "--backend", "padic", "--p", "3", "--prec", "2",
                     "--q", "10"], 2, "q - 1 vanishes to the working precision"),
    "prefix-target": (["selftest", "--target", "0"], 2, "target valuation must be at least 1"),
    "prefix-target-8": (["selftest", "--target", "8"], 0, ""),
    # selftest runs on padic: another backend asked for is refused, not overridden
    "selftest-symbolic": (["selftest", "--backend", "symbolic"], 2,
                          "error: selftest requires the padic backend"),
    "selftest-padic": (["selftest", "--backend", "padic"], 0, ""),
    # a cap below 1 is refused with the configuration, also where no row
    # reads the oracle
    "level-cap-0-verify": (["verify", "--level-cap", "0"], 2, "level cap must be >= 1"),
    "level-cap-0-beta": (["beta", "--n", "3", "--level-cap", "0"], 2, "level cap must be >= 1"),
    "invalid-int": (["beta", "--n", "x"], 2, "argument --n: invalid int value: 'x'"),
    "invalid-choice": (["beta", "--n", "2", "--backend", "foo"], 2,
                       "argument --backend: invalid choice: 'foo' (choose from 'symbolic', 'padic')"),
    "invalid-command": (["nope"], 2, "invalid choice: 'nope'"),
    "unrecognized": (["beta", "--n", "2", "--grid", "g"], 2, "unrecognized arguments: --grid g"),
    # only table reads --format, so every other command refuses it
    "format-off-table": (["beta", "--n", "2", "--format", "csv"], 2,
                         "unrecognized arguments: --format csv"),
    "at-one-off-beta": (["table", "--kind", "bernstein", "--range", "0:1", "--at-one"], 2,
                        "error: the q=1 column is for beta tables only"),
    "switch-with-value": (["table", "--kind", "beta", "--range", "0:2", "--at-one=1"], 2,
                          "argument --at-one: ignored explicit argument '1'"),
    "no-command": ([], 2, "the following arguments are required: command"),
    "missing-required": (["beta"], 2, "the following arguments are required: --n"),
    "missing-value": (["beta", "--n"], 2, "argument --n: expected one argument"),
    "help": (["--help"], 0, ""),
    "command-help": (["verify", "--help"], 0, ""),
    # a value starting with one "-" is a value: "-x" is the output path here,
    # and "-2:3" a range whose first index is refused
    "dash-value-out": (["beta", "--out", "-x"], 2, "the following arguments are required: --n"),
    "dash-value-range": (["table", "--kind", "beta", "--range", "-2:3"], 2,
                         "error: index must be nonnegative"),
}


@pytest.mark.parametrize("name", ARGV_OUTCOMES)
def test_argv_outcome(name, capsys):
    argv, code, fragment = ARGV_OUTCOMES[name]
    try:
        status = main(argv)
    except SystemExit as exc:  # usage errors and help
        status = exc.code
    err = capsys.readouterr().err
    assert status == code
    assert fragment in err if fragment else err == ""


def test_table_beta_csv(capsys):
    code, out, _ = run(capsys, "table", "--kind", "beta", "--range", "0:2",
                       "--format", "csv", "--at-one")
    assert code == 0
    assert out.splitlines() == [
        "n,backend,value,value_at_q1",
        "0,symbolic,(1)/(1),1",
        "1,symbolic,(-1)/(1 + q),-1/2",
        "2,symbolic,(q)/(1 + 2*q + 2*q^2 + q^3),1/6",
    ]


@pytest.mark.parametrize("field", [
    "a,b", 'say "hi"', "a\rb", "a\nb", " lead", "trail ", "", 7,
    '{"digits": [1, 2], "p": 5, "precision": 24, "valuation": 0}',
], ids=["comma", "quote", "cr", "lf", "leading-space", "trailing-space", "empty", "int",
        "padic-cell"])
def test_csv_field_quotes_as_the_csv_module(field):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([field, "n", field])
    assert ",".join(map(_csv_field, [field, "n", field])) + "\n" == buf.getvalue()


def test_table_empty_range(capsys):
    code, out, _ = run(capsys, "table", "--kind", "beta", "--range", "3:2",
                       "--format", "csv")
    assert code == 0
    assert out.strip() == "n,backend,value"


def test_table_bernstein_json(capsys):
    code, out, _ = run(capsys, "table", "--kind", "bernstein", "--range", "1:2",
                       "--x", "2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 2 + 3


def test_table_integral(capsys):
    code, out, _ = run(capsys, "table", "--kind", "integral", "--range", "0:4",
                       "--k", "1")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["n"] for r in rows] == [1, 2, 3, 4]


def test_table_integral_negative_k(capsys):
    code, out, err = run(capsys, "table", "--kind", "integral", "--range", "0:3",
                         "--k", "-1")
    assert (code, out, err) == (2, "", "error: need k >= 0\n")


def test_table_bad_range(capsys):
    code, _, err = run(capsys, "table", "--kind", "beta", "--range", "zz")
    assert code == 2


def test_out_file(capsys, tmp_path):
    target = tmp_path / "beta.json"
    code, out, _ = run(capsys, "beta", "--n", "1", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["rendered"] == "(-1)/(1 + q)"


@pytest.mark.parametrize("argv", [
    ["beta", "--n", "2"],
    ["table", "--kind", "beta", "--range", "0:2"],
    ["verify", "--backend", "padic", "--p", "3"],
], ids=["beta", "table", "verify"])
def test_out_unwritable_exits_2(capsys, tmp_path, argv):
    # the parent directory does not exist: a usage error, not a traceback
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write output file") and err.count("\n") == 1
    assert not target.exists()


def test_symbolic_rejects_q_literal(capsys):
    code, _, err = run(capsys, "beta", "--n", "1", "--q", "3/2")
    assert code == 2


def test_symbolic_verify_rejects_q_literal(capsys):
    code, out, err = run(capsys, "verify", "--q", "5")
    assert (code, out) == (2, "")
    assert err == "error: a q literal only applies to the padic backend\n"


# the modules an import probe looks for: the command line is read without
# argparse and the gettext and locale it pulls in, and records need neither
# dataclasses nor typing; csv, json and the layers above the Carlitz table
# are imported only by the commands that run them
_PROBED = ("argparse", "csv", "dataclasses", "decimal", "fractions", "gettext", "inspect",
           "json", "locale", "numbers", "qbern.bernstein", "qbern.identities", "qbern.integral",
           "typing")


def test_cli_import_path_loads_no_optional_modules(tmp_path):
    # every qbern process pays its imports; -S keeps site's own imports out.
    # A beta table loads none of them, its q=1 column and CSV included; a
    # verify run loads the catalog, and a padic number its rational q as a
    # Fraction, so the probe can fail.
    grid = tmp_path / "grid.json"
    grid.write_text('{"identities": [["PROP2", {"n": 2}]]}')
    for argv, loaded in [
        (None, []),
        (["table", "--kind", "beta", "--range", "0:3", "--at-one", "--format", "csv"], []),
        (["verify", "--grid", str(grid)],
         ["json", "qbern.bernstein", "qbern.identities", "qbern.integral"]),
        (["beta", "--n", "2", "--backend", "padic"], ["decimal", "fractions", "json", "numbers"]),
    ]:
        run = "0" if argv is None else f"main({argv + ['--out', os.devnull]!r})"
        probe = (f"import sys; sys.path.insert(0, {SRC!r}); from qbern.cli import main; "
                 f"code = {run}; print(code, sorted(set({_PROBED!r}) & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-S", "-c", probe],
                              capture_output=True, text=True, check=True)
        assert done.stdout == f"0 {loaded}\n", argv


# the public names of the package, as it exported them when it imported every
# submodule up front
_PUBLIC = {
    "BernsteinSpec", "bernstein_eval", "CarlitzTable", "classical_bernoulli", "eval_at_one",
    "table_for", "BudgetExceeded", "ContextMismatch", "DivisionByZero", "DomainError",
    "MaxLevelExceeded", "NonIntegerExponentInSymbolicMode", "PoleAtOne", "PrecisionExhausted",
    "QbernError", "RequestedPrecisionNotCertified", "IdentityReport", "SuiteConfig", "Verdict",
    "run_suite", "suite_exit_status", "BernsteinProduct", "BracketPower", "ReflectedPower",
    "RiemannResult", "bernstein_power_product_integral", "closed_bracket_power",
    "closed_one_minus_x_power", "closed_reflected_power", "integrate", "riemann_sum",
    "PadicContext", "PadicNumber", "QContext", "RationalFunction", "Scalar", "invert_q",
    "q_bracket", "q_pow", "scalars_equal",
}


def test_the_package_loads_each_public_name_from_its_submodule():
    assert set(qbern.__all__) == _PUBLIC and len(qbern.__all__) == len(_PUBLIC)
    assert qbern.__version__ == "0.1.0"
    assert set(qbern.__all__) <= set(dir(qbern))
    for name in qbern.__all__:
        value = getattr(qbern, name)
        module = sys.modules[f"qbern.{qbern._HOME[name]}"]
        assert value is vars(module)[name]
        if callable(value):  # defined there, not imported from elsewhere
            assert value.__module__ == module.__name__
    with pytest.raises(AttributeError, match="no_such_name"):
        qbern.no_such_name
    probe = (f"import sys; sys.path.insert(0, {SRC!r}); import qbern; "
             "print(sorted(name for name in sys.modules if name.startswith('qbern.')))")
    done = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


# -- the process entry point ----------------------------------------------------
#
# ``python -m qbern.cli`` and the ``qbern`` script run ``console_main``: the
# same bytes and exit code as ``main`` in-process, a closed stdout as exit 2,
# and every object frozen before the interpreter shuts down.  The children
# run with default stdout buffering and an 80-column help layout.


def _child_env():
    env = {**os.environ, "COLUMNS": "80"}
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("argv, code", [
    (["verify", "--backend", "padic"], 0),
    (["verify"], 0),
    (["selftest", "--corrupt"], 1),
    (["beta", "--n"], 2),
    (["integrate", "--backend", "padic", "--level-cap", "2", "--target-valuation", "6",
      "--integrand", '{"type":"bracket_power","offset":0,"power":6}'], 3),
    (["--help"], 0),
    (["verify", "--help"], 0),
    (["beta", "--n", "2", "--backend", "foo"], 2),
], ids=["verify", "verify-split", "corrupt", "usage", "budget", "help", "command-help",
        "invalid-choice"])
def test_process_matches_main(argv, code, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        status = main(argv)
    except SystemExit as exc:  # --help and usage errors
        status = exc.code
    captured = capsys.readouterr()
    done = subprocess.run([sys.executable, "-m", "qbern.cli", *argv], env=_child_env(),
                          capture_output=True, check=False)
    assert (done.returncode, done.stdout, done.stderr) == (
        status, captured.out.encode(), captured.err.encode())
    assert status == code


_PIPE_ERROR = b"error: cannot write output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv, read, code, err", [
    (["verify"], 0, 2, _PIPE_ERROR),
    (["verify"], 100, 2, _PIPE_ERROR),
    (["beta", "--n", "2"], None, 2, b"error: cannot write output: stdout is closed\n"),
    (["beta", "--n", "2", "--out", "{tmp}/beta.json"], None, 0, b""),
], ids=["closed-at-start", "closed-after-100-bytes", "fd-1-closed", "fd-1-closed-out-file"])
def test_closed_stdout_exits_2(argv, read, code, err, tmp_path):
    # as an unwritable --out: one error line, no traceback, exit 2, while an
    # --out file is still written.  A pipe
    # is closed after ``read`` bytes, which the symbolic verify output (about
    # 250 kB) overfills; with ``read`` None fd 1 is closed before the child
    # starts.  Both with default buffering and under PYTHONUNBUFFERED=1,
    # whose raw stdout would otherwise drop a short write's remainder.
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    for unbuffered in (False, True):
        env = {**_child_env(), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {})}
        child = subprocess.Popen([sys.executable, "-m", "qbern.cli", *argv],
                                 stdout=subprocess.PIPE if read is not None else None,
                                 stderr=subprocess.PIPE, env=env,
                                 preexec_fn=None if read is not None else lambda: os.close(1))
        if read is not None:
            assert len(child.stdout.read(read)) == read
            child.stdout.close()
        assert (child.stderr.read(), child.wait(timeout=60)) == (err, code)
        child.stderr.close()
    if code == 0:
        assert json.loads((tmp_path / "beta.json").read_text())["n"] == 2


_SCRIPT = re.search(r'^qbern = "qbern\.cli:(\w+)"$',
                    (Path(SRC).parent / "pyproject.toml").read_text(), re.M).group(1)
_LAUNCHERS = {
    "module": "runpy.run_module('qbern.cli', run_name='__main__')",
    "script": f"from qbern.cli import {_SCRIPT}; sys.exit({_SCRIPT}())",
}


@pytest.mark.parametrize("launcher", _LAUNCHERS)
@pytest.mark.parametrize("argv, code", [(["beta", "--n", "2"], 0), (["--help"], 0),
                                        (["beta"], 2)], ids=["return", "help", "usage"])
def test_process_freezes_before_shutdown(launcher, argv, code):
    # an atexit hook runs after the entry point has returned or raised SystemExit
    probe = ("import atexit, gc, runpy, sys; "
             "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr)); "
             f"sys.argv = ['qbern', *{argv!r}]; {_LAUNCHERS[launcher]}")
    done = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                          capture_output=True, text=True, check=False)
    assert done.returncode == code
    assert done.stderr.endswith("frozen True\n")


def test_main_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    assert main(["beta", "--n", "2"]) == 0
    assert gc.get_freeze_count() == before


# -- verify split over forked workers -------------------------------------------
#
# In the process, a grid of at least 2 * ROWS_PER_WORKER rows is verified in
# chunks, each after the first by a forked worker; the symbolic default grid
# (478 rows) is one.  A plant is a catalog row made to raise or to fail, which
# the workers inherit: the rows Q_TO_1 n = 12, near the grid's end, are in a
# worker's chunk, and PROP2 n = 2, its first row, in the parent's.

_PLANTS = {
    "worker-fails": ("Q_TO_1", 12, None),
    "worker-raises": ("Q_TO_1", 12, DomainError("planted in a worker's chunk")),
    "parent-raises": ("PROP2", 2, DomainError("planted in the first chunk")),
}
_TESTS = str(Path(__file__).resolve().parent)
# ``console_main`` on two CPUs, whatever the host has, with the plant named
# by its first argument; "no worker left" closes stderr if it left no child
_SPLIT = f"""import os, sys
sys.path.insert(0, {_TESTS!r})
import test_cli
from qbern import cli
cli.usable_cpus = lambda: 2
plant = sys.argv.pop(1)
if plant:
    test_cli.plant(setattr, plant)
code = cli.console_main()
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.stderr.write("no worker left\\n")
sys.exit(code)
"""


def plant(setattr, name: str):
    """Set, with ``setattr``, the side function of the row the plant
    ``name`` names, so that the row raises or its right side is negated."""
    identity, n, error = _PLANTS[name]
    entry = CATALOG[identity]
    sides = entry.sides

    def planted(run, **params):
        if params["n"] != n:
            return sides(run, **params)
        if error is not None:
            raise error
        lhs, rhs, notes, quarantined = sides(run, **params)
        return lhs, -rhs, notes, quarantined

    setattr(entry, "sides", planted)


def _split(plant_name: str, *argv, read=None):
    """(exit code, stdout, stderr) of ``_SPLIT``; stdout is closed unread
    when ``read`` is 0."""
    child = subprocess.Popen([sys.executable, "-c", _SPLIT, plant_name, *argv],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    if read == 0:
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        return child.wait(timeout=60), b"", err
    out, err = child.communicate(timeout=60)
    return child.returncode, out, err


def test_the_plants_fall_in_the_chunks_they_are_named_after():
    grid = default_grid("symbolic")
    assert cli.worker_count(len(grid), 2) == 2
    assert grid.index(("PROP2", {"n": 2})) < len(grid) // 2 <= grid.index(("Q_TO_1", {"n": 12}))


@pytest.mark.parametrize("name, code", [("worker-fails", 1), ("worker-raises", 2),
                                        ("parent-raises", 2)])
def test_a_planted_row_ends_the_split_run_as_the_serial_one(name, code, capsys, monkeypatch):
    plant(monkeypatch.setattr, name)
    status = main(["verify"])
    captured = capsys.readouterr()
    assert status == code
    assert _split(name, "verify") == (
        status, captured.out.encode(), captured.err.encode() + b"no worker left\n")


@pytest.mark.parametrize("name, read, code", [
    ("", None, 0), ("worker-fails", None, 1), ("worker-raises", None, 2),
    ("parent-raises", None, 2), ("", 0, 2),
], ids=["exit-0", "exit-1", "exit-2-worker", "exit-2-parent", "closed-stdout"])
def test_no_worker_outlives_console_main(name, read, code):
    status, _, err = _split(name, "verify", read=read)
    assert status == code
    assert err.endswith(b"no worker left\n")


def test_a_short_payload_is_refused():
    chunk = SuiteConfig(identities=[("PROP2", {"n": 2}), ("PROP2", {"n": 3})])
    pipe, out = os.pipe()
    pid = os.fork()
    if pid == 0:  # one report line of the two, then a clean exit
        try:
            os.write(out, b'{"summary":{"total":2}}\n{"identity":"PROP2"}\n')
        finally:
            os._exit(0)
    os.close(out)
    assert cli._receive(pid, pipe, chunk) is None


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_a_worker_that_cannot_start_leaves_its_rows_here(call, capsys, monkeypatch):
    serial = run(capsys, "verify")

    def refuse():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, call, refuse)
    code = main(["verify"], cpus=2)
    assert (code, *capsys.readouterr()) == serial


def test_a_process_that_ignores_sigchld_prints_the_same_bytes():
    # SIG_IGN survives exec, and then the kernel reaps each worker itself
    runs = [subprocess.run([sys.executable, "-m", "qbern.cli", "verify"], env=_child_env(),
                           capture_output=True, check=False, preexec_fn=preexec)
            for preexec in (None, lambda: signal.signal(signal.SIGCHLD, signal.SIG_IGN))]
    assert [(done.returncode, done.stdout, done.stderr) for done in runs] == [
        (0, runs[0].stdout, b"")] * 2


def test_main_alone_never_forks(capsys, monkeypatch):
    def fork():
        raise AssertionError("main forked")

    monkeypatch.setattr(os, "fork", fork)
    assert main(["verify"]) == 0


def test_worker_count_is_one_where_a_split_cannot_pay(monkeypatch):
    least = 2 * cli.ROWS_PER_WORKER
    assert cli.worker_count(100 * least, 1) == 1
    assert cli.worker_count(least - 1, 64) == 1
    assert cli.worker_count(least, 64) == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert cli.usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli.usable_cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert cli.usable_cpus() == 4
    monkeypatch.delattr(os, "fork", raising=False)
    assert cli.usable_cpus() == 1
