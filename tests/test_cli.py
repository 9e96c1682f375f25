"""Command-line surface: outputs, formats, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import qbern
from qbern.cli import main


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


def test_selftest_corrupt_flips_the_first_row_that_ran(capsys):
    code, out, _ = run(capsys, "selftest", "--corrupt", "--precision", "3")
    assert code == 1
    reports = [json.loads(line) for line in out.splitlines()[:-1]]
    flipped = [r for r in reports if r["parameters"].get("corrupted")]
    assert len(flipped) == 1 and flipped[0]["verdict"]["kind"] == "fail"


@pytest.mark.parametrize("before, after", [
    (["--format", "csv", "table", "--kind", "beta", "--range", "0:2"],
     ["table", "--kind", "beta", "--range", "0:2", "--format", "csv"]),
    (["--backend", "padic", "--p", "5", "beta", "--n", "3"],
     ["beta", "--n", "3", "--backend", "padic", "--p", "5"]),
], ids=["format", "backend"])
def test_global_flags_before_the_subcommand(capsys, before, after):
    first = run(capsys, *before)
    assert first[0] == 0
    assert first == run(capsys, *after)


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


def test_cli_import_path_loads_no_dataclasses_or_typing():
    # every qbern process pays its imports; -S keeps site's own imports out
    src = str(Path(qbern.__file__).resolve().parents[1])
    probe = (f"import sys; sys.path.insert(0, {src!r}); import qbern.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
