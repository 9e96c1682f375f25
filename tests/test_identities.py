"""Verifier verdicts, domain policy, suite determinism."""

import json
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qbern.identities import (
    CATALOG,
    SuiteConfig,
    Verdict,
    default_grid,
    reports_to_jsonl,
    run_suite,
    suite_exit_status,
    summarize,
    verify,
    verify_theorem1,
    _compare,
    _corrupted,
)
from qbern import carlitz, identities, integral, qfield
from qbern.cli import main
from qbern.carlitz import CarlitzTable, table_for
from qbern.errors import DomainError, QbernError
from qbern.integral import closed_reflected_power, integrand_from_json
from qbern.padic import PadicNumber
from qbern.qfield import QContext, RationalFunction, invert_q, q_pow, scalars_equal

SYM = QContext.symbolic()


def test_theorem1_trivial_case(padic_ctx3):
    report = verify_theorem1(0, 0, padic_ctx3, target=8)
    assert report.verdict.kind == "exact"


def test_theorem1_numeric(padic_ctx3):
    report = verify_theorem1(1, 0, padic_ctx3, target=8)
    assert report.verdict.ok
    assert report.verdict.kind in ("valuation", "exact")
    assert "supports the reflected closed form as printed" in report.notes


def test_theorem1_even_case_adjudicates(padic_ctx3):
    report = verify_theorem1(2, 1, padic_ctx3, target=8)
    assert report.verdict.ok
    assert "1/(1-q)^(n-1)" in report.notes


@pytest.mark.parametrize("p,q", [(5, "26"), (7, "8")])
def test_theorem1_n16_reaches_the_target(p, q):
    # a valid entry whose oracle runs need level 7 at p = 5 and level 6 at
    # p = 7 to certify valuation 8: no run may stop short of its precision
    report = verify("THM1", {"n": 16, "x": 0}, QContext.padic(p, 24, q))
    assert report.verdict.ok, report.to_json()
    assert "no certificate reaches" not in report.notes


def test_theorem1_symbolic_skips():
    report = verify_theorem1(2, 0, SYM)
    assert not report.domain_ok


def test_prop2_exact():
    for n in range(2, 9):
        assert verify("PROP2", {"n": n}, SYM).verdict.kind == "exact"


def test_prop2_out_of_domain():
    report = verify("PROP2", {"n": 1}, SYM)
    assert not report.domain_ok
    assert report.verdict is None


def test_eq6_eq7_symbolic():
    assert verify("EQ7", {"n": 3}, SYM).verdict.kind == "exact"
    assert not verify("EQ6", {"n": 3}, SYM).domain_ok  # the oracle side is padic only


def test_eq6_eq7_padic(padic_ctx3):
    reports = [verify(i, {"n": 2}, padic_ctx3, target=8) for i in ("EQ7", "EQ6")]
    assert [r.identity for r in reports] == ["EQ7", "EQ6"]
    assert all(r.verdict.ok for r in reports)


def test_theorem3(padic_ctx3):
    assert verify("THM3", {"n": 4}, SYM).verdict.kind == "exact"
    assert not verify("THM3", {"n": 1}, SYM).domain_ok
    report = verify("THM3", {"n": 2}, padic_ctx3, target=8)
    assert report.verdict.ok


def test_eq9_eq11():
    assert verify("EQ9_EQ11", {"n": 3, "k": 1}, SYM).verdict.kind == "exact"
    assert not verify("EQ9_EQ11", {"n": 3, "k": 2}, SYM).domain_ok
    assert not verify("EQ9_EQ11", {"n": 2, "k": 3}, SYM).domain_ok


def test_two_product():
    assert verify("EQ13_EQ14", {"n": 2, "m": 2, "k": 1}, SYM).verdict.kind == "exact"
    # k = 0 allowed here
    assert verify("EQ13_EQ14", {"n": 3, "m": 2, "k": 0}, SYM).verdict.kind == "exact"
    assert not verify("EQ13_EQ14", {"n": 1, "m": 1, "k": 1}, SYM).domain_ok


def test_theorem4():
    assert verify("THM4_COR5", {"n": (2, 3), "k": 1}, SYM).verdict.kind == "exact"
    # k = 0 is direct-route-only
    assert not verify("THM4_COR5", {"n": (2, 3), "k": 0}, SYM).domain_ok
    assert not verify("THM4_COR5", {"n": (1, 1), "k": 1}, SYM).domain_ok


def test_theorem4_reduces_to_eq9_eq11():
    a = verify("THM4_COR5", {"n": (4,), "k": 1}, SYM)
    b = verify("EQ9_EQ11", {"n": 4, "k": 1}, SYM)
    assert a.lhs == b.rhs  # both reflected
    assert a.rhs == b.lhs  # both direct


def test_theorem6_readings():
    nm = ((2, 2), (2, 1))
    sigma = verify("THM6", {"nm": nm, "k": 1, "reading": "sigma"}, SYM)
    assert sigma.verdict.kind == "exact"
    literal = verify("THM6", {"nm": nm, "k": 1, "reading": "literal"}, SYM)
    # s = 2: the printed index coincides with the sum reading
    assert literal.quarantined
    assert literal.verdict.kind == "exact"
    # s = 3 separates the readings
    nm3 = ((2, 1), (1, 1), (2, 1))
    assert verify("THM6", {"nm": nm3, "k": 1, "reading": "sigma"}, SYM).verdict.kind == "exact"
    probe = verify("THM6", {"nm": nm3, "k": 1, "reading": "literal"}, SYM)
    assert probe.quarantined
    assert not probe.verdict.ok
    assert probe.passed  # quarantined failures do not fail a suite


def test_theorem6_literal_zero_coefficient(tmp_path, capsys):
    # comb(0, 1) = 0: the row is the zero integral on both routes, although
    # its literal index 0 + 0 - l is below a = 3 and has no beta value
    row = {"nm": [[0, 1], [5, 1], [0, 1]], "k": 1, "reading": "literal"}
    report = verify("THM6", row, SYM)
    assert (report.lhs, report.rhs) == (SYM.zero(), SYM.zero())
    assert report.quarantined and report.verdict.kind == "exact"
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"identities": [{"identity": "THM6", "params": row}]}))
    assert main(["verify", "--grid", str(grid)]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[0])["verdict"] == {"kind": "exact"}


THM6_LITERAL_BELOW_A = (
    # (nm, k, literal index n_1 m_1 + n_s m_s, a = k sum m_i)
    ([[4, 1], [3, 3], [5, 2]], 3, 14, 18),
    ([[3, 2], [5, 2], [3, 0]], 2, 6, 8),
)


@pytest.mark.parametrize("backend", ["symbolic", "padic"])
@pytest.mark.parametrize("nm, k, top, a", THM6_LITERAL_BELOW_A)
def test_theorem6_literal_index_below_a_is_a_domain_skip(nm, k, top, a, backend, tmp_path,
                                                          capsys):
    # every coefficient is nonzero, but the literal index is below a, where
    # no beta difference exists: the row is skipped and the grid goes on
    row = {"nm": nm, "k": k, "reading": "literal"}
    ctx = SYM if backend == "symbolic" else QContext.padic(3, 24, "1+p")
    report = verify("THM6", row, ctx)
    assert not report.domain_ok and report.verdict is None
    assert report.notes == (f"the literal index n_1 m_1 + n_s m_s = {top} "
                            f"is below a = k sum m_i = {a}")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"backend": backend, "identities": [
        {"identity": "THM6", "params": row}, {"identity": "PROP2", "params": {"n": 3}}]}))
    assert main(["verify", "--grid", str(grid)]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r.get("identity"), r.get("domain_ok")) for r in rows[:2]] == [
        ("THM6", False), ("PROP2", True)]
    assert rows[2]["summary"]["passed"] == 1


def test_theorem6_bad_reading():
    with pytest.raises(DomainError):
        verify("THM6", {"nm": ((2, 1), (2, 1)), "k": 1, "reading": "mystery"}, SYM)


def test_symmetry(padic_ctx3):
    assert verify("EQ10_SYMMETRY", {"k": 1, "n": 3, "x": 2}, SYM).verdict.kind == "exact"
    from fractions import Fraction

    report = verify("EQ10_SYMMETRY", {"k": 2, "n": 4, "x": Fraction(5, 7)}, padic_ctx3)
    assert report.verdict.ok


def test_q_to_1():
    assert verify("Q_TO_1", {"n": 6}, SYM).verdict.kind == "exact"
    assert verify("Q_TO_1", {"n": 3, "xi": True}, SYM).verdict.kind == "exact"


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_q_to_1_xi_rows_below_the_pole_are_domain_skips(n):
    # xi_0 = 1 and xi_1 = 0 are finite at q = 1: the pole is stated for n >= 2
    report = verify("Q_TO_1", {"n": n, "xi": True}, SYM)
    note = "need n >= 0" if n < 0 else "the pole of xi_n at q = 1 is stated for n >= 2"
    assert (report.domain_ok, report.verdict, report.notes) == (False, None, note)
    assert report.passed
    grid = {"identities": [["Q_TO_1", {"n": n, "xi": True}], ["Q_TO_1", {"n": 2, "xi": True}]]}
    assert suite_exit_status(run_suite(SuiteConfig.from_json(grid))) == 0


# -- the suite -------------------------------------------------------------------


def test_default_symbolic_suite_passes():
    reports = run_suite(SuiteConfig(backend="symbolic"))
    summary = summarize(reports)
    assert summary["failed"] == 0
    assert summary["total"] > 400
    # the disputed-reading probes are present and report both ways
    assert summary["quarantined_failures"] == 2
    assert suite_exit_status(reports) == 0


def test_verify_defaults_to_the_suite_target():
    # verify with no target compares each padic row as the default suite does
    ctx = SuiteConfig(backend="padic").context()
    suite = run_suite(SuiteConfig(backend="padic"))
    grid = default_grid("padic")
    assert len(suite) == len(grid)
    for (name, params), report in zip(grid, suite):
        assert verify(name, params, ctx).to_json() == report.to_json()


@pytest.mark.parametrize("name, params, backend, note", [
    ("THM1", {"n": -1, "x": 0}, "padic", "need n >= 0"),
    ("THM4_COR5", {"n": [], "k": 1}, "symbolic", "need at least one factor"),
    ("THM6", {"nm": [], "k": 1}, "symbolic", "need at least one factor"),
    ("THM6", {"nm": [[2, -1]], "k": 1}, "symbolic", "indices must be nonnegative"),
    ("THM6", {"nm": [[1, 1]], "k": 1}, "symbolic", "needs sum m_i n_i > k sum m_i + 1"),
    ("EQ10_SYMMETRY", {"k": 3, "n": 2, "x": 0}, "symbolic", "need 0 <= k <= n"),
    ("Q_TO_1", {"n": 2}, "padic", "q -> 1 evaluation is symbolic"),
    ("Q_TO_1", {"n": -1}, "symbolic", "need n >= 0"),
])
def test_domain_skip_notes(name, params, backend, note):
    report = verify(name, params, SuiteConfig(backend=backend).context())
    assert (report.domain_ok, report.verdict, report.notes) == (False, None, note)
    assert report.passed


def test_precision_short_row_is_skipped_with_the_error():
    # at q = 1 + 3^12, 2 nu(q - 1) = K, so the Riemann side of EQ6 runs out
    # of digits; PROP2 and THM6, whose Carlitz values are exact, still run
    ctx = QContext.padic(3, 24, "531442")
    report = verify("EQ6", {"n": 2}, ctx)
    assert not report.domain_ok and report.verdict is None
    assert report.notes == "division result would be certified only modulo p^0"
    assert verify("THM6", {"nm": [[4, 2], [5, 2]], "k": 1}, ctx).verdict.kind == "exact"
    assert verify("PROP2", {"n": 2}, ctx).passed


def test_corrupted_suite_fails():
    cfg = SuiteConfig(
        backend="symbolic",
        identities=[("PROP2", {"n": 2}), ("PROP2", {"n": 3})],
    )
    reports = run_suite(cfg)
    reports[0] = _corrupted(reports[0], cfg.context())
    assert suite_exit_status(reports) == 1
    assert any(not r.passed for r in reports)


def test_out_of_domain_entries_pass():
    cfg = SuiteConfig(backend="symbolic", identities=[("PROP2", {"n": 1})])
    reports = run_suite(cfg)
    assert len(reports) == 1
    assert not reports[0].domain_ok
    assert suite_exit_status(reports) == 0


def test_suite_determinism():
    cfg = SuiteConfig(backend="symbolic", identities=[
        ("PROP2", {"n": 2}),
        ("THM3", {"n": 3}),
        ("THM6", {"nm": [[2, 1], [1, 1], [2, 1]], "k": 1, "reading": "literal"}),
    ])
    first = reports_to_jsonl(run_suite(cfg))
    second = reports_to_jsonl(run_suite(SuiteConfig(**{**cfg.__dict__})))
    assert first == second
    lines = first.strip().split("\n")
    assert json.loads(lines[-1])["summary"]["total"] == 3


def test_padic_suite_passes(padic_ctx3):
    cfg = SuiteConfig(backend="padic", prime=3, precision=24, target_valuation=8)
    reports = run_suite(cfg)
    assert suite_exit_status(reports) == 0
    # every integral is truncated to its proven certificate, so two sides
    # that agree to the target also agree to their shared precision
    kinds = {r.verdict.kind for r in reports if r.verdict is not None}
    assert kinds == {"exact"}


def test_compare_valuation_verdict(padic_ctx3):
    # sides that claim 20 digits but agree only to 10 pass at the target
    # with a valuation verdict, and fail above what they achieve
    one = padic_ctx3.one()
    lhs = one + PadicNumber.from_fraction(3**10, padic_ctx3.pctx)
    assert _compare(lhs, one, padic_ctx3, 8) == Verdict.to_valuation(8)
    verdict = _compare(lhs, one, padic_ctx3, 12)
    assert (verdict.kind, verdict.valuation) == ("fail", 10)


def test_eq6_symbolic_is_a_domain_skip():
    reports = run_suite(SuiteConfig(backend="symbolic", identities=[("EQ6", {"n": 2})]))
    assert [r.identity for r in reports] == ["EQ6"]
    assert not reports[0].domain_ok
    assert reports[0].notes == "Riemann oracle requires the padic backend"
    assert summarize(reports)["total"] == 1


def test_eq6_out_of_domain_keeps_its_label():
    cfg = SuiteConfig(backend="padic", identities=[("EQ6", {"n": -1}), ("EQ7", {"n": -1})])
    reports = run_suite(cfg)
    assert [r.identity for r in reports] == ["EQ6", "EQ7"]
    assert all(not r.domain_ok and r.notes == "need n >= 0" for r in reports)


def test_grid_defaults_fill_report_parameters():
    cfg = SuiteConfig.from_json({"identities": [
        {"identity": "THM6", "params": {"nm": [[2, 1], [2, 1]], "k": 1}},
        ["Q_TO_1", {"n": 3, "xi": True}],
    ]})
    assert [r.parameters for r in run_suite(cfg)] == [
        {"s": 2, "nm": [[2, 1], [2, 1]], "k": 1, "reading": "sigma"},
        {"n": 3, "xi": True},
    ]


def test_grid_parsing_errors():
    with pytest.raises(DomainError):
        SuiteConfig.from_json({"backend": "quantum"})
    with pytest.raises(DomainError):
        SuiteConfig.from_json({"unknown_field": 1})
    with pytest.raises(ValueError):
        SuiteConfig.from_json({"identities": [{"identity": "NOPE", "params": {}}]})


# arbitrary JSON values, and integrands, grid entries and grids whose
# "type" or "identity" is a valid name, an invalid one or any JSON value,
# with the fields of that name, each well typed or any JSON value
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["type", "identity", "n"]) | st.text(max_size=3),
                      inner, max_size=4),
    max_leaves=12)
_INT = st.integers(-1, 4)
_TYPED = {
    "offset": _INT, "power": _INT, "m": _INT, "k": _INT, "x": _INT,
    "n": _INT | st.lists(_INT, max_size=3),
    "factors": st.lists(st.lists(_INT, min_size=3, max_size=3), max_size=2),
    "nm": st.lists(st.lists(_INT, min_size=2, max_size=2), max_size=3),
    "reading": st.sampled_from(["sigma", "literal", "mystery"]),
    "xi": st.booleans(),
}


def _named(key: str, fields_of: dict):
    return st.sampled_from(list(fields_of)).flatmap(lambda name: st.fixed_dictionaries(
        {key: st.just(name) | _JSON,
         **{field: _TYPED[field] | _JSON for field in fields_of[name]}}))


_INTEGRAND = _named("type", {"bracket_power": ["offset", "power"],
                             "reflected_power": ["offset", "power"],
                             "bernstein_product": ["factors"], "nope": ["offset"]})
_ENTRY = _named("identity", {**{name: list(entry.params) for name, entry in CATALOG.items()},
                             "NOPE": [], "": []}
                ).map(lambda e: {"identity": e.pop("identity"), "params": e})
_GRID = st.fixed_dictionaries(
    {"identities": st.lists(_ENTRY | _ENTRY.map(lambda e: list(e.values())) | _JSON,
                            min_size=1, max_size=3)},
    optional={"backend": st.sampled_from(["symbolic", "padic"]) | _JSON,
              "prime": _INT | _JSON, "q": st.just("7/6") | _JSON,
              "level_cap": _INT | _JSON})


@settings(max_examples=200, deadline=None)
@given(st.one_of(_JSON, _INTEGRAND, _ENTRY, _GRID))
def test_json_inputs_parse_or_raise_domain_error(data):
    # parse only: any other exception would escape the CLI as a traceback
    for parse in (integrand_from_json, SuiteConfig.from_json):
        try:
            parse(data)
        except DomainError:
            pass


def test_verdict_json():
    v = Verdict.to_valuation(8)
    assert v.to_json() == {"kind": "valuation", "valuation": 8}
    assert Verdict.exact().to_json() == {"kind": "exact"}


def test_default_grid_shapes():
    sym = default_grid("symbolic")
    names = {name for name, _ in sym}
    assert {"PROP2", "EQ7", "THM3", "EQ9_EQ11", "EQ13_EQ14",
            "THM4_COR5", "THM6", "EQ10_SYMMETRY", "Q_TO_1"} <= names
    pad = default_grid("padic")
    assert any(name == "THM1" for name, _ in pad)


# -- the mutation gate ----------------------------------------------------------
#
# Each mutation plants one known defect in a closed form or the Carlitz
# table.  Some default grid (symbolic, p = 3 or p = 5) must then fail a row
# or raise; mutations may be added here, never dropped.


def _patch(m, name, mutate, modules=(integral,)):
    # ``name`` replaced by ``mutate`` of its original in every module that
    # binds it
    new = mutate(getattr(modules[0], name))
    for module in modules:
        m.setattr(module, name, new)


MUTATIONS = {
    # the disputed prefactor 1/(q-1)^(m-1): the closed form times (-1)^(m-1)
    "prefactor": lambda m: _patch(
        m, "closed_bracket_power",
        lambda f: lambda k, x, ctx: f(k, x, ctx) if k % 2 else -f(k, x, ctx)),
    "one_minus_x_plus_n": lambda m: _patch(
        m, "closed_one_minus_x_power",
        lambda f: lambda n, ctx, tbl=None: f(n, ctx, tbl) - ctx.one(), (integral, identities)),
    "reflected_index_plus_1": lambda m: _patch(
        m, "_reflected_sum",
        lambda f: lambda a, total, top, tbl: f(a, total, top + 1, tbl), (integral, identities)),
    "image_q_not_minus_q": lambda m: m.setattr(
        identities, "_reflected_image",
        lambda run, n: q_pow(n, run.ctx) * run.tbl.beta_poly(n, -1)),
    "direct_route_negated": lambda m: _patch(
        m, "_power_integral_direct", lambda f: lambda a, b, tbl: -f(a, b, tbl)),
    "shape_a_b_swapped": lambda m: _patch(
        m, "_bernstein_shape",
        lambda f: lambda factors: (lambda c, a, b: (c, b, a))(*f(factors)),
        (integral, identities)),
    "carlitz_lead_dropped": lambda m: m.setitem(carlitz._KINDS, "beta", (1, 0)),
    "difference_operands_swapped": lambda m: m.setattr(
        carlitz, "_differences", _swapped_differences),
    # a carry defect: the carried weight sum S_0 = sum_{x<m} q^x restarts at
    # 1 each level while the block length m is still carried
    "carry_qx_restarted": lambda m: _patch(m, "riemann_sum", _qx_restarted),
    # [x]_q = P/q^s read with P = [|x|]_q for x < 0: beta_n(x) drops its (-1)^(n-i)
    "beta_poly_negative_x_sign": lambda m: m.setattr(
        carlitz, "zq_bracket", lambda x: ([1] * abs(x), max(-x, 0))),
    "bernstein_reciprocal_unsubstituted": lambda m: _patch(
        m, "bernstein_eval", _unsubstituted, (identities,)),
    # the table at 1/q reads the values at q as they stand, with no q -> 1/q
    "inverse_table_unsubstituted": lambda m: _patch(
        m, "__init__", _read_unsubstituted, (CarlitzTable,)),
    "beta_poly_memo_ignores_x": lambda m: _patch(
        m, "__init__", _polys_keyed_on_n, (CarlitzTable,)),
    # the one expansion in u = q^x with its odd coefficients negated
    "u_poly_odd_terms_negated": lambda m: _patch(
        m, "_expand",
        lambda f: lambda a, b, r, s, one: [-c if j % 2 else c
                                          for j, c in enumerate(f(a, b, r, s, one))]),
    # a product with c q^s shifts by q^s with no regard to the power of q
    # the other side carries, so n and d can share a factor q
    "unit_shift_keeps_shared_q": lambda m: m.setattr(qfield, "_unit_times", _shift_uncancelled),
    # the padic [x]_q at an integer x read as [x]_{1/q}; the Riemann kernel
    # keeps its own binding of the bracket
    "padic_bracket_at_inverse_q": lambda m: _patch(
        m, "_int_bracket",
        lambda f: lambda c, r, p, mod: f(c, pow(r, -1, mod), p, mod), (qfield,)),
}


def _shift_uncancelled(f, c, s):
    up, down = (f._n, f._d) if s >= 0 else (f._d, f._n)
    up = (0,) * abs(s) + up
    c = Fraction(*f._c) * Fraction(*c)
    c = c.numerator, c.denominator
    return qfield._rf(c, up, down) if s >= 0 else qfield._rf(c, down, up)


def _read_unsubstituted(init):
    def unsubstituted(tbl, ctx):
        init(tbl, ctx)
        if ctx.is_symbolic and ctx.q != RationalFunction.indeterminate():
            tbl._out = lambda value: value

    return unsubstituted


class _KeyedOnN(dict):
    # a memo of beta_n(x) that drops x from its key: the first x built for
    # n answers for every x
    def __contains__(self, key):
        return super().__contains__(key[0])

    def __getitem__(self, key):
        return super().__getitem__(key[0])

    def __setitem__(self, key, value):
        super().__setitem__(key[0], value)


def _polys_keyed_on_n(init):
    def keyed(tbl, ctx):
        init(tbl, ctx)
        if type(tbl._polys) is dict:  # at 1/q the memo is the one at q, already keyed
            tbl._polys = _KeyedOnN()

    return keyed


def _unsubstituted(bernstein_eval):
    # at 1/q, the symbolic value at q as it stands, with no q -> 1/q
    def at_q(spec, x, ctx):
        if ctx.is_symbolic and ctx.q != RationalFunction.indeterminate():
            ctx = invert_q(ctx)
        return bernstein_eval(spec, x, ctx)

    return at_q


def _qx_restarted(riemann_sum):
    def restarted(f, ctx, level, carry=None):
        if carry:
            carry[1] = [1, *carry[1][1:]]  # [m, [S_0, ..., S_d]]
        return riemann_sum(f, ctx, level, carry)

    return restarted


def _swapped_differences(cells, beta, a, b):
    # the difference step with its operands swapped: (-1)^b S(a, b)
    for j in range(b + 1):
        for i in range(a, a + b - j + 1):
            if (i, j) not in cells:
                cells[i, j] = beta[i] if j == 0 else cells[i + 1, j - 1] - cells[i, j - 1]


# the memos a mutated value could live on in; the table holds the differences
_CACHED = (table_for, integral._power_integral_reflected, integral._gap, identities._oracle,
           qfield.invert_q)


def test_every_process_wide_memo_is_cleared_around_a_mutation():
    # a memo missing from _CACHED would carry values across a planted mutation
    import inspect
    import pkgutil
    from importlib import import_module

    import qbern

    found = set()
    for info in pkgutil.iter_modules(qbern.__path__):
        module = import_module(f"qbern.{info.name}")
        for obj in vars(module).values():
            members = vars(obj).values() if inspect.isclass(obj) else ()
            for candidate in (obj, *members):
                candidate = getattr(candidate, "__func__", candidate)
                if hasattr(candidate, "cache_clear"):
                    found.add(candidate)
    assert found == set(_CACHED)


def _grid_fails(backend: str, prime: int) -> bool:
    try:
        return suite_exit_status(run_suite(SuiteConfig(backend=backend, prime=prime))) != 0
    except QbernError:
        return True


@contextmanager
def _mutated(monkeypatch, mutate):
    # the mutation planted with every memo empty, so no value computed
    # before or under it outlives it
    for f in _CACHED:
        f.cache_clear()
    try:
        with monkeypatch.context() as m:
            mutate(m)
            yield
    finally:
        for f in _CACHED:
            f.cache_clear()


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutation_gate(mutation, monkeypatch):
    with _mutated(monkeypatch, MUTATIONS[mutation]):
        caught = any(_grid_fails(backend, prime) for backend, prime in
                     (("symbolic", 3), ("padic", 3), ("padic", 5)))
    assert caught, f"no default grid detects the mutation {mutation}"


# -- the cross-backend gate -----------------------------------------------------
#
# Every row of the symbolic default grid but Q_TO_1 runs on padic contexts as
# well.  Each symbolic side, evaluated at the context's rational q and
# embedded, must agree with the padic side to their shared precision.  Both
# backends read the one Carlitz state at the indeterminate q, but the padic
# sides pass through code of their own (the padic read of that state, the
# route sums in padic scalars); each mutation below plants a padic-only
# defect there, which the gate must catch in every context.

CROSS_CONTEXTS = ((3, "1+p"), (5, "1+p"), (7, "1+p"), (3, "1/4"), (3, "10"), (5, "26"))


def _padic_bump(ctx, hit):
    # p^6: a defect well inside the 24 certified digits
    return ctx.prime ** 6 if hit and not ctx.is_symbolic else 0


PADIC_MUTATIONS = {
    "reflected_sum_plus_p6": lambda m: _patch(
        m, "_reflected_sum",
        lambda f: lambda a, total, top, tbl: f(a, total, top, tbl) + _padic_bump(tbl.ctx, a >= 4),
        (integral, identities)),
    # the padic read of an exact value whose denominator has more than 6 terms
    "read_plus_p6": lambda m: _patch(
        m, "read",
        lambda f: lambda ctx, value: f(ctx, value) + _padic_bump(ctx, len(value._d) > 6),
        (QContext,)),
    "beta_difference_plus_p6": lambda m: _patch(
        m, "beta_difference",
        lambda f: lambda tbl, a, b: f(tbl, a, b) + _padic_bump(tbl.ctx, a + b >= 7),
        (CarlitzTable,)),
}


@pytest.fixture(scope="module")
def symbolic_sides():
    return [(name, params, (report.lhs, report.rhs))
            for name, params in default_grid("symbolic") if name != "Q_TO_1"
            for report in [verify(name, params, SYM)]]


def _mismatched_sides(ctx, sides, report):
    # the sides of a padic report that miss the symbolic ``sides``, evaluated
    # at the rational q and embedded, to their shared precision
    return [side for side, sym, padic in zip(("lhs", "rhs"), sides, (report.lhs, report.rhs))
            if padic is None
            or not scalars_equal(ctx.embed(sym.evaluate(ctx.rational)), padic, ctx)]


def _cross_backend_mismatches(p, q, symbolic_sides):
    ctx = QContext.padic(p, 24, q)
    return [(name, params, side) for name, params, sides in symbolic_sides
            for side in _mismatched_sides(ctx, sides, verify(name, params, ctx))]


@pytest.mark.parametrize("p, q", CROSS_CONTEXTS)
def test_cross_backend_sides_agree(p, q, symbolic_sides):
    assert _cross_backend_mismatches(p, q, symbolic_sides) == []


@pytest.mark.parametrize("mutation", PADIC_MUTATIONS)
def test_cross_backend_gate_catches_padic_mutations(mutation, monkeypatch, symbolic_sides):
    with _mutated(monkeypatch, PADIC_MUTATIONS[mutation]):
        missed = [(p, q) for p, q in CROSS_CONTEXTS
                  if not _cross_backend_mismatches(p, q, symbolic_sides)]
    assert not missed, f"the cross-backend gate misses {mutation} at (p, q) in {missed}"


# -- the random-parameter catalog gate --------------------------------------------
#
# Entries beyond the default grid: n <= 16, products of at most 4 factors with
# m_i <= 3 and sum n_i m_i <= 24, x in [-6, 6], with values below each domain.
# Every entry must give a report on both backends, and the sides of a row
# that has them on both must agree across the backends.

RANDOM_CONTEXTS = tuple(QContext.padic(p, 24, q) for p, q in ((3, "1+p"), (5, "26"), (7, "1+p")))


@st.composite
def _nm(draw, powers, sizes=st.integers(0, 4)):
    """[n, m] pairs with n <= 16 and sum n m <= 24."""
    nm, left = [], 24
    for _ in range(draw(sizes)):
        m = draw(powers)
        n = draw(st.integers(-1, min(16, left // m) if m else 16))
        nm.append([n, m])
        left -= max(n, 0) * m
    return nm


_N, _K, _X = st.integers(-1, 16), st.integers(-1, 4), st.integers(-6, 6)
_ONE = st.just(1)
_RANDOM_PARAMS = {
    "THM1": st.fixed_dictionaries({"n": _N, "x": _X}),
    **{name: st.fixed_dictionaries({"n": _N}) for name in ("PROP2", "EQ6", "EQ7", "THM3")},
    "EQ9_EQ11": st.fixed_dictionaries({"n": _N, "k": _K}),
    "EQ13_EQ14": st.tuples(_nm(_ONE, st.just(2)), _K).map(
        lambda t: {"n": t[0][0][0], "m": t[0][1][0], "k": t[1]}),
    "THM4_COR5": st.tuples(_nm(_ONE), _K).map(lambda t: {"n": [n for n, _ in t[0]], "k": t[1]}),
    "THM6": st.fixed_dictionaries({"nm": _nm(st.integers(0, 3)), "k": _K,
                                   "reading": st.sampled_from(["sigma", "literal"])}),
    "EQ10_SYMMETRY": st.fixed_dictionaries({"k": _K, "n": _N, "x": _X}),
    "Q_TO_1": st.fixed_dictionaries({"n": _N, "xi": st.booleans()}),
}
# one entry of every catalog identity per example (a KeyError here names an
# identity the gate does not draw)
_RANDOM_ENTRIES = st.tuples(*(_RANDOM_PARAMS[name].map(lambda p, name=name: (name, p))
                              for name in CATALOG))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(_RANDOM_ENTRIES)
@example((("THM6", {"nm": [[4, 1], [3, 3], [5, 2]], "k": 3, "reading": "literal"}),))
@example((("THM6", {"nm": [[3, 2], [5, 2], [3, 0]], "k": 2, "reading": "literal"}),))
@example((("Q_TO_1", {"n": -1}),))
def test_random_entries_report_and_agree_across_backends(entries):
    for name, params in entries:
        sym = verify(name, params, SYM)
        for ctx in RANDOM_CONTEXTS:
            report = verify(name, params, ctx)
            if sym.domain_ok and report.domain_ok:
                assert _mismatched_sides(ctx, (sym.lhs, sym.rhs), report) == [], (ctx, report)


def test_theorem1_ruling_follows_the_agreements(padic_ctx3, monkeypatch):
    # one level is short of the target: the oracle cannot rule
    short = verify_theorem1(2, 1, padic_ctx3, target=8, level_cap=1)
    assert "oracle cannot rule on the reflected closed form (agreement" in short.notes
    # the disputed prefactor flips the even-n form: refuted, and the row
    # compares the integral with that form
    MUTATIONS["prefactor"](monkeypatch)
    report = verify_theorem1(2, 1, padic_ctx3, target=8)
    assert report.verdict.kind == "fail"
    assert report.notes == ("oracle refutes the reflected closed form as printed "
                            "(agreement -1 vs 20 for the sign-flipped reading); "
                            "the right side is that closed form")
    assert report.rhs == closed_reflected_power(2, 1, padic_ctx3)
