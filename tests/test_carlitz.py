"""Carlitz recurrences, the classical degeneration, and precision ledgers."""

import random
from fractions import Fraction
from math import comb, inf

import pytest

from qbern import carlitz, qfield
from qbern.carlitz import CarlitzTable, classical_bernoulli, eval_at_one, table_for
from qbern.errors import DomainError, PoleAtOne, PrecisionExhausted, QbernError
from qbern.padic import PadicNumber
from qbern.qfield import QContext, RationalFunction, q_bracket, q_pow, scalars_equal

RF = RationalFunction


def rf(num, den=(1,)):
    return RF(tuple(Fraction(c) for c in num), tuple(Fraction(c) for c in den))


# -- the numbers, symbolically --------------------------------------------------


def test_beta_base(sym_table):
    assert sym_table.beta(0) == rf((1,))


def test_beta_one(sym_table):
    # solve q(q*b + 1) - b = 1 by hand: b (q^2 - 1) = 1 - q, b = -1/(1+q)
    assert sym_table.beta(1) == rf((-1,), (1, 1))


def test_beta_two(sym_table):
    # q/((1+q)(1+q+q^2))
    assert sym_table.beta(2) == rf((0, 1), (1, 2, 2, 1))


def test_xi_values(sym_table):
    assert sym_table.xi(0) == rf((1,))
    assert sym_table.xi(1).is_zero()
    assert sym_table.xi(2) == rf((-1,), (-1, 0, 1))  # 1/(1 - q^2)


def test_negative_index_rejected(sym_table):
    with pytest.raises(DomainError):
        sym_table.beta(-1)


@pytest.mark.parametrize("k", range(1, 11))
def test_defining_relation_residual(sym_table, k):
    # q * sum_i C(k,i) q^i beta_i - beta_k equals 1 at k = 1 and 0 for k > 1
    q = RF.indeterminate()
    total = rf((0,))
    qi = rf((1,))
    for i in range(k + 1):
        total = total + comb(k, i) * qi * sym_table.beta(i)
        qi = qi * q
    residual = q * total - sym_table.beta(k)
    assert residual == (rf((1,)) if k == 1 else rf((0,)))


@pytest.mark.parametrize("k", range(1, 9))
def test_xi_defining_relation_residual(sym_table, k):
    q = RF.indeterminate()
    total = rf((0,))
    qi = rf((1,))
    for i in range(k + 1):
        total = total + comb(k, i) * qi * sym_table.xi(i)
        qi = qi * q
    residual = total - sym_table.xi(k)
    assert residual == (rf((1,)) if k == 1 else rf((0,)))


# The independent reference for the Z[q] step: each term C(k,i) q^{i+lead} N_i
# times its cofactor dens[k-1]/dens[i], both formed by Kronecker products.


def _kronecker_step(nums, dens, k, shift, lead):
    prev_den = dens[k - 1]
    total = []
    ratio = [1]
    for i in range(k - 1, -1, -1):
        c = comb(k, i)
        term = qfield._zmul(nums[i], ratio)
        power = i + lead
        total.extend([0] * (power + len(term) - len(total)))
        for j, t in enumerate(term, power):
            total[j] -= c * t
        if i > 0:
            ratio = qfield._zmul(ratio, [-1] + [0] * (i + shift - 1) + [1])
    if k == 1:
        for j, t in enumerate(prev_den):
            total[j] += t
    while total and not total[-1]:
        total.pop()
    new_den = qfield._zmul(prev_den, [-1] + [0] * (k + shift - 1) + [1])
    nums.append(total)
    dens.append(new_den)
    return RationalFunction(total, new_den)


@pytest.mark.parametrize("kind", ["beta", "xi"])
def test_horner_step_matches_kronecker_reference(kind):
    shift, lead = carlitz._KINDS[kind]
    got_raw, want_raw = ([[1]], [[1]]), ([[1]], [[1]])
    for k in range(1, 31):
        got = carlitz._zq_step(*got_raw, k, shift, lead)
        want = _kronecker_step(*want_raw, k, shift, lead)
        assert got_raw == want_raw  # the raw numerators and denominators
        assert (got._c, got._n, got._d) == (want._c, want._n, want._d)


# -- the polynomials -------------------------------------------------------------


@pytest.mark.parametrize("n", range(0, 9))
def test_beta_poly_at_zero(sym_table, n):
    assert sym_table.beta_poly(n, 0) == sym_table.beta(n)


def test_beta_poly_degree_zero(sym_table):
    assert sym_table.beta_poly(0, 5) == rf((1,))
    assert sym_table.beta_poly(0, -2) == rf((1,))


@pytest.mark.parametrize("n", range(2, 7))
def test_beta_poly_shift_by_two(sym_table, n):
    # beta_n(2) = beta_n / q^2 + n + 1 - 1/q
    q = RF.indeterminate()
    lhs = sym_table.beta_poly(n, 2)
    rhs = sym_table.beta(n) / q ** 2 + rf((n + 1,)) - q ** -1
    assert lhs == rhs


def test_beta_poly_negative_argument(sym_table):
    # beta_2(-1) = (q^3 + 4 q^2 + 5 q + 3) / (q^2 (1+q)(1+q+q^2))
    expect = rf((3, 5, 4, 1), (0, 0, 1, 2, 2, 1))
    assert sym_table.beta_poly(2, -1) == expect


def test_beta_inverse_q(sym_table):
    inverse = sym_table.inverse_table()
    assert inverse.beta(0) == rf((1,))
    assert inverse.beta(1) == rf((0, -1), (1, 1))        # -q/(1+q)
    assert inverse.beta(2) == rf((0, 0, 1), (1, 2, 2, 1))  # q^2/((q+1)(q^2+q+1))


# The reference for beta_poly: the sum taken term by term, with q^(ix) and
# [x]_q^(n-i) built as running products.  It is the reference for the
# symbolic path at an integer x, at q and at 1/q alike, and for the padic
# path, which takes those powers by ``**``.


def _termwise_beta_poly(tbl, n, x):
    ctx = tbl.ctx
    qx, bx = q_pow(x, ctx), q_bracket(x, ctx)
    qx_pows, bx_pows = [ctx.one()], [ctx.one()]
    for _ in range(n):
        qx_pows.append(qx_pows[-1] * qx)
        bx_pows.append(bx_pows[-1] * bx)
    acc = ctx.zero()
    for i in range(n + 1):
        acc = acc + comb(n, i) * tbl.beta(i) * qx_pows[i] * bx_pows[n - i]
    return acc


def test_beta_poly_matches_termwise_reference():
    from qbern.qfield import invert_q

    table_for.cache_clear()  # no table is filled yet, whatever ran before
    contexts = (QContext.symbolic(), invert_q(QContext.symbolic()))
    got = {ctx: CarlitzTable(ctx) for ctx in contexts}
    want = {ctx: CarlitzTable(ctx) for ctx in contexts}
    cases = [(ctx, n, x) for ctx in contexts for n in range(25) for x in range(-3, 4)]
    random.Random(22).shuffle(cases)
    for ctx, n, x in cases:
        value, ref = got[ctx].beta_poly(n, x), _termwise_beta_poly(want[ctx], n, x)
        assert (value._c, value._n, value._d) == (ref._c, ref._n, ref._d), (ctx.q, n, x)


def test_beta_poly_domain(sym_table):
    from qbern.errors import NonIntegerExponentInSymbolicMode

    for tbl in (sym_table, sym_table.inverse_table()):
        with pytest.raises(DomainError):
            tbl.beta_poly(-1, 2)
        with pytest.raises(NonIntegerExponentInSymbolicMode):
            tbl.beta_poly(2, Fraction(1, 2))


def test_beta_poly_padic_matches_symbolic(sym_table, padic_ctx3):
    ptbl = table_for(padic_ctx3)
    for n in (1, 2, 4):
        for x in (0, 1, 2, -1):
            sym = sym_table.beta_poly(n, x).evaluate(4)
            want = PadicNumber.from_fraction(sym, padic_ctx3.pctx)
            assert scalars_equal(ptbl.beta_poly(n, x), want, padic_ctx3)


def test_beta_poly_padic_argument(padic_ctx3):
    # p-adic x through the q^x series; spot value against the expansion
    ptbl = table_for(padic_ctx3)
    x = Fraction(1, 2)
    qx = q_pow(x, padic_ctx3)
    bx = q_bracket(x, padic_ctx3)
    expect = (
        ptbl.beta(0) * bx * bx
        + 2 * ptbl.beta(1) * qx * bx
        + ptbl.beta(2) * qx * qx
    )
    assert scalars_equal(ptbl.beta_poly(2, x), expect, padic_ctx3)


def _padic_outcome(compute):
    try:
        value = compute()
    except QbernError as exc:
        return type(exc)
    return (value.v, value.unit, value.prec)


@pytest.mark.parametrize("x", [*range(-3, 6), Fraction(-1, 2), Fraction(1, 3), Fraction(5, 4)])
def test_padic_beta_poly_matches_running_products(power_contexts, x):
    # the same (v, unit, prec), or the same exception class, n <= 8
    for ctx in power_contexts:
        tbl = table_for(ctx)
        for n in range(9):
            assert (_padic_outcome(lambda: tbl.beta_poly(n, x))
                    == _padic_outcome(lambda: _termwise_beta_poly(tbl, n, x))), (ctx.q, n)


# -- classical oracle -------------------------------------------------------------


def test_classical_bernoulli_values():
    assert classical_bernoulli(0) == 1
    assert classical_bernoulli(1) == Fraction(-1, 2)
    assert classical_bernoulli(2) == Fraction(1, 6)
    assert classical_bernoulli(3) == 0
    assert classical_bernoulli(4) == Fraction(-1, 30)
    assert classical_bernoulli(12) == Fraction(-691, 2730)


@pytest.mark.parametrize("n", range(0, 13))
def test_q_to_one_degeneration(sym_table, n):
    assert eval_at_one(sym_table.beta(n)) == classical_bernoulli(n)


def test_eval_at_one_examples(sym_table):
    assert eval_at_one(sym_table.beta(0)) == 1
    assert eval_at_one(sym_table.beta(2)) == Fraction(1, 6)


@pytest.mark.parametrize("k", range(2, 7))
def test_xi_pole_at_one(sym_table, k):
    with pytest.raises(PoleAtOne):
        eval_at_one(sym_table.xi(k))


# -- padic precision ---------------------------------------------------------------


def test_eager_precision_exhausted():
    # the values are exact at the rational q and embedded once, so even 4
    # working digits reach beta_5, with 4 unit digits
    ctx = QContext.padic(3, 4)
    value = CarlitzTable(ctx).beta(5)
    assert value.prec == value.valuation + 4


# The reference step: the recurrence taken literally in the scalars of one
# q, with no Z[q] lists and no shared state.


def _scalar_step(q, values, k, shift, lead):
    # entry k, (delta_{k,1} - [q] sum_{i<k} C(k,i) q^i v_i) / (q^{k+shift} - 1),
    # the bracketed q present for beta
    s, qi = 0, 1
    for i in range(k):
        s = s + comb(k, i) * qi * values[i]
        qi = qi * q
    if lead:
        s = q * s
    if k == 1:
        s = s - 1
    return -s / (q ** (k + shift) - 1)


def _padic_recurrence(ctx, kind):
    # the scalar step run on PadicNumbers, each step losing digits, up to
    # the first division that raises or value that certifies no digit
    shift, lead = carlitz._KINDS[kind]
    values = [ctx.one()]
    while True:
        try:
            value = _scalar_step(ctx.q, values, len(values), shift, lead)
        except PrecisionExhausted:
            return values
        if value.prec <= 0:
            return values
        values.append(value)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_exact_table_extends_the_padic_recurrence(p):
    from qbern.qfield import invert_q

    base = QContext.padic(p, 24)
    for ctx, kind in ((base, "beta"), (base, "xi"), (invert_q(base), "beta")):
        reference = _padic_recurrence(ctx, kind)
        assert len(reference) > 20, (p, kind)
        for n, want in enumerate(reference):
            got = getattr(table_for(ctx), kind)(n)
            assert scalars_equal(got, want, ctx), (p, kind, n)
            # a zero of the reference certifies only a lower bound on the valuation
            if not want.is_zero():
                assert got.valuation == want.valuation, (p, kind, n)
            assert got.prec == got.valuation + 24 or got.prec == got.valuation == inf


def test_precision_ledger_bound(padic_contexts):
    for p, ctx in padic_contexts.items():
        tbl = table_for(ctx)
        for n in range(13):
            bound = tbl.precision_ledger_bound(n)
            value = tbl.beta(n)
            prec = value.prec if not value.is_zero() else ctx.pctx.precision
            assert prec >= bound, (p, n, prec, bound)


def test_backend_coherence_beta(sym_table, padic_contexts):
    for p, ctx in padic_contexts.items():
        ptbl = table_for(ctx)
        for n in range(13):
            want = PadicNumber.from_fraction(sym_table.beta(n).evaluate(1 + p), ctx.pctx)
            assert scalars_equal(ptbl.beta(n), want, ctx), (p, n)


def test_xi_padic(padic_ctx3):
    ptbl = table_for(padic_ctx3)
    assert ptbl.xi(1).is_zero()
    want = PadicNumber.from_fraction(Fraction(1, 1 - 16), padic_ctx3.pctx)
    assert scalars_equal(ptbl.xi(2), want, padic_ctx3)


def test_general_rational_q_recurrence():
    # a symbolic context at q -> 1/q gives beta_n as rational functions of q
    from qbern.qfield import invert_q

    ictx = invert_q(QContext.symbolic())
    tbl = table_for(ictx)
    assert tbl.beta(2) == rf((0, 0, 1), (1, 2, 2, 1))


def test_inverse_table_is_the_substituted_table():
    # the table at 1/q holds the values of the table at q and substitutes
    # them on read; the scalar step run on rational functions at 1/q gives
    # the same values
    from qbern.qfield import invert_q

    ictx = invert_q(QContext.symbolic())
    tbl = table_for(ictx)
    for kind, (shift, lead) in carlitz._KINDS.items():
        values = [ictx.one()]
        for k in range(1, 17):
            values.append(_scalar_step(ictx.q, values, k, shift, lead))
        for n in range(17):
            assert getattr(tbl, kind)(n) == values[n], (kind, n)


def test_every_table_shares_the_state_at_q():
    # one exact state per process: the table at 1/q and every padic table,
    # at q and at 1/q, hold the objects of the table at the indeterminate q
    # and read them through their context's map
    from qbern.qfield import invert_q

    at_q = table_for(QContext.symbolic())
    contexts = [QContext.symbolic(), invert_q(QContext.symbolic())]
    for p, q in ((3, "1+p"), (5, "1+p"), (7, "1+p"), (3, "1/4"), (3, "10"), (5, "26")):
        contexts += [QContext.padic(p, 24, q), invert_q(QContext.padic(p, 24, q))]
    for ctx in contexts:
        tbl = table_for(ctx)
        tbl.beta_difference(2, 3)
        for name in ("_values", "_raw", "_cells", "_polys"):
            assert getattr(tbl, name) is getattr(at_q, name), (ctx, name)
        assert tbl._out.__func__ is QContext.read and tbl._out.__self__ == ctx
    # a fresh table, outside the cache, shares the state as well
    assert CarlitzTable(QContext.padic(5, 8))._values is at_q._values


@pytest.mark.parametrize("grid, want", [(None, 18), ("deep_n20.json", 42)])
def test_beta_poly_builds_each_n_x_once(monkeypatch, grid, want):
    # the tables at q and at 1/q share one memo of the symbolic beta_n(x),
    # so a suite run with every table built afresh builds each (n, x) once
    import json
    from pathlib import Path

    from qbern.identities import SuiteConfig, run_suite

    config = (SuiteConfig(backend="symbolic") if grid is None else SuiteConfig.from_json(
        json.loads((Path(__file__).parent / "grids" / grid).read_text())))
    builds = []
    build = CarlitzTable._zq_beta_poly

    def counted(tbl, n, x):
        builds.append((n, x))
        return build(tbl, n, x)

    table_for.cache_clear()
    qfield.invert_q.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(CarlitzTable, "_zq_beta_poly", counted)
            run_suite(config)
    finally:
        table_for.cache_clear()
        qfield.invert_q.cache_clear()
    assert len(builds) == len(set(builds)) == want


@pytest.mark.parametrize("p", [3, 5, 7])
def test_padic_reads_embed_the_exact_values(p, sym_table):
    # each read, repeated, is the exact value at the rational q embedded,
    # bit for bit; the exact value is the symbolic one evaluated there
    from qbern.qfield import invert_q

    base = QContext.padic(p, 24)
    for ctx in (base, invert_q(base)):
        tbl = table_for(ctx)
        for kind in ("beta", "xi"):
            for n in range(13):
                want = ctx.embed(getattr(sym_table, kind)(n).evaluate(ctx.rational))
                assert getattr(tbl, kind)(n) == getattr(tbl, kind)(n) == want, (p, kind, n)
        for a in range(9):
            for b in range(9 - a):
                want = ctx.embed(sym_table.beta_difference(a, b).evaluate(ctx.rational))
                assert tbl.beta_difference(a, b) == tbl.beta_difference(a, b) == want, (p, a, b)
