"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 3 and 4 pin the numeric target at valuation 8 under per-prime level
caps of 8 (p=3), 6 (p=5) and 5 (p=7).  A raw Riemann sum is only about
nu(S_N - limit) = N + slack from the integral (slack between -1 and +3, see
scripts/calibrate_convergence.py), which cannot reach 8 at those caps; the
integrator instead extrapolates the sums it has computed to their limit at
the cap, with a proven error bound, and reaches the target for every
instance here.

What still fails, and is reported rather than weakened: criterion 3 at
p = 3 asks the raw inter-level differences (``history``) to be monotone,
and for the bracket powers c=2 m=4 and c=2 m=6 they are [4, 2, 3, ...] and
[1, 6, 4, ...].  Levels 1 and 2 (and 2 and 3) agree by accident; exact
rational sums with q = 4 give the same differences, so the evaluator is
right and no extrapolation changes them.
"""

import time
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from qbern.bernstein import BernsteinSpec, bernstein_eval
from qbern.carlitz import classical_bernoulli, eval_at_one, table_for
from qbern.errors import MaxLevelExceeded, PoleAtOne
from qbern.integral import (
    BracketPower,
    ReflectedPower,
    closed_one_minus_x_power,
    integrate,
    riemann_sum,
    _power_integral_direct,
    _power_integral_reflected,
)
from qbern.identities import SuiteConfig, run_suite, verify_theorem1
from qbern.padic import PadicContext, PadicNumber, int_valuation
from qbern.qfield import QContext, invert_q, q_bracket, q_pow, scalars_equal

LEVEL_CAPS = {3: 8, 5: 6, 7: 5}
TARGET = 8
PRIMES = (3, 5, 7)


def finish(label, failures, extra=""):
    status = "PASS" if not failures else f"FAIL ({len(failures)} instances)"
    print(f"ACCEPTANCE {label}: {status}{extra}")
    if failures:
        shown = "; ".join(failures[:6])
        more = f" ... and {len(failures) - 6} more" if len(failures) > 6 else ""
        raise AssertionError(f"criterion {label}: {shown}{more}")


def agreement(a, b):
    d = a - b
    return d.prec if d.is_zero() else d.valuation


def integrate_best(f, ctx, cap):
    try:
        return integrate(f, ctx, TARGET, cap)
    except MaxLevelExceeded as exc:
        return exc.result


# -- criterion 1: symbolic identity suite -------------------------------------


def criterion1_grid():
    grid = []
    for n in range(2, 9):
        grid.append(("PROP2", {"n": n}))
    for n in range(0, 7):
        grid.append(("EQ7", {"n": n}))
    for n in range(2, 9):
        grid.append(("THM3", {"n": n}))
    for n in range(0, 9):
        for k in range(0, n + 1):
            if n > k + 1:
                grid.append(("EQ9_EQ11", {"n": n, "k": k}))
    for n in range(0, 6):
        for m in range(0, 6):
            for k in range(0, (n + m) // 2 + 1):
                if n + m > 2 * k + 1:
                    grid.append(("EQ13_EQ14", {"n": n, "m": m, "k": k}))
    for s in (1, 2, 3):
        for combo in _tuples(s, 1, 4):
            for k in range(1, 5):
                if sum(combo) > s * k + 1:
                    grid.append(("THM4_COR5", {"n": list(combo), "k": k}))
    for nm in _tuples_nm():
        for k in range(0, 4):
            weight = sum(m for _, m in nm)
            total = sum(n * m for n, m in nm)
            if total > k * weight + 1:
                grid.append(("THM6", {"nm": [list(t) for t in nm], "k": k}))
    return grid


def _tuples(s, lo, hi):
    if s == 0:
        return [()]
    return [(first,) + rest for first in range(lo, hi + 1) for rest in _tuples(s - 1, lo, hi)]


def _tuples_nm():
    out = []
    for n1 in range(1, 4):
        for n2 in range(1, 4):
            for m1 in range(1, 3):
                for m2 in range(1, 3):
                    out.append(((n1, m1), (n2, m2)))
    return out


def test_criterion_1_symbolic_identities():
    t0 = time.monotonic()
    reports = run_suite(SuiteConfig(backend="symbolic", identities=criterion1_grid()))
    elapsed = time.monotonic() - t0
    failures = []
    for r in reports:
        if not r.domain_ok:
            failures.append(f"{r.identity}{r.parameters} out of domain")
        elif r.verdict.kind != "exact":
            failures.append(f"{r.identity}{r.parameters} -> {r.verdict.kind}")
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    finish("1", failures, f" ({len(reports)} instances, {elapsed:.1f}s)")


# -- criterion 2: q -> 1 degeneration ------------------------------------------


def test_criterion_2_degeneration(sym_table):
    failures = []
    for n in range(0, 13):
        if eval_at_one(sym_table.beta(n)) != classical_bernoulli(n):
            failures.append(f"beta_{n} at q=1")
    for n in range(2, 7):
        try:
            eval_at_one(sym_table.xi(n))
            failures.append(f"xi_{n} finite at q=1")
        except PoleAtOne:
            pass
    finish("2", failures)


# -- criterion 3: Riemann-oracle agreement --------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_criterion_3_riemann_oracle(p, padic_contexts):
    ctx = padic_contexts[p]
    tbl = table_for(ctx)
    cap = LEVEL_CAPS[p]
    t0 = time.monotonic()
    failures = []
    for c in (0, 1, 2):
        for m in range(0, 7):
            res = integrate_best(BracketPower(c, m), ctx, cap)
            a = agreement(res.value, tbl.beta_poly(m, c))
            if a < TARGET:
                failures.append(f"bracket c={c} m={m}: agreement {a} < {TARGET}")
            history = [h for h in res.history if h is not None]
            if list(history) != sorted(history):
                failures.append(f"bracket c={c} m={m}: non-monotone levels {history}")
    for n in range(2, 7):
        res = integrate_best(ReflectedPower(1, n), ctx, cap)
        a = agreement(res.value, closed_one_minus_x_power(n, ctx, tbl))
        if a < TARGET:
            failures.append(f"reflected n={n}: agreement {a} < {TARGET}")
        history = list(res.history)
        if history != sorted(history):
            failures.append(f"reflected n={n}: non-monotone levels {history}")
    elapsed = time.monotonic() - t0
    finish(f"3 (p={p})", failures, f" ({elapsed:.1f}s)")


# -- criterion 4: reflection-duality adjudication ---------------------------------


@pytest.mark.parametrize("p", (3, 5))
def test_criterion_4_theorem1(p, padic_contexts):
    ctx = padic_contexts[p]
    cap = LEVEL_CAPS[p]
    failures = []
    rulings = set()
    for n in range(0, 6):
        for x in (0, 1, 2):
            report = verify_theorem1(n, x, ctx, target=TARGET, level_cap=cap)
            if not report.verdict.ok:
                achieved = report.verdict.valuation
                failures.append(f"n={n} x={x}: agreement {achieved} < {TARGET}")
            if n >= 1 and n % 2 == 0:
                assert "supports the reflected closed form as printed" in report.notes
                rulings.add("printed")
    assert rulings == {"printed"}
    print(f"ACCEPTANCE 4 (p={p}) sign ruling: the oracle supports the reflected "
          "closed form as printed; the plain closed form needs the (1-q)-power "
          "prefactor for even exponents")
    finish(f"4 (p={p})", failures)


# -- criterion 5: structural invariants -------------------------------------------


def test_criterion_5_structure(sym_table, padic_contexts):
    failures = []
    sym = sym_table.ctx
    # partition of unity, symbolic (integer points span the polynomial identity)
    for n in range(1, 11):
        for x in range(0, n + 2):
            total = sym.zero()
            for k in range(n + 1):
                total = total + bernstein_eval(BernsteinSpec(k, n), x, sym)
            if total != sym.one():
                failures.append(f"partition n={n} x={x} symbolic")
    # partition of unity, padic at fixed Z_p points
    ctx3 = padic_contexts[3]
    for n in (1, 4, 7, 10):
        for x in (Fraction(1, 2), Fraction(5, 7), Fraction(-4, 11)):
            total = ctx3.zero()
            for k in range(n + 1):
                total = total + bernstein_eval(BernsteinSpec(k, n), x, ctx3)
            if not scalars_equal(total, ctx3.one(), ctx3):
                failures.append(f"partition n={n} x={x} padic")
    # q-symmetry, n <= 8
    isym = invert_q(sym)
    for n in range(0, 9):
        for k in range(n + 1):
            for x in (0, 1, 2):
                lhs = bernstein_eval(BernsteinSpec(k, n), x, sym)
                rhs = bernstein_eval(BernsteinSpec(n - k, n), 1 - x, isym)
                if lhs != rhs:
                    failures.append(f"symmetry k={k} n={n} x={x}")
    ictx3 = invert_q(ctx3)
    for (k, n) in ((1, 4), (3, 8)):
        x = Fraction(2, 7)
        lhs = bernstein_eval(BernsteinSpec(k, n), x, ctx3)
        rhs = bernstein_eval(
            BernsteinSpec(n - k, n), PadicNumber.from_fraction(1 - x, ctx3.pctx), ictx3
        )
        if not scalars_equal(lhs, rhs, ctx3):
            failures.append(f"symmetry padic k={k} n={n}")
    # lifting-the-exponent, m <= 50
    for p, ctx in padic_contexts.items():
        q = ctx.q
        power = q
        for m in range(1, 51):
            if (power - 1).valuation != 1 + int_valuation(m, p):
                failures.append(f"LTE p={p} m={m}")
            power = power * q
    # measure normalization at every tested level
    for p, ctx in padic_contexts.items():
        for N in range(1, 5 if p == 3 else 4):
            s = riemann_sum(BracketPower(0, 0), ctx, N)
            if not scalars_equal(s, ctx.one(), ctx):
                failures.append(f"measure norm p={p} N={N}")
    # Carlitz precision ledger lower bound, n <= 12
    for p, ctx in padic_contexts.items():
        tbl = table_for(ctx)
        for n in range(13):
            value = tbl.beta(n)
            prec = value.prec if not value.is_zero() else ctx.pctx.precision
            if prec < tbl.precision_ledger_bound(n):
                failures.append(f"ledger p={p} n={n}")
    finish("5", failures)


# -- criterion 6: backend coherence -------------------------------------------------


@lru_cache(maxsize=None)
def _eval_rf(rf, at):
    return rf.evaluate(at)


def _pairs(name, params, ctx, tbl):
    """The (lhs, rhs) quantities of one criterion-1 instance, any backend."""
    q = ctx.q
    if name == "PROP2":
        n = params["n"]
        return [(tbl.beta_poly(n, 2),
                 tbl.beta(n) / q ** 2 + ctx.embed(n + 1) - ctx.one() / q)]
    if name == "EQ7":
        n = params["n"]
        sign = 1 if n % 2 == 0 else -1
        return [(sign * q_pow(n, ctx) * tbl.beta_poly(n, -1),
                 tbl.inverse_table().beta_poly(n, 2))]
    if name == "THM3":
        n = params["n"]
        sign = 1 if n % 2 == 0 else -1
        return [(sign * q_pow(n, ctx) * tbl.beta_poly(n, -1),
                 closed_one_minus_x_power(n, ctx, tbl))]
    if name == "EQ9_EQ11":
        n, k = params["n"], params["k"]
        pref = comb(n, k)
        return [(pref * _power_integral_direct(k, n - k, tbl),
                 pref * _power_integral_reflected(k, n - k, tbl))]
    if name == "EQ13_EQ14":
        n, m, k = params["n"], params["m"], params["k"]
        pref = comb(n, k) * comb(m, k)
        return [(pref * _power_integral_reflected(2 * k, n + m - 2 * k, tbl),
                 pref * _power_integral_direct(2 * k, n + m - 2 * k, tbl))]
    if name == "THM4_COR5":
        ns, k = params["n"], params["k"]
        s = len(ns)
        pref = 1
        for n in ns:
            pref *= comb(n, k)
        a, b = s * k, sum(ns) - s * k
        return [(pref * _power_integral_reflected(a, b, tbl),
                 pref * _power_integral_direct(a, b, tbl))]
    if name == "THM6":
        nm, k = params["nm"], params["k"]
        weight = sum(m for _, m in nm)
        total = sum(n * m for n, m in nm)
        pref = 1
        for n, m in nm:
            pref *= comb(n, k) ** m
        a, b = k * weight, total - k * weight
        return [(pref * _power_integral_reflected(a, b, tbl),
                 pref * _power_integral_direct(a, b, tbl))]
    raise AssertionError(name)


def test_criterion_6_backend_coherence(sym_table, padic_contexts):
    failures = []
    sym_values = {}
    for name, params in criterion1_grid():
        key = (name, str(params))
        sym_values[key] = _pairs(name, params, sym_table.ctx, sym_table)
    for p, ctx in padic_contexts.items():
        tbl = table_for(ctx)
        at = Fraction(1 + p)
        for name, params in criterion1_grid():
            key = (name, str(params))
            padic_pairs = _pairs(name, params, ctx, tbl)
            for (sl, sr), (pl, pr) in zip(sym_values[key], padic_pairs):
                for side, srf, pval in (("lhs", sl, pl), ("rhs", sr, pr)):
                    want = PadicNumber.from_fraction(_eval_rf(srf, at), ctx.pctx)
                    if not scalars_equal(pval, want, ctx):
                        failures.append(f"{name}{params} {side} p={p}")
    finish("6", failures)
