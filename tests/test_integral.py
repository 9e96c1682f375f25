"""Riemann evaluator, adaptive controller, and the closed-form routes."""

import random
from fractions import Fraction
from itertools import accumulate, count, repeat
from math import comb, inf
from operator import mul

import pytest

from qbern import integral
from qbern.carlitz import CarlitzTable, table_for
from qbern.errors import (
    DivisionByZero,
    DomainError,
    MaxLevelExceeded,
    PrecisionExhausted,
    QbernError,
)
from qbern.integral import (
    BernsteinProduct,
    BracketPower,
    ReflectedPower,
    RiemannResult,
    _bernstein_shape,
    _int_bracket,
    _power_integral_direct,
    _reflected_sum,
    _shape,
    _u_coefficient_valuations,
    bernstein_power_product_integral,
    closed_bracket_power,
    closed_one_minus_x_power,
    closed_reflected_power,
    integrand_from_json,
    integrate,
    riemann_sum,
)
from qbern.identities import default_grid
from qbern.padic import PadicNumber, int_valuation
from qbern.qfield import QContext, RationalFunction, invert_q, q_bracket, q_pow, scalars_equal

SYM = QContext.symbolic()


def rf(num, den=(1,)):
    return RationalFunction(
        tuple(Fraction(c) for c in num), tuple(Fraction(c) for c in den)
    )


def agreement(a, b):
    d = a - b
    return d.prec if d.is_zero() else d.valuation


# -- measure -----------------------------------------------------------------


def test_weights_sum_to_one(padic_ctx3):
    # the residue class x + p^N Z_p has measure q^x / [p^N]_q
    for N in (1, 2, 3):
        total = padic_ctx3.zero()
        for x in range(3**N):
            total = total + q_pow(x, padic_ctx3) / q_bracket(3**N, padic_ctx3)
        assert scalars_equal(total, padic_ctx3.one(), padic_ctx3)


def test_riemann_constant_exact(padic_ctx3):
    for N in (1, 2, 3, 4):
        s = riemann_sum(BracketPower(0, 0), padic_ctx3, N)
        assert scalars_equal(s, padic_ctx3.one(), padic_ctx3)


def test_riemann_requires_padic():
    with pytest.raises(DomainError):
        riemann_sum(BracketPower(0, 1), SYM, 2)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_precision_ends_an_uncapped_run(p):
    # [p^N]_q has valuation N, so the level-K weight sum vanishes modulo p^K:
    # the level-K sum cannot be formed, whatever p^K is, and an uncapped run
    # of an unreachable target ends before level N <= K
    fs = (BracketPower(0, 0), BracketPower(2, 3), ReflectedPower(1, 2),
          BernsteinProduct(((1, 3, 2),)))
    for digits in (8, 24):
        for spec in ("1+p", str(1 + p * p)):
            base = QContext.padic(p, digits, spec)
            for ctx in (base, invert_q(base)):
                for f in fs:
                    with pytest.raises(DivisionByZero):
                        riemann_sum(f, ctx, digits)
                    with pytest.raises(MaxLevelExceeded) as missed:
                        integrate(f, ctx, 10**6)
                    message = str(missed.value)
                    assert "before level " in message, message
                    ended = int(message.split("before level ")[1].split()[0])
                    assert ended <= digits, (p, digits, spec, ctx.q, f)
                    assert len(missed.value.result.history) == ended - 2


# -- the PadicNumber reference for the integer kernel -------------------------


def _bracket_form(c, reflected, ctx):
    """(r, s) with y = (1 - r q^x)/(1 - s) and 1 - y = (r q^x - s)/(1 - s):
    (q^c, q) for [x + c]_q, (q^-c, 1/q) for [c - x]_{1/q}."""
    if reflected:
        return q_pow(-c, ctx), ctx.one() / ctx.q
    return q_pow(c, ctx), ctx.q


def _u_poly(f, ctx):
    """g_0..g_d with (1 - r u)^a (r u - s)^b = sum_j g_j u^j in u = q^x, in
    the scalars of ctx, for (r, s) of ``_bracket_form``."""
    _, a, b, c, reflected = _shape(f)
    return integral._expand(a, b, *_bracket_form(c, reflected, ctx), ctx.one())


def _term_evaluator(f, ctx):
    """Build term(x, q^x) -> Scalar with everything x-independent hoisted."""
    scale, a, b, c, reflected = _shape(f)
    const = ctx.embed(scale)
    if a + b == 0:  # a constant needs no 1/(1 - s)
        return lambda x, qx: const
    one = ctx.one()
    r, s = _bracket_form(c, reflected, ctx)
    inv = one / (one - s)

    def term(x, qx):
        y = (one - r * qx) * inv
        return const * y ** a * (one - y) ** b

    return term


def _object_sum(term, ctx, total):
    """sum_{x<total} q^x term(x, q^x) / sum_{x<total} q^x in PadicNumbers."""
    q = ctx.q
    qx = ctx.one()
    weighted = ctx.zero()
    weights = ctx.zero()
    for x in range(total):
        weighted = weighted + qx * term(x, qx)
        weights = weights + qx
        qx = qx * q
    return weighted / weights


def test_block_reduction_order_free(padic_ctx3):
    # partial sums over contiguous blocks combine bit-identically in any order
    from itertools import permutations

    f = BracketPower(0, 2)
    level, blocks = 3, 4
    total = 3**level
    term = _term_evaluator(f, padic_ctx3)
    bounds = [total * i // blocks for i in range(blocks)] + [total]
    partials = []
    for lo, hi in zip(bounds, bounds[1:]):
        qx = q_pow(lo, padic_ctx3)
        s = padic_ctx3.zero()
        w = padic_ctx3.zero()
        for x in range(lo, hi):
            s = s + qx * term(x, qx)
            w = w + qx
            qx = qx * padic_ctx3.q
        partials.append((s, w))
    reference = riemann_sum(f, padic_ctx3, level)
    for order in list(permutations(range(blocks)))[:8]:
        s = padic_ctx3.zero()
        w = padic_ctx3.zero()
        for i in order:
            s = s + partials[i][0]
            w = w + partials[i][1]
        assert s / w == reference


# q values per prime with nu(q - 1) = 1 and 2; each is also run inverted
KERNEL_QS = {3: ("1+p", "1/4", "10"), 5: ("1+p", "26"), 7: ("1+p",)}
# Bernstein shapes of degree 0, pure [x]_q, pure 1 - [x]_q and mixed; the
# coefficients 9, 10, 7 and 6 include multiples of p
KERNEL_SHAPES = (((0, 0, 2),), ((2, 2, 1),), ((0, 3, 1),), ((1, 3, 2),),
                 ((2, 5, 1),), ((1, 7, 1),), ((1, 2, 1), (1, 3, 1)))


def _outcome(compute):
    try:
        s = compute()
    except (DivisionByZero, PrecisionExhausted) as exc:
        return type(exc).__name__
    return (s.v, s.unit, s.prec)


@pytest.mark.parametrize("p", sorted(KERNEL_QS))
def test_kernel_bit_identical_to_object_loop(p):
    # the integer kernel returns the PadicNumber loop's (v, unit, prec), or
    # raises the same exception class, on every structured integrand
    integrands = [cls(c, m) for cls in (BracketPower, ReflectedPower)
                  for c in (-2, 0, 3, 10**9 + 7, -(10**9 + 7)) for m in range(5)]
    integrands += [BernsteinProduct(shape) for shape in KERNEL_SHAPES]
    levels = (1, 2, 3) if p < 7 else (1, 2)
    seen = set()
    for digits in (2, 5, 24):
        for spec in KERNEL_QS[p]:
            try:
                base = QContext.padic(p, digits, spec)
            except DomainError:
                continue  # q = 1 to K digits
            for ctx in (base, invert_q(base)):
                for f in integrands:
                    for level in levels:
                        got = _outcome(lambda: riemann_sum(f, ctx, level))
                        want = _outcome(lambda: _object_sum(
                            _term_evaluator(f, ctx), ctx, p**level))
                        assert got == want, (digits, spec, ctx.q, f, level)
                        seen.add(got if isinstance(got, str) else "value")
    assert seen == {"value", "DivisionByZero", "PrecisionExhausted"}


# -- the block recurrence against the term loop --------------------------------
#
# ``riemann_sum`` takes a level from the one before in one block step.  The
# term loop it replaced adds q^x y^a (1 - y)^b one residue at a time; here it
# runs once per context and bracket up to a small level, and every level is
# read off its prefix sums, each term formed from y and 1 - y on their own.

def _block_integrands():
    # a function, since ``_grid_products`` comes with the soundness gate below
    return (
        *_grid_products(),
        *(cls(c, m) for cls in (BracketPower, ReflectedPower)
          for c in (*range(-3, 4), 10**9 + 7) for m in (0, 2)),
        BracketPower(0, 24),
    )


def _term_loop_levels(fs, ctx, cap):
    """{f: [the outcome of each level 1..cap]}, summed term by term.

    The sums run modulo p^(K + the largest nu_p(scale)), which each f's own
    modulus p^(K + nu_p(scale)) divides, with the same integers u and y_0.
    A level whose weight sum vanishes modulo p^K raises DivisionByZero
    whatever its weighted sum, so the terms run only to the last level whose
    weight sum does not."""
    pctx = ctx.pctx
    p, digits = pctx.prime, pctx.precision
    shapes = {f: _shape(f) for f in fs}
    big = p ** (digits + max(int_valuation(s[0], p) for s in shapes.values()))
    u = ctx.q.unit
    bounds = [0] + [p**level for level in range(1, cap + 1)]
    qx = list(accumulate(repeat(u, p**cap - 1), lambda w, _: w * u % big, initial=1))

    def prefix_sums(count, *factors):
        # sum_{x < p^level} of the product of the factors at x, for levels 1..count
        def level_sum(lo, hi):
            terms = factors[0][lo:hi]
            for factor in factors[1:]:
                terms = map(mul, terms, factor[lo:hi])
            return sum(terms)
        return list(accumulate(level_sum(lo, hi) for lo, hi in zip(bounds, bounds[1:count + 1])))

    weights = prefix_sums(cap, qx)
    live = sum(1 for w in weights if w % p**digits)
    powers = {}

    def power(c, reflected, k, complement):
        # y^k or (1 - y)^k at every residue for the bracket of (c, reflected)
        key = c, reflected, k, complement
        if key not in powers:
            if k > 1:
                powers[key] = list(map(big.__rmod__, map(
                    mul, power(c, reflected, k // 2, complement),
                    power(c, reflected, k - k // 2, complement))))
            elif complement:
                powers[key] = [(1 - y) % big for y in power(c, reflected, 1, False)]
            else:
                step = -u if reflected else 1
                y0 = _int_bracket(c, pow(u, -1, big) if reflected else u, p, big)
                powers[key] = list(accumulate(repeat(None, bounds[live] - 1),
                                              lambda y, _: (u * y + step) % big, initial=y0))
        return powers[key]

    sums, levels = {}, {}
    for f, (scale, a, b, c, reflected) in shapes.items():
        e = ctx.q_minus_one_valuation if a + b else 0
        if 2 * e >= digits:
            levels[f] = ["PrecisionExhausted"] * cap
            continue
        shift = int_valuation(scale, p)
        mod = p ** (digits + shift)
        if (a, b, c, reflected) not in sums:
            sums[a, b, c, reflected] = prefix_sums(live, qx, *(
                power(c, reflected, k, complement)
                for k, complement in ((a, False), (b, True)) if k)) + [0] * (cap - live)
        weighted = sums[a, b, c, reflected]
        levels[f] = [_outcome(lambda: PadicNumber(pctx, 0, scale * (weighted[n] % mod),
                                                  shift + digits - e)
                              / PadicNumber(pctx, 0, weights[n] % mod, digits))
                     for n in range(cap)]
    return levels


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_block_sums_bit_identical_to_term_loop(p):
    # fresh, carried and term-loop sums agree on every level up to p^N <= 17000,
    # which keeps the term loop cheap: the grid's Bernstein shapes, offsets
    # -3..3 and 10^9 + 7 on both brackets, and a degree 24, at K = 2, 5 and 24
    # and at q and 1/q
    cap = {3: 8, 5: 6, 7: 5, 11: 4}[p]
    fs = _block_integrands()
    seen = set()
    for digits in (2, 5, 24):
        base = QContext.padic(p, digits)
        for ctx in (base, invert_q(base)):
            want = _term_loop_levels(fs, ctx, cap)
            for f in fs:
                carry = []
                for level in range(1, cap + 1):
                    fresh = _outcome(lambda: riemann_sum(f, ctx, level))
                    carried = _outcome(lambda: riemann_sum(f, ctx, level, carry))
                    assert fresh == carried == want[f][level - 1], (digits, ctx.q, f, level)
                    seen.add(fresh if isinstance(fresh, str) else "value")
    assert seen == {"value", "DivisionByZero", "PrecisionExhausted"}


def test_integrate_takes_one_block_step_per_level(padic_ctx5, monkeypatch):
    # every level, level 1 included, is one block step: level 1 from the
    # single residue x = 0, each later level from the carried sums, so no
    # level goes back over its p^N residues
    calls = []
    block_step = integral._block_step

    def counted(*args):
        calls.append("_block_step")
        return block_step(*args)

    monkeypatch.setattr(integral, "_block_step", counted)
    with pytest.raises(MaxLevelExceeded) as capped:
        integrate(BernsteinProduct(((2, 5, 1),)), padic_ctx5, 40, level_cap=6)
    assert capped.value.result.level == 6
    assert calls == ["_block_step"] * 6
    calls.clear()
    riemann_sum(BracketPower(1, 3), padic_ctx5, 4)
    assert calls == ["_block_step"] * 4


# -- convergence against an independent rational oracle -----------------------


def test_level_sums_match_rational_oracle(padic_ctx3):
    # sum_{x<P} q^x [x]_q / [P]_q = -(q - 1 - t)/((q-1)(q+1)) with t = q^P - 1,
    # derived from plain geometric sums in exact rational arithmetic
    q = Fraction(4)
    for N in (1, 2, 3):
        P = 3**N
        t = q**P - 1
        expect = -(q - 1 - t) / ((q - 1) * (q + 1))
        got = riemann_sum(BracketPower(0, 1), padic_ctx3, N)
        want = PadicNumber.from_fraction(expect, padic_ctx3.pctx)
        assert scalars_equal(got, want, padic_ctx3), N


def test_bracket_power_converges_to_beta(padic_ctx3):
    tbl = table_for(padic_ctx3)
    beta1 = tbl.beta(1)
    for N in (1, 2, 3, 4):
        s = riemann_sum(BracketPower(0, 1), padic_ctx3, N)
        assert agreement(s, beta1) == N


def test_bracket_power_offset_limit(padic_ctx3):
    # the offset-1 integrand tends to q*beta_1 + 1 = 1/(1+q)
    tbl = table_for(padic_ctx3)
    limit = tbl.beta_poly(1, 1)
    want = PadicNumber.from_fraction(Fraction(1, 5), padic_ctx3.pctx)
    assert scalars_equal(limit, want, padic_ctx3)
    s = riemann_sum(BracketPower(1, 1), padic_ctx3, 5)
    assert agreement(s, limit) >= 5


# -- adaptive controller -------------------------------------------------------


def test_integrate_constant_level_one(padic_ctx3):
    res = integrate(BracketPower(0, 0), padic_ctx3, 10)
    assert res.level == 1
    assert scalars_equal(res.value, padic_ctx3.one(), padic_ctx3)
    assert res.stabilization_valuation >= 10


def test_integrate_bracket_square_to_ten(padic_ctx3):
    res = integrate(BracketPower(0, 2), padic_ctx3, 10, level_cap=10)
    tbl = table_for(padic_ctx3)
    assert res.stabilization_valuation >= 10
    assert agreement(res.value, tbl.beta(2)) >= 10


def test_integrate_short_of_target_carries_best(padic_ctx3):
    with pytest.raises(MaxLevelExceeded) as exc:
        integrate(BracketPower(0, 6), padic_ctx3, 30, level_cap=3)
    best = exc.value.result
    assert (best.level, best.certificate, best.stabilization_valuation) == (
        3, "a-priori-bound", 3)


def test_history_monotone_for_plain_bracket(padic_ctx3):
    try:
        history = integrate(BracketPower(0, 1), padic_ctx3, 99, level_cap=6).history
    except MaxLevelExceeded as exc:
        history = exc.result.history
    history = list(history)
    assert history == sorted(history)


# -- extrapolation at the level cap ----------------------------------------------


def test_cap_extrapolation_certifies_target(padic_ctx5):
    # the raw level-2/3 sums agree only to 2; three levels fix the degree-2
    # polynomial, so the extrapolated value is the integral to its tracked
    # precision
    res = integrate(BracketPower(0, 2), padic_ctx5, 8, level_cap=6)
    true = agreement(res.value, table_for(padic_ctx5).beta_poly(2, 0))
    assert res.level == 3
    assert res.stabilization_valuation >= 8
    assert true >= 8
    assert true >= res.stabilization_valuation


def test_cap_extrapolation_bound_with_few_levels(padic_ctx7):
    # degree 6 from 5 levels: the a-priori interpolation bound applies
    res = integrate(BracketPower(0, 6), padic_ctx7, 8, level_cap=5)
    true = agreement(res.value, table_for(padic_ctx7).beta_poly(6, 0))
    assert res.level == 5
    assert res.certificate == "a-priori-bound"
    # the value is truncated to the bound, below its tracked precision
    assert res.stabilization_valuation == res.value.prec
    assert res.stabilization_valuation <= true


def test_cap_extrapolation_short_of_target_carries_result(padic_ctx7):
    with pytest.raises(MaxLevelExceeded) as exc:
        integrate(BracketPower(0, 6), padic_ctx7, 8, level_cap=3)
    best = exc.value.result
    true = agreement(best.value, table_for(padic_ctx7).beta_poly(6, 0))
    assert best.level == 3
    assert best.stabilization_valuation < 8
    assert best.stabilization_valuation <= true


def test_cap_extrapolation_without_digits_keeps_raw_best():
    # nu(q - 1) = 2 and K = 5: 1 - t_N vanishes to working precision at
    # levels 3 and 4, so no extrapolation is possible there, and the raw
    # level difference of precision <= 0 certifies nothing; the one digit
    # proven at level 2 stays the best
    ctx = QContext.padic(5, 5, "26")
    with pytest.raises(MaxLevelExceeded) as exc:
        integrate(BracketPower(0, 2), ctx, 30, level_cap=4)
    best = exc.value.result
    assert (best.level, best.stabilization_valuation) == (2, 1)
    assert best.certificate == "a-priori-bound"
    assert best.history == (1, 0, -1)
    assert best.value.prec == 1
    assert agreement(best.value, table_for(ctx).beta_poly(2, 0)) == 1
    # one level bounds the error only by 5^-1: no digit, so no certificate
    with pytest.raises(MaxLevelExceeded) as exc:
        integrate(BracketPower(0, 2), ctx, 30, level_cap=1)
    none = exc.value.result
    assert (none.stabilization_valuation, none.certificate) == (-inf, "none")
    assert none.value.prec <= 0


def test_cap_extrapolation_history_is_raw(padic_ctx5):
    f = BracketPower(1, 3)
    res = integrate(f, padic_ctx5, 8, level_cap=5)
    assert res.level == 4
    sums = [riemann_sum(f, padic_ctx5, N) for N in range(1, res.level + 1)]
    assert list(res.history) == [agreement(b, a) for a, b in zip(sums, sums[1:])]


def test_cap_extrapolation_sums_each_level_once(padic_ctx5, monkeypatch):
    # each level is one call, and it goes on from the previous level's
    # p^(N-1) terms: the run sums each of the p^level residues once
    import qbern.integral as integral

    levels, summed = [], []
    original = integral.riemann_sum

    def counting(f, ctx, level, carry=None):
        levels.append(level)
        before = carry[0] if carry else 0
        assert before == (5 ** (level - 1) if level > 1 else 0)
        result = original(f, ctx, level, carry)
        summed.append(carry[0] - before)
        return result

    monkeypatch.setattr(integral, "riemann_sum", counting)
    res = integrate(BracketPower(2, 4), padic_ctx5, 8, level_cap=5)
    assert res.level == 4
    assert levels == list(range(1, res.level + 1))
    assert sum(summed) == 5 ** res.level


def test_certificate_kinds(padic_ctx3, padic_ctx7):
    exact = integrate(BracketPower(0, 2), padic_ctx3, 8)
    assert (exact.level, exact.certificate) == (3, "exact-degree")
    assert exact.stabilization_valuation == exact.value.prec
    bounded = integrate(BracketPower(0, 6), padic_ctx7, 8, level_cap=5)
    assert bounded.certificate == "a-priori-bound"
    assert bounded.level < 7
    assert bounded.stabilization_valuation == bounded.value.prec
    with pytest.raises(MaxLevelExceeded) as exc:
        integrate(BracketPower(0, 6), padic_ctx3, 8, level_cap=1)
    none = exc.value.result
    assert (none.certificate, none.stabilization_valuation) == ("none", -inf)
    assert none.to_json()["stabilization_valuation"] == "-inf"
    assert exact.to_json()["certificate"] == "exact-degree"


@pytest.mark.parametrize("q,f,target,level,bound,true", [
    ("1/4", BracketPower(0, 2), 4, 3, 20, 20),
    ("1+p", BracketPower(2, 6), 6, 4, 8, 8),
    ("1+p", BracketPower(2, 4), 4, 3, 5, 5),
])
def test_stop_certificate_is_proven(q, f, target, level, bound, true):
    # consecutive sums agree by accident here (levels 1/2 or 2/3), which
    # once stopped the integrator with a certificate above the agreement;
    # the value is truncated to the bound, so it agrees exactly that far
    ctx = QContext.padic(3, 24, q)
    res = integrate(f, ctx, target)
    agree = agreement(res.value, table_for(ctx).beta_poly(f.power, f.offset))
    assert (res.level, res.stabilization_valuation, agree) == (level, bound, true)
    assert target <= res.stabilization_valuation <= agree


# -- exact rational cross-check ------------------------------------------------


def _rational_bracket(y, r):
    return (1 - r**y) / (1 - r)


def _rational_integrand(f, x, q):
    """f(x) from its definition, in exact rationals."""
    if isinstance(f, BracketPower):
        return _rational_bracket(x + f.offset, q) ** f.power
    if isinstance(f, ReflectedPower):
        return _rational_bracket(f.offset - x, 1 / q) ** f.power
    value = Fraction(1)
    y = _rational_bracket(x, q)
    for k, n, m in f.factors:
        value *= (comb(n, k) * y**k * (1 - y) ** (n - k)) ** m
    return value


def _u_coefficients(f, q):
    """g_0..g_d with f(x) = sum_j g_j q^(jx), in exact rationals."""
    if isinstance(f, BracketPower):
        scale, factors = (1 - q) ** -f.power, [((1, -(q**f.offset)), f.power)]
    elif isinstance(f, ReflectedPower):
        scale, factors = (1 - 1 / q) ** -f.power, [((1, -(q**-f.offset)), f.power)]
    else:
        scale, factors = Fraction(1), []
        for k, n, m in f.factors:
            scale *= comb(n, k) ** m / (1 - q) ** (n * m)
            factors += [((1, -1), k * m), ((-q, 1), (n - k) * m)]
    poly = [scale]
    for (c0, c1), power in factors:
        for _ in range(power):
            poly = [c0 * a + c1 * b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def _geometric(r, terms):
    return (1 - r**terms) / (1 - r)


def _true_agreement(w, exact, p):
    """min(prec, nu(w - exact)) for a PadicNumber w and a Fraction."""
    rep = Fraction(0) if w.is_zero() else Fraction(w.unit) * Fraction(p) ** w.v
    d = rep - exact
    if d == 0:
        return w.prec
    return min(w.prec, int_valuation(d.numerator, p) - int_valuation(d.denominator, p))


XCHECK_QS = {3: ("1+p", "10"), 5: ("1+p", "26"), 7: ("1+p",)}
XCHECK_INTEGRANDS = (
    BracketPower(0, 1), BracketPower(0, 2), BracketPower(2, 4), BracketPower(2, 6),
    BracketPower(-1, 3), ReflectedPower(1, 2), ReflectedPower(1, 4), ReflectedPower(1, 6),
    BernsteinProduct(((1, 2, 1),)), BernsteinProduct(((1, 2, 1), (1, 3, 1))),
    BernsteinProduct(((0, 3, 2),)), BernsteinProduct(((2, 5, 1),)),
)


@pytest.mark.parametrize("p", sorted(XCHECK_QS))
def test_certificates_against_exact_rational_sums(p):
    # The level-N sum at rational q is sum_j g_j G(q^(j+1), p^N) / G(q, p^N)
    # with G(r, M) = 1 + r + ... + r^(M-1), and the integral is its limit
    # sum_j g_j (j+1) / G(q, j+1).  Every level-N sum must match its exact
    # value to its precision, and no certificate, carried at each cap 1..4
    # or returned at a target, may exceed the true agreement.
    kinds = set()
    for digits in (6, 10, 24):
        for spec in XCHECK_QS[p]:
            base = QContext.padic(p, digits, spec)
            q = Fraction(1 + p) if spec == "1+p" else Fraction(spec)
            for ctx, qq in ((base, q), (invert_q(base), 1 / q)):
                for f in XCHECK_INTEGRANDS:
                    g = _u_coefficients(f, qq)
                    assert all(
                        sum(c * qq ** (j * x) for j, c in enumerate(g))
                        == _rational_integrand(f, x, qq)
                        for x in range(len(g) + 1)
                    ), f
                    limit = sum(c * (j + 1) / _geometric(qq, j + 1) for j, c in enumerate(g))
                    results = []
                    for cap in range(1, 5):
                        try:
                            s = riemann_sum(f, ctx, cap)
                        except (DivisionByZero, PrecisionExhausted):
                            break  # too few digits for this level; nothing claimed
                        exact = sum(
                            c * _geometric(qq ** (j + 1), p**cap) for j, c in enumerate(g)
                        ) / _geometric(qq, p**cap)
                        assert _true_agreement(s, exact, p) >= s.prec, (f, cap)
                        with pytest.raises(MaxLevelExceeded) as exc:
                            integrate(f, ctx, 10**6, level_cap=cap)
                        results.append(exc.value.result)
                        # the best so far: a later cap never carries less
                        assert results[-1].level <= cap
                        assert len(results[-1].history) == cap - 1
                        assert all(r.stabilization_valuation <= results[-1].stabilization_valuation
                                   for r in results)
                    summed = len(results)
                    for target in (4, 8) if summed else ():
                        try:
                            results.append(integrate(f, ctx, target, level_cap=summed))
                        except MaxLevelExceeded as err:
                            results.append(err.result)
                    for res in results:
                        true = _true_agreement(res.value, limit, p)
                        assert res.stabilization_valuation <= true, (
                            digits, spec, qq, f, res.level, res.stabilization_valuation, true)
                        # the value claims no digit beyond its certificate
                        if res.stabilization_valuation > 0:
                            assert res.value.prec == res.stabilization_valuation
                        else:
                            assert res.value.prec <= 0
                        if res.stabilization_valuation > 0:
                            kinds.add(res.certificate)
    assert kinds == {"exact-degree", "a-priori-bound"}


# -- the certificate soundness gate ---------------------------------------------
#
# At the rational q the integral is exactly sum_j g_j (j+1)/[j+1]_q, with the
# g_j of ``_u_coefficients``, which shares no code with ``_expand``.  At every
# level of an uncapped run, up to the level whose sum cannot be formed, the
# extrapolation ``integrate`` forms, before it is truncated, must agree with
# that limit to at least its certificate.  Each mutation below plants a
# defect in the bound, which the gate must catch.


def _grid_factors(name, params):
    k = params.get("k")
    if name == "EQ9_EQ11":
        return [(k, params["n"], 1)]
    if name == "EQ13_EQ14":
        return [(k, params["n"], 1), (k, params["m"], 1)]
    if name == "THM4_COR5":
        return [(k, d, 1) for d in params["n"]]
    if name == "THM6":
        return [(k, n, m) for n, m in params["nm"]]
    return None


def _grid_products():
    """The distinct nonzero Bernstein products of the symbolic default grid,
    one per integrand (factor lists of one shape are one function)."""
    products = {}
    for name, params in default_grid("symbolic"):
        factors = _grid_factors(name, params)
        if factors and _bernstein_shape(factors)[0]:
            f = BernsteinProduct(factors)
            products.setdefault(_shape(f), f)
    return tuple(products.values())


SOUNDNESS_INTEGRANDS = (
    *(BracketPower(c, m) for c in (-1, 0, 1, 2) for m in range(9)),
    *(ReflectedPower(c, m) for c in (0, 1, 2) for m in range(9)),
    *_grid_products(),
)
# the full sweep at p = 3, every fourth integrand at p = 5 and 7
SOUNDNESS_SWEEPS = {3: SOUNDNESS_INTEGRANDS, 5: SOUNDNESS_INTEGRANDS[::4],
                    7: SOUNDNESS_INTEGRANDS[::4]}


def _certificate_violations(p, integrands, monkeypatch):
    """(f, level, certificate, true agreement) for every level result whose
    certificate exceeds its agreement with the exact limit, at q = 1 + p."""
    ctx, q = QContext.padic(p, 24, "1+p"), Fraction(1 + p)
    certificate, seen = integral._certificate, []

    def recording(valuations, value, level, ctx):
        bound = certificate(valuations, value, level, ctx)
        seen.append((level, value, bound))
        return bound

    monkeypatch.setattr(integral, "_certificate", recording)
    for f in integrands:
        limit = sum(c * (j + 1) / _geometric(q, j + 1)
                    for j, c in enumerate(_u_coefficients(f, q)))
        seen.clear()
        with pytest.raises(MaxLevelExceeded):
            integrate(f, ctx, 10**6)
        for level, value, bound in seen:
            true = _true_agreement(value, limit, p)
            if bound > true:
                yield f, level, bound, true


# each a wrapper of _certificate(valuations, value, level, ctx)
CERTIFICATE_MUTATIONS = {
    "mu_plus_1": lambda cert: lambda vals, value, level, ctx: cert(
        [v + 1 for v in vals], value, level, ctx),
    "nu_p_of_j_plus_1_dropped": lambda cert: lambda vals, value, level, ctx: cert(
        [v + int_valuation(j + 1, ctx.prime) for j, v in enumerate(vals)], value, level, ctx),
    "one_extra_digit_per_gap": lambda cert: lambda vals, value, level, ctx: cert(
        [v + level for v in vals], value, level, ctx),
    "exact_degree_at_every_level": lambda cert: lambda vals, value, level, ctx: value.prec,
    "degree_boundary_one_level_early": lambda cert: lambda vals, value, level, ctx: (
        value.prec if level >= len(vals) - 1 else cert(vals, value, level, ctx)),
}


@pytest.mark.parametrize("p", sorted(SOUNDNESS_SWEEPS))
def test_certificates_are_sound_at_every_level(p, monkeypatch):
    assert list(_certificate_violations(p, SOUNDNESS_SWEEPS[p], monkeypatch)) == []


@pytest.mark.parametrize("mutation", CERTIFICATE_MUTATIONS)
def test_soundness_gate_catches_certificate_mutations(mutation, monkeypatch):
    monkeypatch.setattr(integral, "_certificate",
                        CERTIFICATE_MUTATIONS[mutation](integral._certificate))
    violations = _certificate_violations(3, SOUNDNESS_INTEGRANDS, monkeypatch)
    assert next(violations, None) is not None, f"the soundness gate misses {mutation}"


# 311 integrands, 4,420 coefficients in u
VALUATION_SWEEP = (
    *(BracketPower(c, m) for c in (-2, -1, 0, 1, 2, 5) for m in range(25)),
    *(ReflectedPower(c, m) for c in (0, 1, 2) for m in range(25)),
    *(BernsteinProduct(((k, n, 1),)) for n in range(0, 25, 3) for k in range(0, n + 1, 2)),
    *(BernsteinProduct(((k, n, 2), (1, 3, 1)))
      for n in range(1, 11) for k in (0, 3, 6, 9) if k <= n),
)


@pytest.mark.parametrize("p, digits, spec", [
    (3, 24, "4"), (5, 24, "26"), (7, 24, "8"), (3, 3, "4"), (3, 4, "10"),
])
def test_coefficient_valuations_match_the_padic_expansion(p, digits, spec):
    # the ints modulo p^K give, bit for bit, the valuations of ``_expand``
    # taken in PadicNumbers (``_u_poly``), zeros included (137 and 17 of them at K = 3
    # and 4), where the padic zero's precision K is read
    base = QContext.padic(p, digits, spec)
    for ctx in (base, invert_q(base)):
        for f in VALUATION_SWEEP:
            scale, a, b, _, _ = _shape(f)
            shift = int_valuation(scale, p) - ctx.q_minus_one_valuation * (a + b)
            want = [shift + g._effective_valuation() for g in _u_poly(f, ctx)]
            assert _u_coefficient_valuations(f, ctx) == want, (ctx.rational, f)


def test_cap_miss_carries_best_certificate():
    # dividing by [p^N]_q costs N digits: with K = 6 level 2 proves 2 digits
    # and level 3 only 1, so the cap miss carries level 2
    ctx = QContext.padic(3, 6, "10")
    with pytest.raises(MaxLevelExceeded) as exc:
        integrate(BracketPower(0, 2), ctx, 30, level_cap=3)
    best = exc.value.result
    assert (best.level, best.stabilization_valuation, len(best.history)) == (2, 2, 2)
    q = Fraction(10)
    g = _u_coefficients(BracketPower(0, 2), q)
    limit = sum(c * (j + 1) / _geometric(q, j + 1) for j, c in enumerate(g))
    assert _true_agreement(best.value, limit, 3) == 2


def test_unsummable_level_ends_the_run():
    # with K = 6 and q = 10 at p = 3 the level-4 sum divides by [3^4]_q and
    # keeps no digit; the run ends there with what levels 1..3 proved
    ctx = QContext.padic(3, 6, "10")
    with pytest.raises(PrecisionExhausted):
        riemann_sum(BracketPower(0, 2), ctx, 4)
    with pytest.raises(MaxLevelExceeded) as capped:
        integrate(BracketPower(0, 2), ctx, 30, level_cap=3)
    with pytest.raises(MaxLevelExceeded) as cut:
        integrate(BracketPower(0, 2), ctx, 30, level_cap=4)
    assert cut.value.result == capped.value.result
    assert "before level 4" in str(cut.value)
    # at K = 3 already level 2 keeps no digit: level 1 is all there is
    with pytest.raises(MaxLevelExceeded) as cut:
        integrate(BracketPower(0, 2), QContext.padic(3, 3, "1+p"), 30, level_cap=4)
    assert (cut.value.result.level, cut.value.result.history) == (1, ())
    assert "before level 2" in str(cut.value)
    # at level 1 there is nothing to carry, so the error escapes
    with pytest.raises(PrecisionExhausted):
        integrate(BracketPower(0, 2), QContext.padic(3, 2, "1+p"), 30, level_cap=4)


# -- the restart-from-zero reference for the integrator ---------------------------
#
# ``integrate`` carries each level's running sums into the next and adds one
# diagonal to the Neville tableau per level.  These are the paths it
# replaces, kept as the reference: each level summed from x = 0 with two
# modular powers per term, and the whole tableau rebuilt after each level.


def _restart_sum(f, ctx, level):
    total = ctx.prime ** level  # the runs these tests make end by level 6
    pctx = ctx.pctx
    p, digits = pctx.prime, pctx.precision
    scale, a, b, c, reflected = _shape(f)
    e = ctx.q_minus_one_valuation if a + b else 0
    if 2 * e >= digits:
        raise PrecisionExhausted(
            f"division result would be certified only modulo p^{digits - 2 * e}")
    shift = int_valuation(scale, p)
    mod = p ** (digits + shift)
    u = ctx.q.unit
    if reflected:
        y, step = _int_bracket(c, pow(u, -1, mod), p, mod), -u
    else:
        y, step = _int_bracket(c, u, p, mod), 1
    weighted = weights = 0
    qx = 1
    for _ in range(total):
        weighted += qx * pow(y, a, mod) * pow(1 - y, b, mod)
        weights += qx
        qx = qx * u % mod
        y = (u * y + step) % mod
    return (PadicNumber(pctx, 0, scale * weighted, shift + digits - e)
            / PadicNumber(pctx, 0, weights, digits))


def _full_tableau(valuations, sums, ctx):
    one = ctx.one()
    q = ctx.q
    p = ctx.prime
    gaps = [one - q ** (p ** level) for level in range(1, len(sums) + 1)]
    column = list(sums)
    for width in range(1, len(sums)):
        column = [
            (gaps[i + width] * column[i] - gaps[i] * column[i + 1])
            / (gaps[i + width] - gaps[i])
            for i in range(len(column) - 1)
        ]
    value = column[0]
    if len(sums) >= len(valuations):
        return value, value.prec
    e = ctx.q_minus_one_valuation
    mu = min(v - int_valuation(j + 1, p) for j, v in enumerate(valuations))
    return value, min(value.prec, mu + sum(e + level for level in range(1, len(sums) + 1)))


def _reference_integrate(f, ctx, target, level_cap=None):
    valuations = _u_coefficient_valuations(f, ctx)
    sums, history = [], []
    stop = f"within level cap {level_cap}"
    for level in count(1) if level_cap is None else range(1, level_cap + 1):
        try:
            sums.append(_restart_sum(f, ctx, level))
        except (DivisionByZero, PrecisionExhausted) as exc:
            if level == 1:
                raise
            stop = f"before level {level} ({exc})"
            break
        if level > 1:
            history.append((sums[-1] - sums[-2])._effective_valuation())
        value, bound, kind = sums[-1], 0, "none"
        try:
            value, bound = _full_tableau(valuations, sums, ctx)
        except (DivisionByZero, PrecisionExhausted):
            pass
        else:
            kind = "exact-degree" if level >= len(valuations) else "a-priori-bound"
        res = RiemannResult(value.truncated(bound), level, bound if bound > 0 else -inf,
                            kind if bound > 0 else "none", tuple(history))
        if level == 1 or res.stabilization_valuation >= best.stabilization_valuation:
            best = res
        if best.stabilization_valuation >= target:
            return best
    raise MaxLevelExceeded(
        f"no certificate reaches valuation {target} {stop}; "
        f"best achieved valuation {best.stabilization_valuation}",
        result=best.replace(history=tuple(history)),
    )


def _run_outcome(run):
    """("done", result), ("missed", result, message), or the error that
    escaped level 1 as (its name, message)."""
    try:
        return "done", run()
    except MaxLevelExceeded as exc:
        return "missed", exc.result, str(exc)
    except (DivisionByZero, PrecisionExhausted) as exc:
        return type(exc).__name__, str(exc)


REFERENCE_INTEGRANDS = (
    BracketPower(0, 0), BracketPower(0, 2), BracketPower(2, 4), BracketPower(-2, 3),
    BracketPower(2, 6), ReflectedPower(1, 2), ReflectedPower(1, 5), ReflectedPower(-2, 3),
    BernsteinProduct(((1, 3, 2),)), BernsteinProduct(((1, 2, 1), (1, 3, 1))),
    BernsteinProduct(((0, 3, 2),)),
)


@pytest.mark.parametrize("p", sorted(KERNEL_QS))
def test_integrate_bit_identical_to_restart_reference(p):
    # the same RiemannResult (value, level, certificate, history), or the
    # same cap miss and its result, or the same escaping error; at K = 5 and
    # 6 levels stop forming sums or tableau entries partway through a run, and
    # at K = 2 level 1 keeps no digit
    seen = set()
    for digits in (2, 5, 6, 24):
        for spec in KERNEL_QS[p]:
            try:
                base = QContext.padic(p, digits, spec)
            except DomainError:
                continue  # q = 1 to K digits
            for ctx in (base, invert_q(base)):
                for f in REFERENCE_INTEGRANDS:
                    for target, cap in ((4, None), (8, None), (40, 4 if p < 7 else 3)):
                        got = _run_outcome(lambda: integrate(f, ctx, target, cap))
                        want = _run_outcome(lambda: _reference_integrate(f, ctx, target, cap))
                        assert got == want, (digits, spec, ctx.q, f, target)
                        seen.add(got[0] if got[0] != "missed" else
                                 "missed " + got[2].split()[5])
    assert seen == {"done", "missed within", "missed before", "PrecisionExhausted"}


# -- closed forms ----------------------------------------------------------------


def test_closed_bracket_power_base_cases(sym_table):
    assert closed_bracket_power(0, 0, SYM) == SYM.one()
    assert closed_bracket_power(1, 0, SYM) == rf((-1,), (1, 1))
    assert closed_bracket_power(2, 0, SYM) == rf((0, 1), (1, 2, 2, 1))
    # a negative power is refused on both backends, on padic both at an
    # integer x (the exact sum) and at a rational one (padic scalars)
    ctx = QContext.padic(3, 24)
    for c, x in ((SYM, 0), (ctx, 0), (ctx, Fraction(-1, 2))):
        with pytest.raises(DomainError):
            closed_bracket_power(-1, x, c)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("x", [0, 1, 2])
def test_closed_bracket_power_equals_beta_poly(sym_table, m, x):
    assert closed_bracket_power(m, x, SYM) == sym_table.beta_poly(m, x)


def test_closed_bracket_power_padic(padic_ctx3):
    tbl = table_for(padic_ctx3)
    for m, x in ((1, 0), (3, 2), (4, 1)):
        lhs = closed_bracket_power(m, x, padic_ctx3)
        assert scalars_equal(lhs, tbl.beta_poly(m, x), padic_ctx3)


def test_padic_closed_form_at_an_integer_x_is_the_exact_value():
    # at an integer x the padic closed form is the symbolic one read at the
    # rational q, so it keeps K unit digits: summed in padic scalars it kept
    # 13, 6, 2, -2 and -10 digits for n = 4, 8, 10, 12 and 16 at p = 5, q = 26
    from qbern.identities import verify

    ctx = QContext.padic(5, 24, "26")
    values = [closed_reflected_power(n, 0, ctx) for n in (4, 8, 10, 12, 16)]
    assert [v.prec for v in values] == [23, 23, 25, 23, 23]
    assert all(v.prec == v.valuation + 24 for v in values)
    for c in (ctx, invert_q(ctx), QContext.padic(3, 5), QContext.padic(7, 8)):
        for m in range(1, 9):
            for x in range(-3, 4):
                assert closed_bracket_power(m, x, c) == c.read(closed_bracket_power(m, x, SYM))
    # with its digits kept, the closed form is one the oracle can rule on
    report = verify("THM1", {"n": 12, "x": 0}, ctx)
    assert report.verdict.kind == "exact"
    assert report.notes.startswith("oracle supports the reflected closed form as printed "
                                   "(agreement 9 vs -1 for the sign-flipped reading)")


def test_padic_closed_form_past_the_exact_span_sums_padic_scalars(padic_ctx3):
    # past m |x| = 256 the exact value grows with x (q^(mx) has m x log2 q
    # bits), so the sum stays in padic scalars, as at a rational x
    assert integral._EXACT_SPAN == 256
    for m, x in ((2, 129), (3, -86), (2, Fraction(-1, 2))):
        u = _u_poly(BracketPower(x, m), padic_ctx3)
        want = integral._integrated(u, padic_ctx3.q, padic_ctx3.one(), m)
        assert closed_bracket_power(m, x, padic_ctx3) == want


def _running_product_closed_bracket_power(m, x, ctx):
    # closed_bracket_power as it was: q^(l+1) built as a running product, and
    # the exact sum over the coefficients at the indeterminate q evaluated at
    # the rational q
    def integrated(g, q, one):
        acc, qp = 0, q
        for l, c in enumerate(g):
            acc = acc + (l + 1) * c / (one - qp)
            qp = qp * q
        return acc / (one - q) ** (m - 1)

    if m == 0:
        return ctx.one()
    if ctx.is_symbolic or not isinstance(x, int) or m * abs(x) > integral._EXACT_SPAN:
        return integrated(_u_poly(BracketPower(x, m), ctx), ctx.q, ctx.one())
    q = ctx.rational
    g = [c.evaluate(q) for c in _u_poly(BracketPower(x, m), SYM)]
    return ctx.embed(integrated(g, q, 1))


def _closed_outcome(compute):
    # (v, unit, prec) of a padic value, the canonical (c, n, d) of a
    # rational function, or the class of the error
    try:
        s = compute()
    except QbernError as exc:
        return type(exc).__name__
    return (s._c, s._n, s._d) if isinstance(s, RationalFunction) else (s.v, s.unit, s.prec)


@pytest.mark.parametrize("m", range(9))
@pytest.mark.parametrize("x", [-3, 0, 2, 129, -86, Fraction(-1, 2), -1, 1, 20])
def test_padic_closed_bracket_power_matches_running_products(power_contexts, m, x):
    # the same value and precision, or the same exception class, on padic
    # and on symbolic, at q and at 1/q
    for ctx in (*power_contexts, SYM, invert_q(SYM)):
        assert (_closed_outcome(lambda: closed_bracket_power(m, x, ctx))
                == _closed_outcome(lambda: _running_product_closed_bracket_power(m, x, ctx))
                ), ctx.q


def test_closed_reflected_power_base(sym_table):
    assert closed_reflected_power(0, 0, SYM) == SYM.one()
    assert closed_reflected_power(1, 0, SYM) == rf((0, 1), (1, 1))    # q/(1+q)
    assert closed_reflected_power(1, 1, SYM) == rf((0, -1), (1, 1))   # -q/(1+q)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("x", [0, 1, 2])
def test_reflection_duality_symbolic(sym_table, n, x):
    # the reflected closed form equals (-1)^n q^n times the plain one
    lhs = closed_reflected_power(n, x, SYM)
    rhs = (-1) ** n * q_pow(n, SYM) * closed_bracket_power(n, x, SYM)
    assert lhs == rhs


def test_closed_reflected_matches_inverted_measure_oracle(padic_ctx3):
    # definitional check of the reflected closed form at x = 0, n = 2
    from qbern.qfield import invert_q

    ictx = invert_q(padic_ctx3)
    oracle = riemann_sum(BracketPower(1, 2), ictx, 8)
    assert agreement(oracle, closed_reflected_power(2, 0, padic_ctx3)) >= 8


def test_closed_one_minus_x(sym_table):
    expect = rf((3, 5, 4, 1), (1, 2, 2, 1))  # q^4/((q+1)(q^2+q+1)) + 3 - q
    assert closed_one_minus_x_power(2, SYM) == expect
    with pytest.raises(DomainError):
        closed_one_minus_x_power(1, SYM)


def test_closed_one_minus_x_against_oracle(padic_ctx3):
    # the value extrapolated from levels 1..3 agrees with the closed form
    # past the target
    res = integrate(ReflectedPower(1, 2), padic_ctx3, 9, level_cap=10)
    closed = closed_one_minus_x_power(2, padic_ctx3)
    assert res.level == 3
    assert agreement(res.value, closed) >= 10


# -- Bernstein integral routes ------------------------------------------------------


def bpi(factors, ctx=SYM, route="direct"):
    return bernstein_power_product_integral(factors, ctx, route)


def test_bernstein_integral_top_index(sym_table):
    for n in range(0, 7):
        assert bpi([(n, n, 1)]) == sym_table.beta(n)


@pytest.mark.parametrize("n,k", [(2, 0), (3, 0), (3, 1), (5, 2), (8, 5)])
def test_bernstein_integral_routes_agree(n, k):
    direct = bpi([(k, n, 1)], route="direct")
    reflected = bpi([(k, n, 1)], route="reflected")
    assert direct == reflected


def test_bernstein_integral_route_domain():
    with pytest.raises(DomainError):
        bpi([(2, 3, 1)], route="reflected")  # needs n > k + 1
    # k > n makes B_{k,n} the zero polynomial; EQ9_EQ11 skips it as out of domain
    assert bpi([(4, 3, 1)]).is_zero()
    with pytest.raises(DomainError):
        bpi([(1, 3, 1)], route="sideways")


def test_bernstein_integral_expansion_value(sym_table):
    # k=0, n=2: direct = sum_l C(2,l)(-1)^l beta_l
    expect = sym_table.beta(0) - 2 * sym_table.beta(1) + sym_table.beta(2)
    assert bpi([(0, 2, 1)], route="direct") == expect


def test_product_single_factor_reduces(sym_table):
    # B_{0,0} = 1, so a factor (0, 0, m) leaves the integral unchanged
    for route in ("direct", "reflected"):
        assert bpi([(1, 3, 1), (0, 0, 2)], route=route) == bpi([(1, 3, 1)], route=route)


@pytest.mark.parametrize("degrees,k", [((2, 3), 1), ((2, 2), 1), ((3, 4), 2), ((2, 2, 2), 1)])
def test_product_routes_agree(degrees, k):
    factors = [(k, n, 1) for n in degrees]
    assert bpi(factors, route="reflected") == bpi(factors, route="direct")


def test_product_domain_checks():
    # the integrand is c [x]_q^a (1 - [x]_q)^b whatever the lower indices
    mixed = [(1, 2, 1), (2, 3, 1)]
    assert bpi(mixed, route="reflected") == bpi(mixed, route="direct")
    with pytest.raises(DomainError):
        bpi([(1, 1, 1), (1, 1, 1)], route="reflected")  # b = 0, not > 1
    assert bpi([(2, 1, 1), (2, 5, 1)], route="direct").is_zero()


def test_power_product_reduces_to_product(sym_table):
    plain = bpi([(1, 2, 1), (1, 2, 1), (1, 3, 1)])
    powered = bpi([(1, 2, 2), (1, 3, 1)])
    assert plain == powered


@pytest.mark.parametrize(
    "factors",
    [
        [(1, 2, 2), (1, 2, 1)],
        [(1, 3, 2), (1, 2, 2)],
        [(0, 2, 1), (0, 3, 2)],
    ],
)
def test_power_product_routes_agree(factors):
    lhs = bpi(factors, route="reflected")
    rhs = bpi(factors, route="direct")
    assert lhs == rhs


def test_power_product_domain():
    with pytest.raises(DomainError):
        bpi([(1, 1, 1), (1, 1, 1)], route="reflected")


def test_product_oracle_padic(padic_ctx3):
    # two equal factors at p = 3 against the definitional evaluator
    factors = ((1, 2, 1), (1, 2, 1))
    closed = bpi(factors, padic_ctx3, "direct")
    s = riemann_sum(BernsteinProduct(factors), padic_ctx3, 8)
    assert agreement(s, closed) >= 8


def test_powered_product_oracle_padic(padic_ctx3):
    factors = ((1, 2, 2), (1, 2, 1))
    for route in ("reflected", "direct"):
        closed = bpi(factors, padic_ctx3, route)
        s = riemann_sum(BernsteinProduct(factors), padic_ctx3, 8)
        assert agreement(s, closed) >= 8


# -- the termwise reference for the route sums ---------------------------------------
#
# The route sums read the table's differences of the beta_k.  These are the
# termwise sums they replace, kept as the reference: equal canonical values
# on the symbolic backend, equal digits on the padic backend.


def _termwise_direct(a, b, tbl):
    acc = tbl.ctx.zero()
    for l in range(b + 1):
        term = comb(b, l) * tbl.beta(a + l)
        acc = acc + (term if l % 2 == 0 else -term)
    return acc


def _termwise_reflected(a, total, top, tbl):
    ctx, inverse = tbl.ctx, tbl.inverse_table()
    q2 = ctx.q ** 2
    acc = ctx.zero()
    for l in range(a + 1):
        inner = ctx.embed(total - l + 1) - ctx.q + q2 * inverse.beta(top - l)
        term = comb(a, l) * inner
        acc = acc + (term if (a + l) % 2 == 0 else -term)
    return acc


def _reflected_outcome(reflected, a, total, top, tbl):
    try:
        return reflected(a, total, top, tbl)
    except DomainError:
        return "DomainError"


@pytest.mark.parametrize("ctx", [SYM, invert_q(SYM)], ids=["q", "1/q"])
def test_beta_difference_equals_termwise_sum(ctx):
    # a fresh table, read in shuffled order, so that cells fill from partial
    # triangles as well as from an empty one
    tbl = CarlitzTable(ctx)
    cells = [(a, n - a) for n in range(21) for a in range(n + 1)]
    random.Random(20).shuffle(cells)
    for a, b in cells:
        assert tbl.beta_difference(a, b) == _termwise_direct(a, b, tbl), (a, b)
    assert _power_integral_direct(3, 4, tbl) == tbl.beta_difference(3, 4)
    with pytest.raises(DomainError):
        tbl.beta_difference(2, -1)


@pytest.mark.parametrize("ctx", [SYM, invert_q(SYM)], ids=["q", "1/q"])
def test_reflected_sum_equals_termwise_sum(ctx):
    # every total next to top covers THM6's literal index; a > top runs out
    # of inverted-q values on both sides
    tbl = table_for(ctx)
    for a in range(11):
        for top in range(21):
            for total in (top - 1, top, top + 1):
                got = _reflected_outcome(_reflected_sum, a, total, top, tbl)
                want = _reflected_outcome(_termwise_reflected, a, total, top, tbl)
                assert got == want, (a, total, top)


def _keeps_every_digit(got, want):
    # every certified digit of the reference, at no lower precision
    return got.prec >= want.prec and got.equals_to_precision(want, want.prec)


@pytest.mark.parametrize("p", sorted(KERNEL_QS))
def test_padic_route_sums_equal_termwise_digits(p):
    # the padic differences are exact at the rational q, embedded once: each
    # cell is the symbolic cell evaluated there, bit for bit, and both route
    # sums keep every digit the termwise sums certify
    at_q = table_for(SYM)
    for spec in KERNEL_QS[p]:
        base = QContext.padic(p, 24, spec)
        for ctx in (base, invert_q(base)):
            tbl = table_for(ctx)
            for n in range(13):
                for a in range(n + 1):
                    got = _power_integral_direct(a, n - a, tbl)
                    assert got == ctx.embed(at_q.beta_difference(a, n - a).evaluate(ctx.rational))
                    assert _keeps_every_digit(got, _termwise_direct(a, n - a, tbl)), (a, n)
                    for total in (n - 1, n, n + 1):
                        got = _reflected_sum(a, total, n, tbl)
                        want = _termwise_reflected(a, total, n, tbl)
                        assert _keeps_every_digit(got, want), (p, spec, a, total, n)


# -- serialization -------------------------------------------------------------------


def test_integrand_json_roundtrip():
    for data, f in (
        ({"type": "bracket_power", "offset": 2, "power": 3}, BracketPower(2, 3)),
        ({"type": "reflected_power", "offset": 1, "power": 5}, ReflectedPower(1, 5)),
        ({"type": "bernstein_product", "factors": [[1, 2, 1], [1, 3, 2]]},
         BernsteinProduct(((1, 2, 1), (1, 3, 2)))),
    ):
        assert integrand_from_json(data) == f
    for kind in ("nope", "custom_hash"):
        with pytest.raises(DomainError):
            integrand_from_json({"type": kind, "seed": 9})


def test_riemann_result_json(padic_ctx3):
    res = integrate(BracketPower(0, 1), padic_ctx3, 3)
    data = res.to_json()
    assert data["level"] == res.level
    assert isinstance(data["stabilization_valuation"], int)
    assert data["value"]["p"] == 3
