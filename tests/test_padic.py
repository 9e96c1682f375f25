"""Fixed-precision p-adic kernel: embeddings, arithmetic, precision rules."""

from fractions import Fraction
from math import inf, isinf

import pytest
from hypothesis import given, settings, strategies as st

from qbern.errors import (
    ContextMismatch,
    DivisionByZero,
    QbernError,
    RequestedPrecisionNotCertified,
)
from qbern.padic import PadicContext, PadicNumber, int_valuation

C34 = PadicContext(3, 4)
C324 = PadicContext(3, 24)


def fr(num, den=1, ctx=C324):
    return PadicNumber.from_fraction(Fraction(num, den), ctx)


# -- context validation ------------------------------------------------------


@pytest.mark.parametrize("p", [0, 1, 2, 4, 9, 15])
def test_rejects_non_odd_primes(p):
    with pytest.raises(ValueError):
        PadicContext(p, 4)


def test_rejects_nonpositive_precision():
    with pytest.raises(ValueError):
        PadicContext(3, 0)


# -- embeddings --------------------------------------------------------------


def test_embed_one_half():
    # extended-Euclid: 2 * 41 = 82 = 1 (mod 81), and 41 = 2 + 3 + 9 + 27
    x = PadicNumber.from_fraction(Fraction(1, 2), C34)
    assert x.valuation == 0
    assert x.unit_digits() == (2, 1, 1, 1)
    assert x.prec == 4


def test_embed_zero_is_exact():
    z = PadicNumber.from_fraction(0, C34)
    assert isinf(z.valuation)
    assert z.is_zero()
    assert isinf(z.prec)


def test_embed_nine_halves():
    # factor 3^2 out of 9, invert 2 modulo 3^K
    x = PadicNumber.from_fraction(Fraction(9, 2), C34)
    assert x.valuation == 2
    assert x.unit_digits() == (2, 1, 1, 1)


def test_embed_negative():
    x = fr(-1)
    assert (x + 1).is_zero()
    assert x.valuation == 0


@pytest.mark.parametrize("ctx", [C34, C324], ids=["K4", "K24"])
@pytest.mark.parametrize("n", [0, 1, -1, 2, 3, -9, 18, -5 * 3**4, 3**30, -(10**40)])
def test_embed_int_is_embed_of_its_fraction(ctx, n):
    assert PadicNumber.from_fraction(n, ctx) == PadicNumber.from_fraction(Fraction(n), ctx)


# -- arithmetic examples -----------------------------------------------------


def test_one_plus_p_minus_one():
    q = fr(4)
    d = q - fr(1)
    assert d.valuation == 1
    assert d.unit_digits()[0] == 1
    assert d.unit == 1


def test_valuation_multiplicative_example():
    assert (fr(3) * fr(6)).valuation == 2


def test_add_exact_zero_is_identity():
    x = fr(7, 5)
    assert (x + fr(0)) == x


def test_division_by_q_squared_minus_one():
    # 4^2 - 1 = 15 = 3 * 5
    q = fr(4)
    d = q * q - 1
    assert d.valuation == 1
    r = fr(1) / d
    assert r.valuation == -1


def test_division_identity():
    x = fr(22, 7)
    r = x / x
    assert r.valuation == 0
    assert r.unit_digits()[0] == 1
    assert r.equals_to_precision(fr(1), min(r.prec, 24))


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        fr(1) / fr(0)
    with pytest.raises(DivisionByZero):
        fr(1) / (fr(5) - fr(5))


def test_valuation_examples():
    assert fr(18).valuation == 2
    assert isinf(fr(0).valuation)
    assert (fr(4) - 1).valuation == 1


def test_context_mismatch():
    with pytest.raises(ContextMismatch):
        fr(1) + PadicNumber.from_fraction(1, PadicContext(5, 24))


# -- equals_to_precision ------------------------------------------------------


def test_equals_exact():
    a = fr(10, 3)
    assert a.equals_to_precision(fr(10, 3), a.prec)


def test_equals_constructed_difference():
    a = fr(1)
    b = fr(1 + 3**5)
    assert a.equals_to_precision(b, 5)
    assert not a.equals_to_precision(b, 6)


def test_equals_beyond_certification():
    a = fr(1, 2)
    with pytest.raises(RequestedPrecisionNotCertified):
        a.equals_to_precision(fr(1, 2), a.prec + 5)


# -- precision propagation ----------------------------------------------------


def test_add_min_precision():
    a = fr(1)            # prec 24
    b = fr(9, 2)         # v=2, prec 26
    assert (a + b).prec == 24


def test_mul_precision_rule():
    a = fr(3)            # v=1, prec 25
    b = fr(1, 9)         # v=-2, prec 22
    assert (a * b).prec == min(1 + 22, -2 + 25)


def test_div_loses_divisor_valuation():
    a = fr(1)
    b = fr(9)            # v=2
    r = a / b
    assert r.valuation == -2
    # relative precisions are both 24; absolute drops by 2 under the shared rule
    assert r.prec == -2 + 24


def test_truncated_never_gains():
    a = fr(5, 7)
    assert a.truncated(30) is a
    t = a.truncated(3)
    assert t.prec == 3
    assert t.unit_digits() == a.unit_digits()[:3]


# -- serialization ------------------------------------------------------------


def test_json_roundtrip():
    x = fr(-7, 45)
    data = x.to_json()
    assert data["p"] == 3
    assert data["valuation"] == x.valuation
    unit = sum(d * 3**i for i, d in enumerate(data["digits"]))
    y = PadicNumber(C324, data["valuation"], unit, data["precision"])
    assert x == y


def test_json_zero():
    z = fr(0)
    data = z.to_json()
    assert data["valuation"] == "inf"
    assert data["digits"] == []
    assert data["precision"] == "inf"


# -- randomized ring properties ----------------------------------------------

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
)


@st.composite
def padics(draw, ctx=C324):
    value = draw(rationals)
    scale = draw(st.integers(min_value=-3, max_value=5))
    return PadicNumber.from_fraction(value, ctx) * PadicNumber.from_fraction(
        Fraction(3) ** scale, ctx
    )


@settings(max_examples=60, deadline=None)
@given(padics(), padics())
def test_ultrametric(a, b):
    s = a + b
    va = a.valuation if not a.is_zero() else a.prec
    vb = b.valuation if not b.is_zero() else b.prec
    vs = s.valuation if not s.is_zero() else s.prec
    assert vs >= min(va, vb)
    if not a.is_zero() and not b.is_zero() and a.valuation != b.valuation:
        assert s.valuation == min(a.valuation, b.valuation)


@settings(max_examples=60, deadline=None)
@given(padics(), padics())
def test_valuation_multiplicative(a, b):
    prod = a * b
    if a.is_zero() or b.is_zero():
        assert prod.is_zero()
    else:
        assert prod.valuation == a.valuation + b.valuation


@settings(max_examples=60, deadline=None)
@given(padics(), padics(), padics())
def test_addition_order_bit_identical(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@settings(max_examples=60, deadline=None)
@given(padics(), padics(), padics())
def test_multiplication_bit_identical(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(padics(), padics(), padics())
def test_distributivity_to_shared_precision(a, b, c):
    lhs = a * (b + c)
    rhs = a * b + a * c
    t = min(lhs.prec, rhs.prec)
    assert lhs.equals_to_precision(rhs, t)


@settings(max_examples=40, deadline=None)
@given(rationals, st.integers(min_value=25, max_value=40))
def test_roundtrip_higher_precision_extends(value, K):
    lo = PadicNumber.from_fraction(value, C324)
    hi = PadicNumber.from_fraction(value, PadicContext(3, K))
    if lo.is_zero():
        assert hi.is_zero()
    else:
        shared = len(lo.unit_digits())
        assert hi.unit_digits()[:shared] == lo.unit_digits()


# -- powers --------------------------------------------------------------------


def _pow_by_products(x, e):
    # the reference: e - 1 products of the base, after 1/x when e < 0
    one = PadicNumber.from_fraction(1, x.ctx)
    if e == 0:
        return one
    if e < 0:
        x, e = one / x, -e
    acc = x
    for _ in range(e - 1):
        acc = acc * x
    return acc


def _outcome(f):
    try:
        return f()
    except QbernError as exc:
        return type(exc)


POW_BASES = {
    "unit": lambda ctx: PadicNumber.from_fraction(1 + ctx.prime, ctx),
    "unit-half": lambda ctx: PadicNumber.from_fraction(Fraction(-1, 2), ctx),
    "v2": lambda ctx: PadicNumber.from_fraction(2 * ctx.prime**2, ctx),
    "v-1": lambda ctx: PadicNumber.from_fraction(Fraction(1, ctx.prime), ctx),
    "v-3": lambda ctx: PadicNumber.from_fraction(Fraction(2, ctx.prime**3), ctx),
    "exact-zero": lambda ctx: PadicNumber.from_fraction(0, ctx),
    "zero-prec3": lambda ctx: PadicNumber.zero(ctx, 3),
    "zero-prec-2": lambda ctx: PadicNumber.zero(ctx, -2),
    "exact-2p": lambda ctx: PadicNumber(ctx, 1, 2, inf),
}


@pytest.mark.parametrize("p, K", [(3, 24), (5, 6), (7, 2)])
@pytest.mark.parametrize("base", POW_BASES)
@pytest.mark.parametrize("e", range(-3, 13))
def test_pow_is_repeated_multiplication(p, K, base, e):
    x = POW_BASES[base](PadicContext(p, K))
    assert _outcome(lambda: x**e) == _outcome(lambda: _pow_by_products(x, e))


# -- the lifting-the-exponent law ---------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("qfun", [lambda p: 1 + p, lambda p: 1 + p + p * p])
def test_lifting_the_exponent(p, qfun):
    ctx = PadicContext(p, 24)
    q = PadicNumber.from_fraction(qfun(p), ctx)
    e = (q - 1).valuation
    power = q
    for m in range(1, 51):
        assert (power - 1).valuation == e + int_valuation(m, p), m
        power = power * q


def test_int_valuation():
    assert int_valuation(18, 3) == 2
    assert int_valuation(0, 3) == inf
    assert int_valuation(5, 3) == 0
