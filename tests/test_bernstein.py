"""Basis polynomials: endpoints, partition of unity, symmetry, degeneration."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qbern.bernstein import BernsteinSpec, bernstein_eval
from qbern.carlitz import eval_at_one
from qbern.errors import DomainError, NonIntegerExponentInSymbolicMode
from qbern.padic import PadicNumber
from qbern.qfield import (
    QContext,
    RationalFunction,
    invert_q,
    q_bracket,
    scalars_equal,
)

SYM = QContext.symbolic()


def test_spec_validation():
    with pytest.raises(DomainError):
        BernsteinSpec(3, 2)
    with pytest.raises(DomainError):
        BernsteinSpec(-1, 2)


def test_endpoint_zero():
    for n in range(0, 6):
        for k in range(n + 1):
            value = bernstein_eval(BernsteinSpec(k, n), 0, SYM)
            assert value == (SYM.one() if k == 0 else SYM.zero())


def test_endpoint_one():
    for n in range(0, 6):
        for k in range(n + 1):
            value = bernstein_eval(BernsteinSpec(k, n), 1, SYM)
            assert value == (SYM.one() if k == n else SYM.zero())


def test_two_term_expansion():
    # B_{1,2}(x) = 2 [x](1 - [x])
    for x in (2, 3, -1):
        bx = q_bracket(x, SYM)
        assert bernstein_eval(BernsteinSpec(1, 2), x, SYM) == 2 * bx * (SYM.one() - bx)


def _termwise_bernstein(spec, x, ctx):
    # the reference: the product of the backend's scalars, at q and at 1/q alike
    bx = q_bracket(x, ctx)
    return comb(spec.n, spec.k) * bx ** spec.k * (ctx.one() - bx) ** (spec.n - spec.k)


def test_matches_termwise_reference():
    cases = [(ctx, k, n, x) for ctx in (SYM, invert_q(SYM)) for n in range(13)
             for k in range(n + 1) for x in range(-3, 4)]
    random.Random(22).shuffle(cases)
    for ctx, k, n, x in cases:
        got = bernstein_eval(BernsteinSpec(k, n), x, ctx)
        want = _termwise_bernstein(BernsteinSpec(k, n), x, ctx)
        assert (got._c, got._n, got._d) == (want._c, want._n, want._d), (ctx.q, k, n, x)


def test_rational_x_rejected_symbolically():
    for ctx in (SYM, invert_q(SYM)):
        with pytest.raises(NonIntegerExponentInSymbolicMode):
            bernstein_eval(BernsteinSpec(1, 2), Fraction(1, 2), ctx)


@pytest.mark.parametrize("n", range(1, 11))
def test_partition_of_unity_symbolic(n):
    for x in range(0, n + 2):
        total = SYM.zero()
        for k in range(n + 1):
            total = total + bernstein_eval(BernsteinSpec(k, n), x, SYM)
        assert total == SYM.one()


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.fractions(max_denominator=50).filter(lambda f: f.denominator % 3 != 0),
)
def test_partition_of_unity_padic(n, x):
    ctx = QContext.padic(3, 24)
    total = ctx.zero()
    for k in range(n + 1):
        total = total + bernstein_eval(BernsteinSpec(k, n), x, ctx)
    assert scalars_equal(total, ctx.one(), ctx)


@pytest.mark.parametrize("n", range(0, 9))
def test_q_symmetry(n):
    # B_{k,n}(x, q) = B_{n-k,n}(1-x, 1/q)
    ictx = invert_q(SYM)
    for k in range(n + 1):
        for x in (0, 1, 2):
            lhs = bernstein_eval(BernsteinSpec(k, n), x, SYM)
            rhs = bernstein_eval(BernsteinSpec(n - k, n), 1 - x, ictx)
            assert lhs == rhs


def test_q_symmetry_padic_random_argument(padic_ctx5):
    ictx = invert_q(padic_ctx5)
    for x in (Fraction(2, 3), Fraction(-7, 11), Fraction(9, 4)):
        lhs = bernstein_eval(BernsteinSpec(2, 5), x, padic_ctx5)
        rhs = bernstein_eval(
            BernsteinSpec(3, 5),
            PadicNumber.from_fraction(1 - x, padic_ctx5.pctx),
            ictx,
        )
        assert scalars_equal(lhs, rhs, padic_ctx5)


def test_classical_degeneration():
    # at q = 1 the basis becomes C(n,k) x^k (1-x)^(n-k), integer x
    for n in range(0, 7):
        for k in range(n + 1):
            for x in (0, 1, 2, 3):
                value = bernstein_eval(BernsteinSpec(k, n), x, SYM)
                assert isinstance(value, RationalFunction)
                expect = Fraction(comb(n, k) * x**k * (1 - x) ** (n - k))
                assert eval_at_one(value) == expect


# -- the Bernstein operator sum_k f(k/n) B_{k,n}(x, q) -----------------------------


def operator(samples, n, x, ctx):
    # samples[k] plays f(k/n)
    acc = ctx.zero()
    for k, sample in enumerate(samples):
        acc = acc + sample * bernstein_eval(BernsteinSpec(k, n), x, ctx)
    return acc


def test_operator_partition():
    ones = [SYM.one()] * 6
    assert operator(ones, 5, 3, SYM) == SYM.one()


def test_operator_two_terms():
    a, b = SYM.embed(Fraction(2, 3)), SYM.embed(5)
    x = 2
    bx = q_bracket(x, SYM)
    expect = a * (SYM.one() - bx) + b * bx
    assert operator([a, b], 1, x, SYM) == expect


def test_operator_order_two_unrolled():
    # f(t) = t sampled at 0, 1/2, 1 is reproduced as [x]_q
    samples = [SYM.zero(), SYM.embed(Fraction(1, 2)), SYM.one()]
    x = 2
    assert operator(samples, 2, x, SYM) == q_bracket(x, SYM)


def test_operator_constant_padic(padic_ctx3):
    c = padic_ctx3.embed(Fraction(7, 5))
    got = operator([c] * 4, 3, Fraction(1, 2), padic_ctx3)
    assert scalars_equal(got, c, padic_ctx3)
