"""Rational-function backend, brackets, q-powers, context inversion."""

import random
from fractions import Fraction
from math import ceil, gcd, inf

import pytest
from hypothesis import example, given, settings, strategies as st

from qbern.errors import (
    DivisionByZero,
    DomainError,
    NonIntegerExponentInSymbolicMode,
    QbernError,
)
from qbern import qfield
from qbern.padic import PadicContext, PadicNumber
from qbern.qfield import (
    QContext,
    RationalFunction,
    invert_q,
    q_bracket,
    q_pow,
    scalars_equal,
)
from qbern.qfield import _int_primitive

RF = RationalFunction
SYM = QContext.symbolic()
Q = RF.indeterminate()


def rf(num, den=(1,)):
    return RF(tuple(Fraction(c) for c in num), tuple(Fraction(c) for c in den))


# -- canonical forms ----------------------------------------------------------


def test_gcd_cancellation():
    assert rf((-1, 0, 1), (-1, 1)) == rf((1, 1))  # (q^2-1)/(q-1) = q+1


def test_monic_denominator():
    x = rf((2,), (0, 2))  # 2/(2q) = 1/q
    assert x.den == (Fraction(1, 1) * 0, Fraction(1)) or x.den == (Fraction(0), Fraction(1))
    assert x == rf((1,), (0, 1))


def test_zero_canonical():
    z = rf((0,))
    assert z.is_zero()
    assert z.den == (Fraction(1),)
    assert rf((1, -1)) - rf((1, -1)) == z


def test_zero_denominator_rejected():
    with pytest.raises(DivisionByZero):
        rf((1,), (0,))


def test_route_invariance():
    # 1/(1+q) + 1/(1-q) built two ways
    a = rf((1,), (1, 1))
    b = rf((1,), (1, -1))
    direct = a + b
    combined = rf((2,), (1, 0, -1))
    assert direct == combined
    # product route: 2/(1-q^2)
    assert rf((2,)) / rf((1, 0, -1)) == direct


def test_pow_negative():
    x = rf((0, 1))  # q
    assert x ** -2 == rf((1,), (0, 0, 1))
    with pytest.raises(DivisionByZero):
        rf((0,)) ** -1


def test_reciprocal_substitution():
    # f(q) = 1 + q  ->  f(1/q) = (q+1)/q
    assert rf((1, 1)).substitute_reciprocal() == rf((1, 1), (0, 1))
    f = rf((1, 2, 3), (0, 0, 1))
    g = f.substitute_reciprocal().substitute_reciprocal()
    assert g == f


def test_evaluate_and_pole():
    f = rf((0, 1), (1, 1))  # q/(1+q)
    assert f.evaluate(Fraction(4)) == Fraction(4, 5)
    with pytest.raises(DivisionByZero):
        rf((1,), (1, -1)).evaluate(1)


def test_render_and_json():
    f = rf((-1,), (1, 1))
    assert f.render() == "(-1)/(1 + q)"
    data = f.to_json()
    assert data == {"num": ["-1"], "den": ["1", "1"]}
    assert rf(data["num"], data["den"]) == f
    g = rf((1, 0, Fraction(3, 2)))
    assert g.to_json() == {"num": ["1", "0", "3/2"], "den": ["1"]}


def _fmt_poly_loop(a):
    # the reference: the terms joined by repeated string concatenation
    parts = []
    for i, c in enumerate(a):
        if c == "0":
            continue
        if i == 0:
            term = c
        else:
            mon = "q" if i == 1 else f"q^{i}"
            if c == "1":
                term = mon
            elif c == "-1":
                term = f"-{mon}"
            else:
                term = f"{c}*{mon}"
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


coefficient_strings = st.lists(st.one_of(
    st.sampled_from(["0", "1", "-1"]),
    st.fractions(min_value=-50, max_value=50, max_denominator=20).map(str),
), max_size=40)


@settings(max_examples=300, deadline=None)
@given(coefficient_strings)
@example([])
@example(["0", "0"])
@example(["-1", "-1", "1", "0", "-3/2"])
def test_fmt_poly_matches_the_loop(a):
    assert qfield._fmt_poly(a) == _fmt_poly_loop(a)


coeffs = st.lists(
    st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20),
    min_size=0, max_size=5,
)


@st.composite
def rationals_of_q(draw):
    num = tuple(draw(coeffs))
    den = tuple(draw(coeffs))
    if not any(den):
        den = (Fraction(1),)
    return RF(num, den)


@settings(max_examples=50, deadline=None)
@given(rationals_of_q(), rationals_of_q(), rationals_of_q())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=50, deadline=None)
@given(rationals_of_q())
def test_add_neg_cancels(a):
    assert (a + (-a)).is_zero()
    if not a.is_zero():
        assert a / a == rf((1,))


def _fraction_horner_evaluate(f, x):
    # the reference: Horner's rule over Fraction on the stored form
    def peval(a):
        acc = Fraction(0)
        for c in reversed(a):
            acc = acc * x + c
        return acc

    dv = peval(f._d)
    if dv == 0:
        raise DivisionByZero(f"denominator vanishes at q = {x}")
    return Fraction(*f._c) * peval(f._n) / dv


eval_points = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2)]),
    st.integers(-40, 40).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=30),
)


@settings(max_examples=200, deadline=None)
@given(rationals_of_q(), rationals_of_q(), eval_points, st.booleans())
@example(rf((1, 1)), rf((1,)), Fraction(-1, 2), True)
@example(rf((0, 3), (2, 0, 1)), rf((1,)), Fraction(0), True)
@example(rf((2, 1), (1, 1, 1)), rf((5,)), Fraction(1), True)
def test_evaluate_matches_fraction_horner(a, b, x, pole):
    f = a * b  # degrees up to 8 on either side
    if pole:  # x a root of the denominator, unless the numerator cancels it
        f = f / RF((-x.numerator, x.denominator))
    try:
        want = _fraction_horner_evaluate(f, x)
    except DivisionByZero:
        with pytest.raises(DivisionByZero):
            f.evaluate(x)
    else:
        got = f.evaluate(x)
        assert type(got) is Fraction and got == want
        assert f.value_at(x) == (want.numerator, want.denominator)


# -- brackets ------------------------------------------------------------------


def _bracket_loop(x, ctx):
    # the reference: 1 + q + ... + q^(x-1) summed term by term, x >= 0
    acc, term = ctx.zero(), ctx.one()
    for _ in range(x):
        acc = acc + term
        term = term * ctx.q
    return acc


def test_bracket_examples():
    assert q_bracket(0, SYM).is_zero()
    assert q_bracket(3, SYM) == rf((1, 1, 1))
    assert q_bracket(-1, SYM) == rf((-1,), (0, 1))


def test_bracket_geometric_fallback_consistent():
    # the closed formula (1-q^x)/(1-q) is the geometric sum's canonical value,
    # at q and at 1/q
    for ctx in (SYM, invert_q(SYM)):
        for x in (*range(40), 100, 256):
            got, want = q_bracket(x, ctx), _bracket_loop(x, ctx)
            assert (got._c, got._n, got._d) == (want._c, want._n, want._d), x


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=-10, max_value=10), st.integers(min_value=-10, max_value=10))
def test_bracket_addition_law_symbolic(x, y):
    lhs = q_bracket(x + y, SYM)
    rhs = q_bracket(x, SYM) + q_pow(x, SYM) * q_bracket(y, SYM)
    assert lhs == rhs


def test_bracket_addition_law_padic(padic_ctx3):
    for x, y in ((Fraction(1, 2), Fraction(1, 5)), (3, Fraction(-7, 4)), (2, 9)):
        lhs = q_bracket(Fraction(x) + Fraction(y), padic_ctx3)
        rhs = q_bracket(x, padic_ctx3) + q_pow(x, padic_ctx3) * q_bracket(y, padic_ctx3)
        assert scalars_equal(lhs, rhs, padic_ctx3)


def _padic_key(a):
    return a.v, a.unit, a.prec


# a few primes, q with nu(q - 1) = 1 and 2 (q = 26 at p = 5), low and full K,
# and inverted contexts
_BRACKET_CONTEXTS = {
    "p3-1+p-K24": QContext.padic(3, 24),
    "p3-1/4-K5": QContext.padic(3, 5, "1/4"),
    "p5-26-K24": QContext.padic(5, 24, "26"),
    "p5-26-K3-inverted": invert_q(QContext.padic(5, 3, "26")),
    "p7-1+p-K2-inverted": invert_q(QContext.padic(7, 2)),
    "p11-1+p-K8": QContext.padic(11, 8),
}
_BRACKET_OTHER_X = [*range(-300, 0), 257, 1000, 10**9 + 7, -10**9]


@pytest.mark.parametrize("name", _BRACKET_CONTEXTS)
def test_padic_integer_bracket_is_the_loop(name):
    ctx = _BRACKET_CONTEXTS[name]
    for x in range(257):
        assert _padic_key(q_bracket(x, ctx)) == _padic_key(_bracket_loop(x, ctx)), x


@pytest.mark.parametrize("name", _BRACKET_CONTEXTS)
def test_padic_integer_bracket_keeps_k_digits(name):
    # the formula (1 - q^x)/(1 - q) loses nu(q - 1) digits to its division;
    # the integer bracket keeps all K and agrees with every digit it certifies
    ctx = _BRACKET_CONTEXTS[name]
    one = ctx.one()
    for x in _BRACKET_OTHER_X:
        got = q_bracket(x, ctx)
        formula = (one - q_pow(x, ctx)) / (one - ctx.q)
        assert got.prec == ctx.pctx.precision, x
        assert got.equals_to_precision(formula, formula.prec), x


def test_bracket_at_zero_is_exact_zero():
    for ctx in (SYM, *_BRACKET_CONTEXTS.values()):
        assert q_bracket(0, ctx) == ctx.zero()
    assert all(q_bracket(0, ctx).prec == inf for ctx in _BRACKET_CONTEXTS.values())


# -- q powers -------------------------------------------------------------------


def test_q_pow_int():
    assert q_pow(0, SYM) == rf((1,))
    assert q_pow(-1, SYM) == rf((1,), (0, 1))


def test_q_pow_symbolic_rejects_fractions():
    with pytest.raises(NonIntegerExponentInSymbolicMode):
        q_pow(Fraction(1, 2), SYM)


def test_q_pow_series_square_root(padic_ctx3):
    h = q_pow(Fraction(1, 2), padic_ctx3)
    sq = h * h
    assert scalars_equal(sq, padic_ctx3.q, padic_ctx3)


def test_q_pow_series_matches_int_powers(padic_ctx3):
    from qbern.qfield import _binomial_series_q_pow

    for x in (-3, -1, 0, 2, 7):
        direct = q_pow(x, padic_ctx3)
        series = _binomial_series_q_pow(
            PadicNumber.from_fraction(x, padic_ctx3.pctx), padic_ctx3
        )
        assert scalars_equal(direct, series, padic_ctx3)


def _running_product_q_pow(x, ctx):
    # the binomial series with (q - 1)^k built as a running product
    x = PadicNumber.from_fraction(x, ctx.pctx)
    if x.valuation < 0:
        raise DomainError("p-adic exponents must lie in Z_p")
    one = ctx.one()
    acc = binom = qm1_pow = one
    qm1 = ctx.q - 1
    for k in range(1, ceil(ctx.pctx.precision / ctx.q_minus_one_valuation)):
        binom = binom * (x - (k - 1)) / k
        qm1_pow = qm1_pow * qm1
        acc = acc + binom * qm1_pow
    return acc


def _padic_outcome(compute):
    try:
        value = compute()
    except QbernError as exc:
        return type(exc)
    return (value.v, value.unit, value.prec)


@pytest.mark.parametrize("x", [Fraction(-1, 2), Fraction(1, 3), Fraction(5, 4),
                               Fraction(-9, 8), Fraction(2, 7)])
def test_q_pow_series_matches_running_products(power_contexts, x):
    # the same (v, unit, prec), or the same exception class
    for ctx in power_contexts:
        assert (_padic_outcome(lambda: q_pow(x, ctx))
                == _padic_outcome(lambda: _running_product_q_pow(x, ctx))), ctx.q


def test_q_pow_rejects_outside_zp(padic_ctx3):
    with pytest.raises(DomainError):
        q_pow(Fraction(1, 3), padic_ctx3)


def test_q_pow_is_unit(padic_ctx3):
    assert q_pow(Fraction(4, 5), padic_ctx3).valuation == 0


# -- reflected bracket -----------------------------------------------------------


def reflected(x, n, ctx):
    # [1-x]_{1/q}^n = (1 - [x]_q)^n
    return (ctx.one() - q_bracket(x, ctx)) ** n


def test_reflected_examples():
    assert reflected(0, 5, SYM) == rf((1,))
    assert reflected(1, 3, SYM).is_zero()
    assert reflected(1, 0, SYM) == rf((1,))


@pytest.mark.parametrize("x", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_reflected_equals_shifted_bracket(x, n):
    # [1-x]_{1/q}^n = (-1)^n q^n [x-1]_q^n
    lhs = reflected(x, n, SYM)
    rhs = (-1) ** n * q_pow(n, SYM) * q_bracket(x - 1, SYM) ** n
    assert lhs == rhs


def test_reflected_padic(padic_ctx3):
    x = Fraction(2, 7)
    n = 3
    lhs = reflected(x, n, padic_ctx3)
    rhs = (-1) ** n * q_pow(n, padic_ctx3) * q_bracket(Fraction(x - 1), padic_ctx3) ** n
    assert scalars_equal(lhs, rhs, padic_ctx3)


# -- context inversion -------------------------------------------------------------


def test_invert_q_symbolic():
    ictx = invert_q(SYM)
    assert q_bracket(2, ictx) == rf((1, 1), (0, 1))  # [2]_{1/q} = (q+1)/q
    assert invert_q(ictx).q == SYM.q


def test_invert_q_padic(padic_ctx3):
    ictx = invert_q(padic_ctx3)
    assert (ictx.q - 1).valuation == 1
    assert ictx.rational == Fraction(1, 4)
    assert ictx.q == PadicNumber.from_fraction(Fraction(1, 4), padic_ctx3.pctx)
    assert invert_q(ictx) == padic_ctx3


def test_context_validation():
    with pytest.raises(DomainError):
        QContext.padic(3, 24, "1/2")  # nu(q - 1) = 0
    with pytest.raises(DomainError):
        QContext.padic(3, 24, 3)      # q not a unit
    with pytest.raises(DomainError):
        QContext.padic(3, 24, 1)      # q = 1
    with pytest.raises(DomainError):
        QContext("symbolic", RF.from_fraction(1))
    # a symbolic q is the indeterminate or its reciprocal, nothing else
    q = RF.indeterminate()
    for other in (2 * q, q + 1, q ** 2):
        with pytest.raises(DomainError):
            QContext("symbolic", other)
    # a padic q is the embedding of its rational, with K = 8 unit digits,
    # and enters QContext.padic only as a rational
    pctx = PadicContext(3, 8)
    four = Fraction(4)
    assert QContext("padic", PadicNumber(pctx, 0, 4, 8), pctx, four).q.prec == 8
    with pytest.raises(DomainError):
        QContext("padic", PadicNumber(pctx, 0, 4, 8), pctx)  # no rational
    for q in (PadicNumber(pctx, 0, 4, 5), PadicNumber(pctx, 0, 4, 12),
              PadicNumber(pctx, 0, 7, 8), Q):
        with pytest.raises(DomainError):
            QContext("padic", q, pctx, four)
    with pytest.raises(DomainError):
        QContext("symbolic", Q, rational=four)
    with pytest.raises(DomainError):
        QContext.padic(3, 8, PadicNumber(pctx, 0, 4, 8))


def test_backend_coherence(padic_contexts):
    # a symbolic expression specialized at q = 1+p matches the padic value
    expr = (q_bracket(5, SYM) ** 2 - reflected(2, 3, SYM)) / (SYM.q ** 2 + 1)
    for p, ctx in padic_contexts.items():
        want = PadicNumber.from_fraction(expr.evaluate(1 + p), ctx.pctx)
        got = (q_bracket(5, ctx) ** 2 - reflected(2, 3, ctx)) / (ctx.q ** 2 + 1)
        assert scalars_equal(got, want, ctx)


# operands outside the two scalar classes, int and Fraction
_FOREIGN = [
    lambda p, r: r + p,
    lambda p, r: p + r,
    lambda p, r: p + "x",
    lambda p, r: "x" + p,
    lambda p, r: r * 0.5,
    lambda p, r: p.equals_to_precision(r, 1),
]


@pytest.mark.parametrize("combine", _FOREIGN, ids=[
    "rf+padic", "padic+rf", "padic+str", "str+padic", "rf*float", "equals_to_precision"])
def test_foreign_operand_raises_type_error(combine, padic_ctx3):
    with pytest.raises(TypeError):
        combine(padic_ctx3.q, Q)


def test_q_congruent_to_one_is_named():
    # q = 10 is 1 mod 3^2 without being 1
    with pytest.raises(DomainError, match="vanishes to the working precision"):
        QContext.padic(3, 2, 10)
    with pytest.raises(DomainError, match="q = 1 is not an admissible"):
        QContext.padic(3, 2, 1)
    assert QContext.padic(3, 3, 10).q_minus_one_valuation == 2


def test_zero_denominator_q_literal():
    with pytest.raises(DomainError, match="zero denominator"):
        QContext.padic(3, 24, "1/0")


# -- integer Z[q] kernels -------------------------------------------------------


def _schoolbook(x, y):
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    while out and not out[-1]:
        out.pop()
    return out


def _fr(x):
    return tuple(Fraction(c) for c in x)


def _prim(a):
    # the primitive int list, positive leading coefficient, of a nonzero a over Q
    return _int_primitive(qfield._clear_denominators(a)[0])


# The independent gcd reference: a primitive pseudo-remainder sequence, with
# exact division in Z[q] for the cofactors.


def _zexquo(x, y):
    # The quotient x / y in Z[q]; ArithmeticError unless y divides x there.
    # Long division over Q is unique, so a step that leaves a remainder
    # modulo lc(y) shows that the quotient is not in Z[q].
    r = list(x)
    dy = len(y) - 1
    q = [0] * max(len(r) - dy, 0)
    for d in reversed(range(len(q))):
        c, rem = divmod(r[d + dy], y[-1])
        if rem:
            raise ArithmeticError("polynomial division was expected to be exact")
        if c:
            q[d] = c
            for i in range(dy):
                r[d + i] -= c * y[i]
    if any(r[:dy]):
        raise ArithmeticError("polynomial division was expected to be exact")
    return q


def _int_prem(a, b):
    # Pseudo-remainder over Z (Collins); scaling skipped for monic divisors.
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) - 1 >= db:
        lr = r[-1]
        d = len(r) - 1 - db
        if lb != 1:
            r = [lb * c for c in r]
        for i in range(db + 1):
            r[d + i] -= lr * b[i]
        while r and not r[-1]:
            r.pop()
        if not r:
            break
    return r


def _prs_gcd(x, y):
    # gcd of primitive x, y in Z[q] by a primitive pseudo-remainder sequence
    if len(x) < len(y):
        x, y = y, x
    while len(y) > 1:
        r = _int_prem(x, y)
        if not r:
            return y
        x, y = y, _int_primitive(r)
    # the sequence bottomed out at a nonzero constant: coprime
    return [1]


def _check_gcd(x, y, found):
    # found = (h, x/h, y/h): the PRS gcd, with cofactors that multiply back
    h, cx, cy = found
    assert list(h) == _prs_gcd(x, y)
    assert qfield._zmul(h, cx) == list(x) and qfield._zmul(h, cy) == list(y)


big_ints = st.one_of(st.integers(-3, 3), st.integers(-2 ** 220, 2 ** 220))
int_polys = st.lists(big_ints, min_size=1, max_size=60)


@settings(max_examples=120, deadline=None)
@given(int_polys, int_polys)
def test_kronecker_product_matches_schoolbook(x, y):
    # zeros inside and at either end, length 1, coefficients past 2^200
    assert qfield._zmul(x, y) == _schoolbook(x, y)


def test_kronecker_product_edges():
    assert qfield._zmul([0, 0, 5], [0, -1]) == [0, 0, 0, -5]
    assert qfield._zmul([2 ** 300], [-(2 ** 300)]) == [-(2 ** 600)]
    assert qfield._zmul([1, -1], [1, 1]) == [1, 0, -1]
    assert qfield._zmul([], [1]) == []


def _pack_loop(x, b):
    # the reference: one shift per coefficient
    acc = 0
    for c in reversed(x):
        acc = (acc << b) + c
    return acc


def _unpack_loop(n, b):
    # the reference: one symmetric 2^b-adic digit per step
    out = []
    while n:
        d = n & ((1 << b) - 1)
        n >>= b
        if d >= 1 << (b - 1):
            d -= 1 << b
            n += 1
        out.append(d)
    return out


@st.composite
def packed_lists(draw):
    # signed lists of up to 5,000 coefficients, some with zero runs and
    # trailing zeros, with coefficients inside the digit range at b or past it
    b = draw(st.sampled_from([2, 3, 8, 17, 64, 130]))
    size = draw(st.sampled_from([0, 1, 63, 64, 65, 66, 129, 1000, 5000]))
    seed = draw(st.integers(0, 2 ** 32))
    wide = draw(st.booleans())
    rng = random.Random(seed)
    top = 1 << (3 * b if wide else b - 1)
    x = [rng.randrange(-top, top) if rng.random() < 0.8 else 0 for _ in range(size)]
    return x + [0] * draw(st.integers(0, 3)), b


@settings(max_examples=60, deadline=None)
@given(packed_lists())
def test_halved_pack_matches_the_loop(case):
    x, b = case
    v = qfield._pack(x, b)
    assert v == _pack_loop(x, b)
    assert qfield._unpack(v, b) == _unpack_loop(v, b)
    if all(-(1 << (b - 1)) <= c < 1 << (b - 1) for c in x):  # the digits read back
        assert qfield._unpack(v, b) == list(qfield._strip(x))


# -- units of Q[q, 1/q] ---------------------------------------------------------
#
# A product with a unit c q^s scales c and shifts the lists; it must give the
# very (c, n, d) the general product gives, which cancels by two gcds.


def _general_mul(a, b):
    # the reference: cancel n1 against d2 and n2 against d1, then multiply
    if a.is_zero() or b.is_zero():
        return RF.from_fraction(0)
    _, n1, d2 = qfield._zgcd(a._n, b._d)
    _, n2, d1 = qfield._zgcd(b._n, a._d)
    c = Fraction(*a._c) * Fraction(*b._c)
    return qfield._rf((c.numerator, c.denominator), qfield._zmul(n1, n2), qfield._zmul(d1, d2))


def _parts(f):
    # the stored form, whose content is a reduced int pair
    a, b = f._c
    assert type(a) is int and type(b) is int and b > 0 and gcd(a, b) == 1
    return f._c, f._n, f._d


small_ints = st.lists(st.integers(-9, 9), max_size=6)


@st.composite
def canonical_values(draw):
    # built from random int lists, each side times a power of q, as the
    # denominators at a negative x carry
    num = [0] * draw(st.integers(0, 4)) + draw(small_ints)
    den = [0] * draw(st.integers(0, 8)) + draw(small_ints.filter(any))
    return RF(num, den)


def _unit(c, s):
    # c q^s, by the constructor
    return RF([0] * s + [c]) if s >= 0 else RF([c], [0] * -s + [1])


units = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-10 ** 30, 10 ** 30),
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.builds(_unit,
              st.one_of(st.just(Fraction(1)), st.fractions(max_denominator=12).filter(bool)),
              st.integers(-6, 6)),
)


def _as_rf(u):
    return u if isinstance(u, RF) else RF.from_fraction(u)


@settings(max_examples=300, deadline=None)
@given(canonical_values(), units)
@example(RF([1], [0, 0, 1, 1]), _unit(1, 3))         # cancels q^2 of the denominator
@example(RF([0, 0, 0, 2, 1], [1, 1]), _unit(1, -6))  # cancels q^3 of the numerator
@example(RF([0, 1], [5]), _unit(Fraction(-3, 7), -1))
def test_unit_products_are_the_general_products(f, u):
    ru = _as_rf(u)
    want = _general_mul(f, ru)
    assert _parts(f * u) == _parts(want)
    assert _parts(u * f) == _parts(want)
    if not ru.is_zero():
        assert _parts(f / u) == _parts(_general_mul(f, ru.reciprocal()))
    if isinstance(u, RF) and not f.is_zero():
        assert _parts(u / f) == _parts(_general_mul(ru, f.reciprocal()))


@settings(max_examples=150, deadline=None)
@given(canonical_values(), units.filter(bool), st.integers(-6, 6))
def test_equal_values_by_other_routes_hash_equal(f, u, s):
    g = f * u * Q ** s
    routes = (
        RF(g.num, g.den),                                      # the constructor
        _general_mul(_general_mul(f, _as_rf(u)), _unit(1, s)),  # two gcds each
        (f * Q ** s) / _as_rf(u).reciprocal(),                  # other unit arithmetic
        g.substitute_reciprocal().substitute_reciprocal(),
        f.substitute_reciprocal().substitute_reciprocal() * u * Q ** s,
    )
    for route in routes:
        assert route == g and hash(route) == hash(g)
        assert _parts(route) == _parts(g)


small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=8).filter(any)


def _nonconstant(draw, strategy):
    x = draw(strategy)
    while len(x) > 1 and not x[-1]:
        x.pop()
    return x if len(x) > 1 else x + [1]


@st.composite
def planted_pairs(draw):
    # a = c_a g u, b = c_b g v with a non-monic primitive g such as 2q + 1
    g = draw(st.sampled_from([[1, 2], [3, 0, 2], [-1, 1], [1, 1, 1], [5, -3, 0, 4]]))
    g = _schoolbook(g, _nonconstant(draw, small_polys)) if draw(st.booleans()) else g
    u = draw(small_polys)
    v = draw(small_polys)
    ca = draw(st.fractions(min_value=-30, max_value=30, max_denominator=12).filter(bool))
    cb = draw(st.integers(1, 36))
    return (tuple(ca * c for c in _fr(_schoolbook(g, u))),
            tuple(cb * c for c in _fr(_schoolbook(g, v))), _fr(g))


@settings(max_examples=150, deadline=None)
@given(planted_pairs())
def test_gcd_matches_prs_on_planted_factors(planted):
    a, b, g = planted
    x, y = _prim(a), _prim(b)
    found = qfield._zgcd(x, y)
    _check_gcd(x, y, found)
    h = found[0]
    assert h[-1] > 0 and _int_primitive(h) == list(h)
    _zexquo(h, _prim(g))  # the planted factor divides the gcd ...
    _zexquo(x, h)         # ... which divides both; each raises otherwise
    _zexquo(y, h)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_heuristic_gcd_is_the_prs_gcd(data):
    x = _prim(_fr(_nonconstant(data.draw, int_polys)))
    y = _prim(_fr(_nonconstant(data.draw, small_polys)))
    found = qfield._heugcd(x, y)
    assert found is not None
    _check_gcd(x, y, found)


def test_gcd_coprime_and_content():
    assert qfield._zgcd([-1, 1], [1, 1]) == ([1], [-1, 1], [1, 1])  # q - 1, q + 1
    assert qfield._zgcd(_prim(_fr([6, 12])), _prim(_fr([4, 8, 0, 0])))[0] == [1, 2]
    a = _schoolbook([6, 0, 4], [1, -3])   # 2(3 + 2q^2)(1 - 3q)
    b = _schoolbook([9, 0, 6], [7, 1, 1])  # 3(3 + 2q^2)(7 + q + q^2)
    assert qfield._zgcd(_prim(_fr(a)), _prim(_fr(b))) == ([3, 0, 2], [-1, 3], [7, 1, 1])
    # over Q the gcd is monic and the contents land in c
    f = rf(a, b)
    assert f == rf((2, -6), (21, 3, 3))
    assert (f._c, f._n, f._d) == ((-2, 3), (-1, 3), (7, 1, 1))


def test_heuristic_starts_at_the_certified_bound(monkeypatch):
    # the first evaluation point xi = 2^b must satisfy xi >= 2 min(|x|, |y|) + 2
    seen = []
    pack = qfield._pack
    monkeypatch.setattr(qfield, "_pack", lambda x, b: seen.append(b) or pack(x, b))
    for x, y in (([1, 1], [-1, 0, 1]), ([3, 2 ** 70, 1], [5, -7, 1]), ([-4, 0, 9], [2, 0, 3])):
        seen.clear()
        qfield._heugcd(x, y)
        assert 2 ** seen[0] >= 2 * min(max(map(abs, x)), max(map(abs, y))) + 2


def test_heuristic_retries_until_certified(monkeypatch):
    # 2q^3 - q^2 and q^4 + 2q^3 - 3q^2 + 2q share only q, and the cofactor
    # check fails at xi = 2^3 and 2^5: three points
    calls = []
    pack = qfield._pack
    monkeypatch.setattr(qfield, "_pack", lambda a, b: calls.append((a, b)) or pack(a, b))
    x, y = [0, 0, -1, 2], [0, 2, -3, 2, 1]
    found = qfield._zgcd(x, y)
    # each point packs x once; the check's products pack other lists
    assert [b for a, b in calls if a == x] == [3, 5, 8]
    assert found == ([0, 1], [0, -1, 2], [2, -3, 2, 1])
    _check_gcd(x, y, found)


def test_common_factor_cancels_back_to_beta(sym_table):
    beta, factor = sym_table.beta(7), _fr([3, 2])  # a common factor 2q + 3
    assert RF(_schoolbook(beta.num, factor), _schoolbook(beta.den, factor)) == beta


def test_exact_division_raises_on_remainder():
    with pytest.raises(ArithmeticError):
        _zexquo([1, 0, 1], [1, 1])            # q^2 + 1 by q + 1
    with pytest.raises(ArithmeticError):
        _zexquo([0, 0, 1], [1, 2])            # q^2 by 2q + 1
    with pytest.raises(ArithmeticError):
        _zexquo([1], [1, 1])                  # degree too low
    with pytest.raises(ArithmeticError):
        _zexquo([1, 3, 2], [2, 4])            # (1 + q)/2 is not in Z[q]
    assert _zexquo([1, 3, 2], [1, 2]) == [1, 1]


@settings(max_examples=60, deadline=None)
@given(int_polys.filter(any), int_polys.filter(any))
def test_exact_division_inverts_product(a, b):
    a, b = list(qfield._strip(a)), list(qfield._strip(b))
    assert _zexquo(qfield._zmul(a, b), b) == a


# -- the stored form matches sympy's canonical form --------------------------------


def _sympy_canonical(expr):
    # (num, den) over Q with a monic denominator, ascending, from sympy
    sp = pytest.importorskip("sympy")
    q = sp.Symbol("q")
    num, den = sp.fraction(sp.cancel(sp.together(expr)))
    num, den = sp.Poly(num, q), sp.Poly(den, q)
    lc = den.LC()
    want_num = [Fraction(str(c / lc)) for c in reversed(num.all_coeffs())] if not num.is_zero else []
    want_den = [Fraction(str(c / lc)) for c in reversed(den.all_coeffs())]
    return want_num, want_den


def _sympy_expr(num, den):
    sp = pytest.importorskip("sympy")
    q = sp.Symbol("q")
    return (sum(sp.Rational(str(c)) * q ** i for i, c in enumerate(num))
            / sum(sp.Rational(str(c)) * q ** i for i, c in enumerate(den)))


@settings(max_examples=20, deadline=None)
@given(rationals_of_q(), rationals_of_q())
def test_canonical_forms_match_sympy(a, b):
    for f in (a * b + a, (a + b) * (a - b), a * a * b):
        assert (list(f.num), list(f.den)) == _sympy_canonical(_sympy_expr(f.num, f.den))


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def noncanonical_inputs(draw):
    # coefficient lists with negative leading coefficients, rational content,
    # a common factor, constants and zero
    num = draw(st.lists(small_fractions, max_size=4))
    den = draw(st.lists(small_fractions, min_size=1, max_size=3).filter(any))
    factor = draw(st.sampled_from([[1], [-1], [3, 2], [-2, 0, -5], [1, 1], [0, 1]]))
    content = draw(small_fractions.filter(bool))
    num = [content * c for c in _schoolbook(num, factor)]
    den = [c / content for c in _schoolbook(den, factor)]
    return num, den


def _check_value(f, expr):
    assert (list(f.num), list(f.den)) == _sympy_canonical(expr)
    assert f.to_json() == {"num": [str(c) for c in f.num], "den": [str(c) for c in f.den]}
    g = RF(f.num, f.den)
    assert g == f and hash(g) == hash(f)


@settings(max_examples=40, deadline=None)
@given(noncanonical_inputs(), noncanonical_inputs(), st.integers(1, 3),
       st.fractions(min_value=-3, max_value=3, max_denominator=3))
def test_stored_form_changes_no_value(a_in, b_in, e, x):
    sp = pytest.importorskip("sympy")
    q = sp.Symbol("q")
    a, b = RF(*a_in), RF(*b_in)
    ea, eb = _sympy_expr(*a_in), _sympy_expr(*b_in)
    _check_value(a, ea)
    _check_value(a + b, ea + eb)
    _check_value(a - b, ea - eb)
    _check_value(a * b, ea * eb)
    _check_value(a ** e, ea ** e)
    _check_value(a.substitute_reciprocal(), ea.subs(q, 1 / q))
    if not a.is_zero():
        _check_value(a ** -e, ea ** -e)
        _check_value(a.reciprocal(), 1 / ea)
    if not b.is_zero():
        _check_value(a / b, ea / eb)
        for route in ((a * b) / b, (a / b) * b):
            assert route == a and hash(route) == hash(a)
    route = (a + b) - b
    assert route == a and hash(route) == hash(a)
    want_den = _sympy_canonical(ea)[1]
    if sum(c * x ** i for i, c in enumerate(want_den)) == 0:
        with pytest.raises(DivisionByZero):
            a.evaluate(x)
    else:
        value = sp.cancel(ea).subs(q, sp.Rational(str(x)))
        assert a.evaluate(x) == Fraction(str(value))


def test_carlitz_canonical_forms_match_sympy(sym_table):
    sp = pytest.importorskip("sympy")
    q = sp.Symbol("q")
    for n in (3, 6, 9, 12):
        f = sym_table.beta(n)
        num = sum(sp.Rational(str(c)) * q ** i for i, c in enumerate(f.num))
        den = sum(sp.Rational(str(c)) * q ** i for i, c in enumerate(f.den))
        assert sp.gcd(sp.Poly(num, q), sp.Poly(den, q)).degree() == 0
        assert f.den[-1] == 1
