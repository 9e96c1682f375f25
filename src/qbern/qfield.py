"""Scalar backends: exact rational functions of q, and p-adic values of q.

The symbolic backend stores a value as ``c * n(q) / d(q)``: n and d are
coprime primitive int lists in Z[q] with positive leading coefficients, and
c is one reduced int pair (num, den), den > 0 (zero is c = (0, 1), n = ()).
That form is unique, so identity verification reduces to tuple equality.
Every operation works on the int lists, following the primitive-part
arithmetic of Geddes, Czapor and Labahn, *Algorithms for Computer Algebra*
(1992); by Gauss's lemma a product of primitive parts is primitive, so only
the numerator of a sum has a content to take.  Under it:

* products by Kronecker substitution, one big-int product of the lists
  packed at 2^b, read back as signed digits (Harvey, J. Symb. Comput. 44,
  2009); a list longer than 64 coefficients packs and unpacks as two
  halves, recursively, so both stay near linear in its length;
* a product with a unit c q^s of Q[q, 1/q] (an int or Fraction, or n and d
  both powers of q) runs no gcd: the unit keeps n and d primitive and
  coprime, so c scales and the lists shift, cancelling the power of q the
  other side carries up to |s|;
* gcds by GCDHEU (Char, Geddes, Gonnet, J. Symb. Comput. 7, 1989): the
  integer gcd of the values at xi = 2^b, read back as symmetric xi-adic
  digits.  With xi >= 2 min(|x|_inf, |y|_inf) + 2 a candidate that divides
  both inputs is the gcd, so a candidate is accepted only after its
  cofactors multiply back to both inputs exactly; those cofactors are the
  reduced operands.  xi grows until that check holds, which it does once
  xi is past twice the coefficients of the gcd (times a bounded integer)
  and of both cofactors.

Fractions appear only at the edges, the one place ``fractions`` is
imported: the constructor clears the denominators of its coefficients, a
Fraction operand enters as its pair, ``num``, ``den`` and ``evaluate``
return Fractions on demand, and a padic context keeps its rational q as
one.  The p-adic backend reuses :mod:`qbern.padic` with a fixed admissible
q (a unit with nu_p(q - 1) >= 1, i.e. |1 - q|_p < 1).  Its [x]_q at an
integer x is one modular computation on the K digits of q,
``_int_bracket``, which the Riemann kernel in :mod:`qbern.integral` shares;
it keeps all K digits.

A ``Scalar`` is either a :class:`RationalFunction` or a
:class:`~qbern.padic.PadicNumber`; binary operations require matching
variants and contexts.
"""

from __future__ import annotations

from functools import cache
from math import ceil, gcd, inf, lcm

from .errors import (
    BudgetExceeded,
    DivisionByZero,
    DomainError,
    NonIntegerExponentInSymbolicMode,
)
from .padic import PadicContext, PadicNumber, int_valuation
from .record import Record

__all__ = [
    "RationalFunction",
    "QContext",
    "Scalar",
    "q_pow",
    "q_bracket",
    "zq_bracket",
    "check_zq_budget",
    "invert_q",
    "scalars_equal",
    "rational_literal",
]

# the most Z[q] coefficients a symbolic value at an integer x may build;
# check_zq_budget is its one reader
DEFAULT_TERM_BUDGET = 2_000_000

# ---------------------------------------------------------------------------
# dense Z[q] helpers (ascending coefficients, no trailing zeros)
# ---------------------------------------------------------------------------


def _strip(coeffs):
    i = len(coeffs)
    while i and not coeffs[i - 1]:
        i -= 1
    return tuple(coeffs[:i])


def _clear_denominators(a):
    # An int or Fraction tuple as (int list, least common denominator).
    den = 1
    for c in a:
        if c.denominator != 1:
            den = lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in a], den


# Lists longer than this pack and unpack as two halves, so that no loop step
# shifts a big int of more than about _CUT digits: the loops below are
# quadratic in the length, the halving near linear.
_CUT = 64


def _pack(x, b):
    # x(2^b): Kronecker substitution; signed coefficients carry into the top
    if len(x) > _CUT:
        h = len(x) // 2
        return _pack(x[:h], b) + (_pack(x[h:], b) << (h * b))
    acc = 0
    for c in reversed(x):
        acc = (acc << b) + c
    return acc


def _unpack(n, b):
    # The 2^b-adic digits of n in [-2^(b-1), 2^(b-1)), lowest first; b >= 2.
    h = n.bit_length() // b // 2
    if h > _CUT // 2:
        # the low h digits are the residue r of n mod 2^(hb) taken in
        # [-m, 2^(hb) - m), m = 2^(b-1) (1 + 2^b + ... + 2^((h-1)b)); the
        # rest are the digits of (n - r) / 2^(hb)
        hb = h * b
        mask = (1 << hb) - 1
        m = mask // ((1 << b) - 1) << (b - 1)
        t = (n & mask) + m
        high = _unpack((n >> hb) + (t >> hb), b)
        low = _unpack((t & mask) - m, b)
        return low + [0] * (h - len(low)) + high if high else low
    full = 1 << b
    half = full >> 1
    mask = full - 1
    out = []
    while n:
        d = n & mask
        n >>= b
        if d >= half:
            d -= full
            n += 1
        out.append(d)
    return out


def _zmul(x, y):
    # Product in Z[q] by one big-int product.  Each product coefficient is at
    # most max|x| * max|y| * min(len) in magnitude, so a sign bit (and one bit
    # of slack) above that bound leaves every signed digit unambiguous.
    if not x or not y:
        return []
    if len(y) == 1:
        x, y = y, x
    if len(x) == 1:  # a constant scales the other operand, with no packing
        return _zcomb(x[0], y, 0, ())
    bound = max(map(abs, x)) * max(map(abs, y)) * min(len(x), len(y))
    b = bound.bit_length() + 2
    return _unpack(_pack(x, b) * _pack(y, b), b)


def _zpow(x, e):
    # x^e in Z[q] for e >= 0, by repeated products
    out = [1]
    for _ in range(e):
        out = _zmul(out, x)
    return out


def _zcomb(s, x, t, y):
    # s x + t y in Z[q], no trailing zeros
    if len(x) < len(y):
        s, x, t, y = t, y, s, x
    out = [s * c for c in x]
    for i, c in enumerate(y):
        out[i] += t * c
    while out and not out[-1]:
        out.pop()
    return out


def _homeval(a, r, s, top):
    # s^top a(r/s) = sum_i a_i r^i s^(top - i) in Z, for len(a) <= top + 1
    acc, sp = 0, s ** (top + 1 - len(a))
    for c in reversed(a):
        acc, sp = acc * r + c * sp, sp * s
    return acc


def _content(a):
    # The gcd of the coefficients of a nonzero a, signed like its leading one.
    g = 0
    for c in a:
        g = gcd(g, c)
        if g == 1:
            break
    return -g if a[-1] < 0 else g


def _int_primitive(a):
    g = _content(a) if a else 1
    return list(a) if g == 1 else [c // g for c in a]


def _heugcd(x, y):
    """GCDHEU (Char, Geddes, Gonnet 1989) on primitive x, y of degree >= 1.

    Evaluates both at xi = 2^b, reads igcd(x(xi), y(xi)) back as symmetric
    xi-adic digits and takes the primitive part h.  With
    xi >= 2 min(|x|_inf, |y|_inf) + 2, h is gcd(x, y) as soon as it divides
    both; that is checked here by exhibiting the cofactors x/h and y/h
    (read from x(xi)/h(xi), then multiplied back).  A constant h divides
    everything, so x and y are then coprime.  Returns (h, x/h, y/h).

    The loop ends.  Write x = g xbar and y = g ybar with g = gcd(x, y).  The
    integer gcd at xi is then d g(xi), and d divides the inputs' contents
    times the nonzero resultant Res(xbar, ybar), whatever xi is.  Once xi is
    more than twice the coefficients of d g, xbar and ybar, the digits read
    back exactly, and b grows by a quarter on each try, so that point is
    reached.  Trailing zeros would keep the products from ever matching, so
    they are stripped first.
    """
    x, y = list(_strip(x)), list(_strip(y))
    nx, ny = max(map(abs, x)), max(map(abs, y))
    # 2^b >= 2 max(|x|, |y|) + 2 >= the certificate's 2 min(...) + 2, and
    # leaves room to read back cofactors about as large as x and y
    b = (2 * max(nx, ny) + 1).bit_length()
    while True:
        xv, yv = _pack(x, b), _pack(y, b)
        h = _int_primitive(_unpack(gcd(xv, yv), b))
        if len(h) == 1:
            return [1], x, y
        hv = _pack(h, b)
        cx, cy = _unpack(xv // hv, b), _unpack(yv // hv, b)
        if _zmul(h, cx) == x and _zmul(h, cy) == y:
            return h, cx, cy
        b += b // 4 + 2  # xi grows to about xi^(5/4)


def _zgcd(x, y):
    # (h, x/h, y/h) with h = gcd(x, y) for nonzero primitive x, y with
    # positive leading coefficients; h and both cofactors are of that kind
    if len(x) == 1 or len(y) == 1:
        return [1], x, y
    return _heugcd(x, y)


def _fmt_scaled(a, p, r):
    # The coefficients p * c / r of a in lowest terms, as str(Fraction) would
    # print them; r > 0.
    if r == 1:
        return [str(p * c) for c in a]
    out = []
    for c in a:
        c *= p
        g = gcd(c, r)
        out.append(str(c // g) if g == r else f"{c // g}/{r // g}")
    return out


def _fmt_poly(a) -> str:
    # a: coefficient strings, ascending
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
    return parts[0] + "".join(f" - {t[1:]}" if t.startswith("-") else f" + {t}"
                              for t in parts[1:])


# ---------------------------------------------------------------------------
# rational functions of q
# ---------------------------------------------------------------------------


def _lowest(a, b):
    # a/b as a reduced int pair (num, den) with den > 0, for b != 0
    g = gcd(a, b)
    return (a // g, b // g) if b > 0 else (-a // g, -b // g)


def _rf(c, n, d):
    # A RationalFunction from its parts, already in canonical form.
    f = object.__new__(RationalFunction)
    f._c, f._n, f._d = c, tuple(n), tuple(d)
    return f


def _unit_times(f, c, s):
    # f * c q^s for a nonzero canonical f, a nonzero content pair c and an
    # int s.  A unit of Q[q, 1/q] keeps n and d primitive and coprime, so c
    # scales and the lists shift: q^|s| multiplies n (d for s < 0), and the
    # power of q the other side carries cancels up to |s|.
    up, down = (f._n, f._d) if s >= 0 else (f._d, f._n)
    k, t = abs(s), 0
    while t < k and not down[t]:
        t += 1
    up, down = (0,) * (k - t) + up, down[t:]
    c = _lowest(f._c[0] * c[0], f._c[1] * c[1])
    return _rf(c, up, down) if s >= 0 else _rf(c, down, up)


class RationalFunction:
    """A ratio of polynomials in q over Q, as ``c * n / d``.

    n and d are coprime primitive polynomials in Z[q] with positive leading
    coefficients and c is a reduced int pair (num, den), den > 0; zero is
    c = (0, 1), n = ().  The form is unique, so equality of values is
    equality of (c, n, d).  The constructor takes Fraction or int
    coefficients in any form.
    """

    __slots__ = ("_c", "_n", "_d")

    def __init__(self, num, den=(1,)):
        num = _strip(tuple(num))
        den = _strip(tuple(den))
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        if not num:
            self._c, self._n, self._d = (0, 1), (), (1,)
            return
        x, dx = _clear_denominators(num)
        y, dy = _clear_denominators(den)
        cx, cy = _content(x), _content(y)
        _, n, d = _zgcd([c // cx for c in x], [c // cy for c in y])
        self._c = _lowest(cx * dy, dx * cy)
        self._n, self._d = tuple(n), tuple(d)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_fraction(cls, fr) -> "RationalFunction":
        """The constant ``fr``: an int, or anything ``Fraction`` reads (only
        that loads ``fractions``)."""
        if not isinstance(fr, int):
            from fractions import Fraction
            fr = Fraction(fr)
        return _rf((fr.numerator, fr.denominator), (1,) if fr else (), (1,))

    @classmethod
    def indeterminate(cls) -> "RationalFunction":
        return _rf((1, 1), (0, 1), (1,))

    # -- the canonical Fraction form ----------------------------------------

    @property
    def num(self) -> tuple:
        """Numerator coefficients over Q, ascending, for a monic denominator."""
        from fractions import Fraction
        scale = Fraction(self._c[0], self._c[1] * self._d[-1])
        return tuple(scale * c for c in self._n)

    @property
    def den(self) -> tuple:
        """Monic denominator coefficients over Q, ascending."""
        from fractions import Fraction
        lc = self._d[-1]
        return tuple(Fraction(c, lc) for c in self._d)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._n

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if not isinstance(other, int):
            from fractions import Fraction  # loaded already by whoever made one
            if not isinstance(other, Fraction):
                raise TypeError(f"cannot combine RationalFunction with {type(other).__name__}")
        return RationalFunction.from_fraction(other)

    def __add__(self, other):
        other = self._coerce(other)
        if not self._n:
            return other
        if not other._n:
            return self
        (a1, b1), n1, d1 = self._c, self._n, self._d
        (a2, b2), n2, d2 = other._c, other._n, other._d
        # c1 = k s1 and c2 = k s2 with coprime ints s1, s2
        g, m = gcd(a1, a2), lcm(b1, b2)
        s1, s2 = a1 // g * (m // b1), a2 // g * (m // b2)
        if d1 == d2:
            h, e1, e2 = d1, [1], [1]
        else:
            h, e1, e2 = _zgcd(d1, d2)
        # d1 = h e1, d2 = h e2: the sum is k t / (h e1 e2) with t below, and
        # t is prime to e1 and e2, so only a common factor with h can cancel
        t = _zcomb(s1, _zmul(n1, e2), s2, _zmul(n2, e1))
        if not t:
            return RationalFunction.from_fraction(0)
        ct = _content(t)
        _, t, h = _zgcd([c // ct for c in t], h)
        return _rf(_lowest(g * ct, m), t, _zmul(_zmul(e1, e2), h))

    __radd__ = __add__

    def __neg__(self):
        return _rf((-self._c[0], self._c[1]), self._n, self._d)

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)  # an int or Fraction is the unit c q^0
        if not self._n or not other._n:
            return RationalFunction.from_fraction(0)
        # a unit c q^s: its n and d are each a power of q
        n, d = other._n, other._d
        if n.count(0) == len(n) - 1 and d.count(0) == len(d) - 1:
            return _unit_times(self, other._c, len(n) - len(d))
        n, d = self._n, self._d
        if n.count(0) == len(n) - 1 and d.count(0) == len(d) - 1:
            return _unit_times(other, self._c, len(n) - len(d))
        _, n1, d2 = _zgcd(self._n, other._d)
        _, n2, d1 = _zgcd(other._n, self._d)
        c = _lowest(self._c[0] * other._c[0], self._c[1] * other._c[1])
        return _rf(c, _zmul(n1, n2), _zmul(d1, d2))

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalFunction":
        if not self._n:
            raise DivisionByZero("reciprocal of zero rational function")
        return _rf(_lowest(self._c[1], self._c[0]), self._d, self._n)

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.reciprocal()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e == 0:
            return RationalFunction.from_fraction(1)
        base = self.reciprocal() if e < 0 else self
        e = abs(e)
        # powers of coprime primitive parts stay coprime and primitive
        a, b = base._c
        return _rf((a ** e, b ** e), _zpow(base._n, e), _zpow(base._d, e))

    # -- structure --------------------------------------------------------

    def substitute_reciprocal(self) -> "RationalFunction":
        """The rational function q -> f(1/q)."""
        # q^D n(1/q) / q^D d(1/q) with D the larger degree: the reversed
        # lists stay primitive and coprime (q can divide only one of them)
        top = max(len(self._n), len(self._d))
        n = _strip((0,) * (top - len(self._n)) + self._n[::-1])
        d = _strip((0,) * (top - len(self._d)) + self._d[::-1])
        a, b = self._c
        if n and n[-1] < 0:
            a, n = -a, [-c for c in n]
        if d[-1] < 0:
            a, d = -a, [-c for c in d]
        return _rf((a, b), n, d)

    def value_at(self, x) -> tuple:
        """The value at an int or Fraction q = x as a reduced int pair
        (num, den), den > 0; DivisionByZero at a root of d."""
        # s^D n(x) / s^D d(x) at x = r/s: two integers for the larger degree D
        top = max(len(self._n), len(self._d)) - 1
        nv, dv = (_homeval(a, x.numerator, x.denominator, top) for a in (self._n, self._d))
        if dv == 0:
            raise DivisionByZero(f"denominator vanishes at q = {x}")
        return _lowest(self._c[0] * nv, self._c[1] * dv)

    def evaluate(self, x) -> Fraction:
        """``value_at`` as a Fraction, at any x that ``Fraction`` reads."""
        from fractions import Fraction
        return Fraction(*self.value_at(Fraction(x)))

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self._n == other._n and self._d == other._d and self._c == other._c

    def __hash__(self):
        return hash((*self._c, self._n, self._d))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """{"num": ["c0", "c1", ...], "den": [...]}, ascending degree, for a
        monic denominator."""
        lc = self._d[-1]
        return {
            "num": _fmt_scaled(self._n, self._c[0], self._c[1] * lc),
            "den": _fmt_scaled(self._d, 1, lc),
        }

    def render(self) -> str:
        """Single-line canonical rendering "(num)/(den)", ascending terms."""
        data = self.to_json()
        return f"({_fmt_poly(data['num'])})/({_fmt_poly(data['den'])})"

    def __repr__(self):
        return self.render()


Scalar = PadicNumber | RationalFunction

_Q = RationalFunction.indeterminate()


def rational_literal(text: str) -> Fraction:
    """A rational literal such as "3", "-2/5" or "0.5"; a malformed literal
    or a zero denominator is a DomainError."""
    from fractions import Fraction
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise DomainError(f"zero denominator in the rational literal {text!r}") from exc
    except ValueError as exc:
        raise DomainError(f"invalid rational literal {text!r}") from exc


# ---------------------------------------------------------------------------
# the working context
# ---------------------------------------------------------------------------


class QContext(Record):
    """Backend tag plus the value of q.

    Symbolic contexts carry q as the indeterminate or, after inversion, its
    reciprocal 1/q.  Padic contexts carry the rational q they were built
    from, which must be a unit with nu_p(q - 1) >= 1, and its embedding
    with K unit digits.
    """

    def __init__(self, backend: str, q: Scalar, pctx: PadicContext | None = None,
                 rational: Fraction | None = None):
        if backend == "symbolic":
            if (rational is not None or not isinstance(q, RationalFunction)
                    or q not in (_Q, _Q.reciprocal())):
                raise DomainError("a symbolic q is the indeterminate q or its reciprocal 1/q")
        elif backend == "padic":
            from fractions import Fraction
            if pctx is None or not isinstance(rational, Fraction):
                raise DomainError("padic context needs a PadicContext and a rational q")
            if q != PadicNumber.from_fraction(rational, pctx):
                raise DomainError("q must be the embedding of its rational")
            if q.valuation != 0:
                raise DomainError("q must be a p-adic unit")
            if (q - 1)._effective_valuation() < 1:
                raise DomainError("q must satisfy nu_p(q - 1) >= 1")
            if (q - 1).is_zero():
                raise DomainError("q = 1 is not an admissible padic q" if rational == 1 else
                                  f"q - 1 vanishes to the working precision: q = {rational} "
                                  f"is congruent to 1 mod {pctx.prime}^{pctx.precision}")
        else:
            raise DomainError(f"unknown backend {backend!r}")
        self.backend, self.q, self.pctx, self.rational = backend, q, pctx, rational

    # -- constructors ---------------------------------------------------

    @classmethod
    def symbolic(cls) -> "QContext":
        return cls("symbolic", RationalFunction.indeterminate())

    @classmethod
    def padic(cls, prime: int, precision: int, q="1+p") -> "QContext":
        from fractions import Fraction
        pctx = PadicContext(prime, precision)
        if isinstance(q, str):
            q = Fraction(1 + prime) if q.strip() == "1+p" else rational_literal(q)
        if not isinstance(q, (int, Fraction)):
            raise DomainError(f"cannot interpret q specification {q!r}")
        q = Fraction(q)
        return cls("padic", PadicNumber.from_fraction(q, pctx), pctx, q)

    # -- helpers ------------------------------------------------------------

    @property
    def is_symbolic(self) -> bool:
        return self.backend == "symbolic"

    @property
    def prime(self) -> int:
        if self.pctx is None:
            raise DomainError("symbolic context has no prime")
        return self.pctx.prime

    def one(self) -> Scalar:
        return self.embed(1)

    def zero(self) -> Scalar:
        return self.embed(0)

    def embed(self, value) -> Scalar:
        """Embed an integer or Fraction into the backend."""
        if self.is_symbolic:
            return RationalFunction.from_fraction(value)
        return PadicNumber.from_fraction(value, self.pctx)

    def read(self, value: RationalFunction) -> Scalar:
        """A rational function of the indeterminate q, at this context's q:
        the value itself, its q -> 1/q substitution, or on padic its value
        at the rational q (1/q after ``invert_q``) embedded."""
        if not self.is_symbolic:
            return self.embed(value.evaluate(self.rational))
        return value if self.q == _Q else value.substitute_reciprocal()

    @property
    def q_minus_one_valuation(self) -> int:
        """nu_p(q - 1) for padic contexts: q = num/den is a unit, so it is
        nu_p(num - den), which the constructor keeps below K."""
        if self.is_symbolic:
            raise DomainError("valuation data requires the padic backend")
        return int_valuation(self.rational.numerator - self.rational.denominator, self.prime)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


# reached by rational x on the padic backend, e.g. `qbern bernstein --x -1/2`
def _binomial_series_q_pow(x: PadicNumber, ctx: QContext) -> PadicNumber:
    # q^x = sum_k C(x, k) (q-1)^k; term k has valuation >= k*nu(q-1), so the
    # series is truncated at the first k with k*nu(q-1) >= K.
    if x.valuation < 0:
        raise DomainError("p-adic exponents must lie in Z_p")
    e = ctx.q_minus_one_valuation
    k_star = ceil(ctx.pctx.precision / e)
    one = ctx.one()
    acc = one
    binom = one
    qm1 = ctx.q - 1
    for k in range(1, k_star):
        binom = binom * (x - (k - 1)) / k
        acc = acc + binom * qm1 ** k
    return acc


def q_pow(x, ctx: QContext) -> Scalar:
    """q^x; integer exponents by ``**`` (one modular ``pow`` on padic),
    p-adic ones by the binomial series in (q - 1)."""
    if isinstance(x, int):
        return ctx.q ** x
    if ctx.is_symbolic:
        raise NonIntegerExponentInSymbolicMode("symbolic backend takes integer x only")
    from fractions import Fraction
    if isinstance(x, Fraction):
        x = PadicNumber.from_fraction(x, ctx.pctx)
    if not isinstance(x, PadicNumber):
        raise DomainError(f"unsupported exponent {x!r}")
    return _binomial_series_q_pow(x, ctx)


def q_bracket(x, ctx: QContext) -> Scalar:
    """[x]_q = (1 - q^x)/(1 - q); equals 1 + q + ... + q^(x-1) for x >= 0.

    On padic an integer x reads ``_int_bracket``, the Riemann kernel's own
    bracket, to all K digits: dividing by 1 - q would cost nu_p(q - 1) of
    them.  x = 0 is the exact zero."""
    if isinstance(x, int) and not ctx.is_symbolic:
        if not x:
            return ctx.zero()
        pctx = ctx.pctx
        p, digits = pctx.prime, pctx.precision
        return PadicNumber(pctx, 0, _int_bracket(x, ctx.q.unit, p, p ** digits), digits)
    qx = q_pow(x, ctx)
    return (ctx.one() - qx) / (ctx.one() - ctx.q)


def _int_bracket(c: int, r: int, p: int, mod: int) -> int:
    """[c]_r = (1 - r^c)/(1 - r) modulo ``mod``, a power of p, for a unit r
    with r != 1 mod ``mod`` (``QContext`` rejects q = 1 to K digits).

    1 - r = p^e w for a unit w and e below the digits of ``mod``, so the
    numerator taken modulo ``mod * p^e`` divides exactly by p^e.
    """
    pe = p ** int_valuation(1 - r, p)
    num = (1 - pow(r, c, mod * pe)) % (mod * pe)
    return num // pe * pow((1 - r) // pe, -1, mod) % mod


def zq_bracket(x: int) -> tuple:
    """[x]_q = P(q)/q^s for an integer x, as the int list P and the shift s:
    P = [x]_q and s = 0 for x >= 0, and [x]_q = -[|x|]_q / q^|x| for x < 0."""
    return ([1] * x, 0) if x >= 0 else ([-1] * -x, -x)


def check_zq_budget(n: int, x: int) -> None:
    """BudgetExceeded, before any list is built, when a degree-n value at
    the integer x, about n |x| coefficients on Z[q] lists, is over
    DEFAULT_TERM_BUDGET (P alone has |x| of them)."""
    if max(n, 1) * abs(x) > DEFAULT_TERM_BUDGET:
        raise BudgetExceeded(f"a symbolic value of degree {n} at this x needs more than "
                             f"the term budget of {DEFAULT_TERM_BUDGET} terms")


# contexts are immutable records, so one inversion serves every caller
@cache
def invert_q(ctx: QContext) -> QContext:
    """The context with q replaced by 1/q (same backend)."""
    if ctx.is_symbolic:
        return QContext("symbolic", ctx.q.reciprocal())
    return QContext("padic", ctx.one() / ctx.q, ctx.pctx, 1 / ctx.rational)


# unreached by the CLI, kept: the acceptance test imports it
def scalars_equal(a: Scalar, b: Scalar, ctx: QContext) -> bool:
    """Exact equality (symbolic) or agreement to the shared certified
    precision (padic)."""
    if ctx.is_symbolic:
        return a == b
    t = min(a.prec, b.prec)
    return a.equals_to_precision(b, ctx.pctx.precision if t == inf else t)
