"""Scalar backends: exact rational functions of q, and p-adic values of q.

The symbolic backend carries values as normalized ratios of polynomials in
q over the rationals (coprime numerator/denominator, monic denominator), so
identity verification reduces to syntactic equality of canonical forms.
The coefficients are stored as Fractions, but the kernels under them work
in Z[q] on plain int lists after clearing denominators:

* products by Kronecker substitution, one big-int product of the lists
  packed at 2^b, read back as signed digits (Harvey, J. Symb. Comput. 44,
  2009);
* exact division over the divisor's primitive part, raising
  ArithmeticError on a remainder;
* gcds by GCDHEU (Char, Geddes, Gonnet, J. Symb. Comput. 7, 1989): the
  integer gcd of the values at xi = 2^b, read back as symmetric xi-adic
  digits.  With xi >= 2 min(|x|_inf, |y|_inf) + 2 a candidate that divides
  both inputs is the gcd, so a candidate is accepted only after its
  cofactors multiply back to both inputs exactly.  After a few growing xi
  the primitive pseudo-remainder sequence takes over.

The canonical form is unique, so it does not depend on which gcd path ran.
The p-adic backend reuses :mod:`qbern.padic` with a fixed admissible q
(a unit with nu_p(q - 1) >= 1, i.e. |1 - q|_p < 1).

A ``Scalar`` is either a :class:`RationalFunction` or a
:class:`~qbern.padic.PadicNumber`; binary operations require matching
variants and contexts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, inf, lcm
from typing import Optional, Union

from .errors import (
    DivisionByZero,
    DomainError,
    NonIntegerExponentInSymbolicMode,
)
from .padic import PadicContext, PadicNumber

__all__ = [
    "RationalFunction",
    "QContext",
    "Scalar",
    "q_pow",
    "q_bracket",
    "reflected_bracket",
    "invert_q",
    "scalars_equal",
    "rational_literal",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# ---------------------------------------------------------------------------
# dense polynomial helpers (ascending coefficients, no trailing zeros)
# ---------------------------------------------------------------------------


def _strip(coeffs):
    i = len(coeffs)
    while i and not coeffs[i - 1]:
        i -= 1
    return tuple(coeffs[:i])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _strip(out)


def _pneg(a):
    return tuple(-c for c in a)


def _clear_denominators(a):
    # A Fraction tuple as (int list, least common denominator).
    den = 1
    for c in a:
        if c.denominator != 1:
            den = lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in a], den


def _pack(x, b):
    # x(2^b): Kronecker substitution; signed coefficients carry into the top
    acc = 0
    for c in reversed(x):
        acc = (acc << b) + c
    return acc


def _unpack(n, b):
    # The 2^b-adic digits of n in [-2^(b-1), 2^(b-1)), lowest first; b >= 2.
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
    bound = max(map(abs, x)) * max(map(abs, y)) * min(len(x), len(y))
    b = bound.bit_length() + 2
    return _unpack(_pack(x, b) * _pack(y, b), b)


def _pmul(a, b):
    if not a or not b:
        return ()
    x, dx = _clear_denominators(a)
    y, dy = _clear_denominators(b)
    den = dx * dy
    if den == 1:
        return tuple(map(Fraction, _zmul(x, y)))
    return tuple(Fraction(c, den) for c in _zmul(x, y))


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


def _peval(a, x: Fraction) -> Fraction:
    acc = _ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _to_primitive_int(a):
    # Clear denominators and content; returns a primitive int-coefficient list.
    return _int_primitive(_clear_denominators(a)[0])


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


def _int_primitive(a):
    g = 0
    for c in a:
        g = gcd(g, c)
    if g > 1:
        a = [c // g for c in a]
    if a and a[-1] < 0:
        a = [-c for c in a]
    return a


_HEU_TRIES = 6


def _heugcd(x, y):
    """GCDHEU (Char, Geddes, Gonnet 1989) on primitive x, y of degree >= 1.

    Evaluates both at xi = 2^b, reads igcd(x(xi), y(xi)) back as symmetric
    xi-adic digits and takes the primitive part h.  With
    xi >= 2 min(|x|_inf, |y|_inf) + 2, h is gcd(x, y) as soon as it divides
    both; that is checked here by exhibiting the cofactors x/h and y/h
    (read from x(xi)/h(xi), then multiplied back).  Returns h, or None when
    no xi of the few tried gives a checked h.
    """
    nx, ny = max(map(abs, x)), max(map(abs, y))
    # 2^b >= 2 max(|x|, |y|) + 2 >= the certificate's 2 min(...) + 2, and
    # leaves room to read back cofactors about as large as x and y
    b = (2 * max(nx, ny) + 1).bit_length()
    for _ in range(_HEU_TRIES):
        xv, yv = _pack(x, b), _pack(y, b)
        h = _int_primitive(_unpack(gcd(xv, yv), b))
        hv = _pack(h, b)
        if _zmul(h, _unpack(xv // hv, b)) == x and _zmul(h, _unpack(yv // hv, b)) == y:
            return h
        b += b // 4 + 2  # xi grows to about xi^(5/4)
    return None


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


def _pgcd(a, b):
    # Monic gcd over Q: the primitive gcd of the cleared integer polynomials,
    # by the heuristic when it certifies one and the PRS otherwise.
    if not a:
        return _pmonic(b)
    if not b:
        return _pmonic(a)
    if len(a) == 1 or len(b) == 1:
        return (_ONE,)
    x = _to_primitive_int(a)
    y = _to_primitive_int(b)
    return _pmonic(tuple(map(Fraction, _heugcd(x, y) or _prs_gcd(x, y))))


def _pmonic(a):
    if not a or a[-1] == 1:
        return tuple(a)
    lc = a[-1]
    return tuple(c / lc for c in a)


def _pexquo(a, b):
    # a / b over Q, known to be a polynomial: the dividend's cleared integer
    # coefficients over the divisor's primitive part, a quotient that lies in
    # Z[q] by Gauss's lemma, times the rational factor left over.
    x, dx = _clear_denominators(a)
    y, dy = _clear_denominators(b)
    yp = _int_primitive(y)
    scale = Fraction(dy * yp[-1], dx * y[-1])
    return tuple(c * scale for c in _zexquo(x, yp))


def _fmt_coeff(c: Fraction) -> str:
    return str(c)


def _fmt_poly(a) -> str:
    if not a:
        return "0"
    parts = []
    for i, c in enumerate(a):
        if not c:
            continue
        if i == 0:
            term = _fmt_coeff(c)
        else:
            mon = "q" if i == 1 else f"q^{i}"
            if c == 1:
                term = mon
            elif c == -1:
                term = f"-{mon}"
            else:
                term = f"{_fmt_coeff(c)}*{mon}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


# ---------------------------------------------------------------------------
# rational functions of q
# ---------------------------------------------------------------------------


class RationalFunction:
    """A normalized ratio of polynomials in q over Q.

    Canonical form: numerator and denominator coprime, denominator monic.
    Equality of values is tuple equality of the canonical coefficients.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(_ONE,), *, _canonical=False):
        num = tuple(num)
        den = tuple(den)
        if _canonical:
            self.num = num
            self.den = den
            return
        num = _strip(num)
        den = _strip(den)
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        if not num:
            self.num = ()
            self.den = (_ONE,)
            return
        g = _pgcd(num, den)
        if len(g) > 1:
            num = _pexquo(num, g)
            den = _pexquo(den, g)
        lc = den[-1]
        if lc != 1:
            num = tuple(c / lc for c in num)
            den = tuple(c / lc for c in den)
        self.num = tuple(num)
        self.den = tuple(den)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_fraction(cls, fr) -> "RationalFunction":
        fr = Fraction(fr)
        if not fr:
            return cls((), (_ONE,), _canonical=True)
        return cls((fr,), (_ONE,), _canonical=True)

    @classmethod
    def indeterminate(cls) -> "RationalFunction":
        return cls((_ZERO, _ONE), (_ONE,), _canonical=True)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_polynomial(self) -> bool:
        return self.den == (_ONE,)

    def as_fraction(self) -> Fraction:
        if self.den != (_ONE,) or len(self.num) > 1:
            raise DomainError("value is not a rational constant")
        return self.num[0] if self.num else _ZERO

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.from_fraction(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1 == (_ONE,) and d2 == (_ONE,):
            return RationalFunction(_padd(n1, n2), (_ONE,), _canonical=True)
        g = _pgcd(d1, d2)
        if len(g) == 1:
            num = _padd(_pmul(n1, d2), _pmul(n2, d1))
            den = _pmul(d1, d2)
            if not num:
                return RationalFunction.from_fraction(0)
            return RationalFunction(num, den, _canonical=True)
        d1g = _pexquo(d1, g)
        d2g = _pexquo(d2, g)
        t = _padd(_pmul(n1, d2g), _pmul(n2, d1g))
        if not t:
            return RationalFunction.from_fraction(0)
        h = _pgcd(t, g)
        if len(h) > 1:
            t = _pexquo(t, h)
            den = _pmul(d1g, _pexquo(d2, h))
        else:
            den = _pmul(d1g, d2)
        return RationalFunction(t, den, _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(_pneg(self.num), self.den, _canonical=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RationalFunction.from_fraction(0)
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        g1 = _pgcd(n1, d2)
        if len(g1) > 1:
            n1 = _pexquo(n1, g1)
            d2 = _pexquo(d2, g1)
        g2 = _pgcd(n2, d1)
        if len(g2) > 1:
            n2 = _pexquo(n2, g2)
            d1 = _pexquo(d1, g2)
        num = _pmul(n1, n2)
        den = _pmul(d1, d2)
        lc = den[-1]
        if lc != 1:
            num = tuple(c / lc for c in num)
            den = tuple(c / lc for c in den)
        return RationalFunction(num, den, _canonical=True)

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalFunction":
        if self.is_zero():
            raise DivisionByZero("reciprocal of zero rational function")
        num, den = self.den, self.num
        lc = den[-1]
        if lc != 1:
            num = tuple(c / lc for c in num)
            den = tuple(c / lc for c in den)
        return RationalFunction(num, den, _canonical=True)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.reciprocal()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e == 0:
            return RationalFunction.from_fraction(1)
        base = self.reciprocal() if e < 0 else self
        e = abs(e)
        num, den = base.num, base.den
        rn, rd = num, den
        for _ in range(e - 1):
            rn = _pmul(rn, num)
            rd = _pmul(rd, den)
        # powers of a reduced fraction stay reduced; denominator stays monic
        return RationalFunction(rn, rd, _canonical=True)

    # -- structure --------------------------------------------------------

    def substitute_reciprocal(self) -> "RationalFunction":
        """The rational function q -> f(1/q)."""
        d = max(len(self.num), len(self.den)) - 1
        num = tuple(reversed(self.num + (_ZERO,) * (d + 1 - len(self.num))))
        den = tuple(reversed(self.den + (_ZERO,) * (d + 1 - len(self.den))))
        return RationalFunction(num, den)

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        dv = _peval(self.den, x)
        if dv == 0:
            raise DivisionByZero(f"denominator vanishes at q = {x}")
        return _peval(self.num, x) / dv

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.from_fraction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """{"num": ["c0", "c1", ...], "den": [...]}, ascending degree."""
        return {
            "num": [str(c) for c in self.num],
            "den": [str(c) for c in self.den],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RationalFunction":
        num = tuple(Fraction(c) for c in data["num"])
        den = tuple(Fraction(c) for c in data["den"])
        return cls(num, den)

    def render(self) -> str:
        """Single-line canonical rendering "(num)/(den)", ascending terms."""
        return f"({_fmt_poly(self.num)})/({_fmt_poly(self.den)})"

    def __repr__(self):
        return self.render()


Scalar = Union[PadicNumber, RationalFunction]


def rational_literal(text: str) -> Fraction:
    """A rational literal such as "3", "-2/5" or "0.5"; a zero denominator
    is a DomainError rather than a ZeroDivisionError."""
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise DomainError(f"zero denominator in the rational literal {text!r}") from exc


# ---------------------------------------------------------------------------
# the working context
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QContext:
    """Backend tag plus the value of q.

    Symbolic contexts carry q as a rational function (the indeterminate by
    default; 1/q after inversion).  Padic contexts require q to be a unit
    with nu_p(q - 1) >= 1.
    """

    backend: str
    q: Scalar
    pctx: Optional[PadicContext] = None

    def __post_init__(self):
        if self.backend == "symbolic":
            if not isinstance(self.q, RationalFunction):
                raise DomainError("symbolic context needs a RationalFunction q")
            if self.q == RationalFunction.from_fraction(1) or self.q.is_zero():
                raise DomainError("q must differ from 0 and 1")
        elif self.backend == "padic":
            if self.pctx is None or not isinstance(self.q, PadicNumber):
                raise DomainError("padic context needs a PadicContext and a padic q")
            if self.q.valuation != 0:
                raise DomainError("q must be a p-adic unit")
            if (self.q - 1)._effective_valuation() < 1:
                raise DomainError("q must satisfy nu_p(q - 1) >= 1")
            if (self.q - 1).is_zero():
                raise DomainError("q = 1 is not an admissible padic q")
        else:
            raise DomainError(f"unknown backend {self.backend!r}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def symbolic(cls, q: Optional[RationalFunction] = None) -> "QContext":
        return cls("symbolic", q if q is not None else RationalFunction.indeterminate())

    @classmethod
    def padic(cls, prime: int, precision: int, q="1+p") -> "QContext":
        pctx = PadicContext(prime, precision)
        if isinstance(q, str):
            q = Fraction(1 + prime) if q.strip() == "1+p" else rational_literal(q)
        if isinstance(q, (int, Fraction)):
            qval = PadicNumber.from_fraction(Fraction(q), pctx)
            if q != 1 and (qval - 1).is_zero():
                raise DomainError(
                    f"q - 1 vanishes to the working precision: q = {q} is "
                    f"congruent to 1 mod {prime}^{precision}"
                )
        elif isinstance(q, PadicNumber):
            qval = q
        else:
            raise DomainError(f"cannot interpret q specification {q!r}")
        return cls("padic", qval, pctx)

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
        return PadicNumber.from_fraction(Fraction(value), self.pctx)

    @property
    def q_minus_one_valuation(self) -> int:
        """nu_p(q - 1) for padic contexts."""
        if self.is_symbolic:
            raise DomainError("valuation data requires the padic backend")
        return (self.q - 1).valuation


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


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
    qm1_pow = one
    qm1 = ctx.q - 1
    for k in range(1, k_star):
        binom = binom * (x - (k - 1)) / k
        qm1_pow = qm1_pow * qm1
        acc = acc + binom * qm1_pow
    return acc


def q_pow(x, ctx: QContext) -> Scalar:
    """q^x; integer exponents by repeated multiplication, p-adic ones by
    the binomial series in (q - 1)."""
    if isinstance(x, int):
        return ctx.q ** x
    if ctx.is_symbolic:
        raise NonIntegerExponentInSymbolicMode(
            "symbolic backend supports integer exponents only"
        )
    if isinstance(x, Fraction):
        x = PadicNumber.from_fraction(x, ctx.pctx)
    if not isinstance(x, PadicNumber):
        raise DomainError(f"unsupported exponent {x!r}")
    return _binomial_series_q_pow(x, ctx)


def q_bracket(x, ctx: QContext) -> Scalar:
    """[x]_q = (1 - q^x)/(1 - q); equals 1 + q + ... + q^(x-1) for x >= 0."""
    if isinstance(x, int) and 0 <= x <= 256:
        acc = ctx.zero()
        term = ctx.one()
        for _ in range(x):
            acc = acc + term
            term = term * ctx.q
        return acc
    qx = q_pow(x, ctx)
    return (ctx.one() - qx) / (ctx.one() - ctx.q)


def reflected_bracket(x, n: int, ctx: QContext) -> Scalar:
    """[1-x]_{1/q}^n = (1 - [x]_q)^n."""
    if n < 0:
        raise DomainError("power must be nonnegative")
    base = ctx.one() - q_bracket(x, ctx)
    return base ** n


def invert_q(ctx: QContext) -> QContext:
    """The context with q replaced by 1/q (same backend)."""
    if ctx.is_symbolic:
        return QContext("symbolic", ctx.q.reciprocal())
    return QContext("padic", ctx.one() / ctx.q, ctx.pctx)


def scalars_equal(a: Scalar, b: Scalar, ctx: QContext, valuation=None) -> bool:
    """Exact equality (symbolic) or agreement to a valuation (padic).

    With ``valuation=None`` a padic comparison uses the full shared
    certified precision.
    """
    if ctx.is_symbolic:
        return a == b
    t = valuation
    if t is None:
        t = min(a.prec, b.prec)
        if t == inf:
            t = ctx.pctx.precision
    return a.equals_to_precision(b, t)
