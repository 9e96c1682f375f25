"""Fixed-precision p-adic arithmetic with valuation tracking.

Numbers are stored as ``p^v * unit`` where the unit is an integer not
divisible by p, kept modulo ``p^(prec - v)``.  ``prec`` is the certified
absolute precision: the value is guaranteed modulo ``p^prec``.  Exact
rational inputs enter with ``prec = v + K`` (K stored unit digits), so
``|x|_p = p^(-v)`` and the normalization ``|p|_p = 1/p`` hold on the nose.

Precision propagates by the usual interval rules: add/sub take the min of
the absolute precisions, multiplication takes ``min(v_a + A_b, v_b + A_a)``
and division by a valuation-w element costs w digits of absolute precision
on top of that.  All operations are pure; values are immutable and safe to
share between threads.
"""

from __future__ import annotations

from math import inf, isinf

from .errors import (
    ContextMismatch,
    DivisionByZero,
    PrecisionExhausted,
    RequestedPrecisionNotCertified,
)
from .record import Record

__all__ = ["PadicContext", "PadicNumber", "int_valuation"]


def _is_odd_prime(n: int) -> bool:
    # Deterministic trial division; the primes used here are small.
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def int_valuation(n: int, p: int):
    """p-adic valuation of an integer; +inf for 0."""
    if n == 0:
        return inf
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicContext(Record):
    """An odd prime together with the working precision K for exact inputs."""

    def __init__(self, prime: int, precision: int):
        if not _is_odd_prime(prime):
            raise ValueError(f"prime must be an odd prime >= 3, got {prime}")
        if precision < 1:
            raise ValueError(f"working precision must be >= 1, got {precision}")
        self.prime, self.precision = prime, precision


class PadicNumber:
    """An element of Q_p with certified absolute precision.

    The canonical zero is the unique value with valuation +inf; an exact
    zero additionally has infinite precision, while a zero produced by
    cancellation keeps the (finite) precision at which it is certified.
    """

    __slots__ = ("ctx", "v", "unit", "prec")

    def __init__(self, ctx: PadicContext, v, unit: int, prec):
        p = ctx.prime
        if not isinf(prec):
            prec = int(prec)
        if isinf(v) or unit == 0:
            v, unit = inf, 0
        else:
            ndigits = prec - v
            if ndigits <= 0:
                v, unit = inf, 0
            else:
                if not isinf(ndigits):
                    unit %= p ** ndigits
                if unit == 0:
                    v = inf
                else:
                    shift = int_valuation(unit, p)
                    if shift:
                        v += shift
                        unit //= p ** shift
                        if prec - v <= 0:
                            v, unit = inf, 0
        self.ctx = ctx
        self.v = v
        self.unit = unit
        self.prec = prec

    # -- constructors -------------------------------------------------

    @classmethod
    def _of_unit(cls, ctx: PadicContext, v, unit: int, prec) -> "PadicNumber":
        """p^v * unit for a unit already reduced modulo p^(prec - v), with
        prec - v >= 1: that is the normal form, so no pass through ``__init__``."""
        x = object.__new__(cls)
        x.ctx, x.v, x.unit, x.prec = ctx, v, unit, prec
        return x

    @classmethod
    def zero(cls, ctx: PadicContext, prec=inf) -> "PadicNumber":
        return cls(ctx, inf, 0, prec)

    @classmethod
    def from_fraction(cls, value: int | Fraction, ctx: PadicContext) -> "PadicNumber":
        """Embed an int or Fraction into Q_p with K certified unit digits."""
        num, den = value.numerator, value.denominator
        if num == 0:
            return cls.zero(ctx)
        p, mod = ctx.prime, ctx.prime ** ctx.precision
        vn, vd = int_valuation(num, p), int_valuation(den, p)
        # a unit times a unit's inverse, reduced mod p^K: already the normal form
        unit = num // p ** vn * pow(den // p ** vd, -1, mod) % mod
        v = vn - vd
        return cls._of_unit(ctx, v, unit, v + ctx.precision)

    # -- predicates and accessors -------------------------------------

    def is_zero(self) -> bool:
        return self.unit == 0

    @property
    def valuation(self):
        """nu_p of the value (+inf for zero)."""
        return self.v

    def unit_digits(self) -> tuple:
        """Base-p digits of the unit part, little-endian, length prec - v."""
        if self.is_zero():
            return ()
        p = self.ctx.prime
        n = self.prec - self.v
        u = self.unit
        digits = []
        for _ in range(n):
            u, d = divmod(u, p)
            digits.append(d)
        return tuple(digits)

    # -- coercion ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicNumber):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ContextMismatch(
                    f"operands use different contexts: {self.ctx} vs {other.ctx}"
                )
            return other
        if not isinstance(other, int):
            from fractions import Fraction  # loaded already by whoever made a Fraction
            if not isinstance(other, Fraction):
                raise TypeError(f"cannot combine PadicNumber with {type(other).__name__}")
        return PadicNumber.from_fraction(other, self.ctx)

    def _effective_valuation(self):
        # Lower bound on the true valuation: exact for nonzero values,
        # the certified precision for (computed) zeros.
        return self.prec if self.is_zero() else self.v

    # -- ring operations ----------------------------------------------

    def truncated(self, prec) -> "PadicNumber":
        """The same value certified only modulo p^prec (never gains digits)."""
        if prec >= self.prec:
            return self
        return PadicNumber(self.ctx, self.v, self.unit, prec)

    def __add__(self, other):
        other = self._coerce(other)
        prec = min(self.prec, other.prec)
        if self.is_zero():
            return other.truncated(prec)
        if other.is_zero():
            return self.truncated(prec)
        p = self.ctx.prime
        w = min(self.v, other.v)
        z = self.unit * p ** (self.v - w) + other.unit * p ** (other.v - w)
        return PadicNumber(self.ctx, w, z, prec)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero():
            return self
        mod = self.ctx.prime ** (self.prec - self.v)
        return PadicNumber._of_unit(self.ctx, self.v, mod - self.unit, self.prec)

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        prec = min(
            self._effective_valuation() + other.prec,
            other._effective_valuation() + self.prec,
        )
        if self.is_zero() or other.is_zero():
            return PadicNumber.zero(self.ctx, prec)
        # a product of units is a unit; prec - v is the least relative precision
        v = self.v + other.v
        unit = self.unit * other.unit
        if not isinf(prec):
            unit %= self.ctx.prime ** (prec - v)
        return PadicNumber._of_unit(self.ctx, v, unit, prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise DivisionByZero("division by zero (to certified precision)")
        if self.is_zero():
            return PadicNumber.zero(self.ctx, self.prec - other.v)
        rel = min(self.prec - self.v, other.prec - other.v)
        v = self.v - other.v
        prec = v + rel
        if prec <= 0:
            raise PrecisionExhausted(
                f"division result would be certified only modulo p^{prec}"
            )
        mod = self.ctx.prime ** rel
        unit = self.unit % mod * pow(other.unit % mod, -1, mod) % mod
        return PadicNumber._of_unit(self.ctx, v, unit, prec)

    def __pow__(self, e: int):
        # every product in square-and-multiply keeps the base's relative
        # precision prec - v, so the power is one modular pow on the unit
        if not isinstance(e, int):
            return NotImplemented
        if e <= 0:
            one = PadicNumber.from_fraction(1, self.ctx)
            return one if e == 0 else (one / self) ** -e
        if self.is_zero():
            return PadicNumber.zero(self.ctx, e * self.prec)
        rel = self.prec - self.v
        unit = self.unit ** e if isinf(rel) else pow(self.unit, e, self.ctx.prime ** rel)
        return PadicNumber._of_unit(self.ctx, e * self.v, unit, e * self.v + rel)

    # -- comparisons ---------------------------------------------------

    # unreached by the CLI, kept: scalars_equal, which the acceptance test uses, calls it
    def equals_to_precision(self, other: "PadicNumber", t: int) -> bool:
        """True iff nu_p(self - other) >= t; requires t to be certified."""
        other = self._coerce(other)
        if t > min(self.prec, other.prec):
            raise RequestedPrecisionNotCertified(
                f"requested agreement modulo p^{t} exceeds certified precision "
                f"min({self.prec}, {other.prec})"
            )
        return (self - other)._effective_valuation() >= t

    def __eq__(self, other):
        # Representation equality (context, valuation, digits, precision);
        # use equals_to_precision for certified value comparison.
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.v == other.v
            and self.unit == other.unit
            and self.prec == other.prec
        )

    def __hash__(self):
        return hash((self.ctx, self.v, self.unit, self.prec))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        """{"p": int, "valuation": int|"inf", "digits": [...], "precision": int|"inf"}"""
        return {
            "p": self.ctx.prime,
            "valuation": "inf" if isinf(self.v) else int(self.v),
            "digits": [int(d) for d in self.unit_digits()],
            "precision": "inf" if isinf(self.prec) else int(self.prec),
        }

    # kept for pytest, which prints it when an assertion on a value fails
    def __repr__(self):
        if self.is_zero():
            tail = "inf" if isinf(self.prec) else self.prec
            return f"O({self.ctx.prime}^{tail})"
        shown = self.unit_digits()[:8]
        ell = "..." if self.prec - self.v > 8 else ""
        return (
            f"{self.ctx.prime}-adic(v={self.v}, digits={list(shown)}{ell}, "
            f"prec={self.prec})"
        )
