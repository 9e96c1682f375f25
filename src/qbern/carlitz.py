"""Carlitz q-Bernoulli numbers and polynomials.

The numbers beta_k(q) solve ``q(q*beta + 1)^k - beta_k = delta_{k,1}``
(umbral convention, beta_0 = 1), i.e. for k >= 1

    beta_k = (delta_{k,1} - q * sum_{i<k} C(k,i) q^i beta_i) / (q^{k+1} - 1),

and the unmodified xi_k solve the analogous relation without the leading q,
with divisor ``q^k - 1``.  The xi_k have a pole at q = 1 while the beta_k
degenerate to the ordinary Bernoulli numbers.

Symbolically the recurrence is run on raw numerators over the known common
denominators ``prod_j (q^j - 1)``, as int lists in Z[q] multiplied by the
Kronecker product of :mod:`qbern.qfield`; only the final, memoized value is
canonicalized, with the certified heuristic gcd (a GCDHEU candidate
accepted only when it divides both sides exactly, the pseudo-remainder
sequence as fallback).  The table at the indeterminate 1/q is that table
with q -> 1/q substituted, not a second recurrence.  On the padic backend
the table pre-validates the certified precision of the whole run using
nu_p(q^k - 1) = nu_p(q-1) + nu_p(k) (odd p, q = 1 mod p), so
PrecisionExhausted is raised eagerly with the offending step.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import DivisionByZero, DomainError, PoleAtOne, PrecisionExhausted
from .padic import int_valuation
from .qfield import (
    QContext,
    RationalFunction,
    Scalar,
    invert_q,
    q_bracket,
    q_pow,
)
from .qfield import _zmul  # the Z[q] product

__all__ = [
    "CarlitzTable",
    "classical_bernoulli",
    "eval_at_one",
    "table_for",
]

_ONE = Fraction(1)


def _q_power_minus_one_poly(j: int):
    # q^j - 1 as a dense integer coefficient list
    return [-1] + [0] * (j - 1) + [1]


class _Recurrence:
    """One of the two recurrences, over the scalars of any context.

    Entry k is ``(delta_{k,1} - [q] sum_{i<k} C(k,i) q^i v_i) / (q^{k+shift} - 1)``,
    the bracketed q present for beta.  On the padic backend the whole run
    to a requested index is first checked against the precision ledger.
    """

    def __init__(self, ctx: QContext, shift: int, leading_q: bool):
        self.ctx = ctx
        self.shift = shift          # divisor exponent is k + shift
        self.leading_q = leading_q  # True for beta (q * (q beta + 1)^k)
        self.values = [ctx.one()]

    def extend_to(self, n: int):
        if n < len(self.values):
            return
        if not self.ctx.is_symbolic:
            self._check_precision(n)
        for k in range(len(self.values), n + 1):
            self.values.append(self._step(k))

    def _check_precision(self, n: int):
        for k, remaining in enumerate(_ledger(self.ctx, self.shift, n), start=1):
            if remaining <= 0:
                raise PrecisionExhausted(
                    f"certified precision vanishes at recurrence step {k} "
                    f"(need more than {self.ctx.pctx.precision} digits to reach index {n})"
                )

    def _step(self, k: int) -> Scalar:
        ctx = self.ctx
        q = ctx.q
        s = ctx.zero()
        qi = ctx.one()
        for i in range(k):
            s = s + comb(k, i) * qi * self.values[i]
            qi = qi * q
        if self.leading_q:
            s = q * s
        num = (ctx.one() if k == 1 else ctx.zero()) - s
        return num / (q ** (k + self.shift) - ctx.one())


def _ledger(ctx: QContext, shift: int, n: int):
    """Yield the certified digits left after each recurrence step k = 1..n.

    LTE: nu_p(q^m - 1) = nu_p(q-1) + nu_p(m) for odd p, q = 1 mod p, and
    step k divides by q^(k+shift) - 1.
    """
    p = ctx.prime
    e = ctx.q_minus_one_valuation
    remaining = ctx.pctx.precision
    for k in range(1, n + 1):
        remaining -= e + int_valuation(k + shift, p)
        yield remaining


class _SymbolicIndeterminateRecurrence(_Recurrence):
    """Fast path when q is the indeterminate: integer-polynomial numerators.

    Entry k is stored as ``num_k / den_k`` with den_k the cumulative product
    of the divisors ``q^{shift+j} - 1`` for j = 1..k; numerators and
    denominators are plain int lists in Z[q], multiplied with the Kronecker
    product of :mod:`qbern.qfield`, so no gcd work happens until a value is
    exported as a :class:`RationalFunction`.
    """

    def __init__(self, ctx: QContext, shift: int, leading_q: bool):
        super().__init__(ctx, shift, leading_q)
        self.raw_num = [[1]]
        self.raw_den = [[1]]

    def _step(self, k: int) -> RationalFunction:
        # values[i] = raw_num[i] / raw_den[i], raw_den[i] | raw_den[k-1]
        prev_den = self.raw_den[k - 1]
        lead = 1 if self.leading_q else 0  # the factor q of beta
        total = []  # minus the q-weighted sum, the numerator for k > 1
        ratio = [1]
        # iterate i downward carrying raw_den[k-1]/raw_den[i]
        for i in range(k - 1, -1, -1):
            c = comb(k, i)
            term = _zmul(self.raw_num[i], ratio)
            power = i + lead  # multiply by q^i, and by q for beta
            total.extend([0] * (power + len(term) - len(total)))
            for j, t in enumerate(term, power):
                total[j] -= c * t
            if i > 0:
                ratio = _zmul(ratio, _q_power_minus_one_poly(i + self.shift))
        if k == 1:
            for j, t in enumerate(prev_den):
                total[j] += t
        while total and not total[-1]:
            total.pop()
        new_den = _zmul(prev_den, _q_power_minus_one_poly(k + self.shift))
        self.raw_num.append(total)
        self.raw_den.append(new_den)
        return RationalFunction(total, new_den)


class _Substituted:
    """The values of another recurrence with q -> 1/q substituted: the
    table at the indeterminate 1/q, read off the one at q."""

    def __init__(self, source: _Recurrence):
        self.source = source
        self.values = []

    def extend_to(self, n: int):
        self.source.extend_to(n)
        self.values.extend(v.substitute_reciprocal()
                           for v in self.source.values[len(self.values):n + 1])


class CarlitzTable:
    """Memoized beta_k and xi_k values for one context.

    The memo lists grow monotonically and entries are never invalidated;
    recomputation is bit-identical, so concurrent idempotent fills are
    harmless.
    """

    def __init__(self, ctx: QContext):
        self.ctx = ctx
        q = RationalFunction.indeterminate()
        if ctx.is_symbolic and ctx.q == q.reciprocal():
            base = table_for(invert_q(ctx))
            self._beta, self._xi = _Substituted(base._beta), _Substituted(base._xi)
            return
        recurrence = (_SymbolicIndeterminateRecurrence if ctx.is_symbolic and ctx.q == q
                      else _Recurrence)
        self._beta = recurrence(ctx, 1, True)
        self._xi = recurrence(ctx, 0, False)

    # -- the numbers ------------------------------------------------------

    def beta(self, n: int) -> Scalar:
        if n < 0:
            raise DomainError("index must be nonnegative")
        self._beta.extend_to(n)
        return self._beta.values[n]

    def xi(self, n: int) -> Scalar:
        if n < 0:
            raise DomainError("index must be nonnegative")
        self._xi.extend_to(n)
        return self._xi.values[n]

    # -- the polynomials --------------------------------------------------

    def beta_poly(self, n: int, x) -> Scalar:
        """beta_n(x) = sum_i C(n,i) beta_i q^{ix} [x]_q^{n-i}."""
        if n < 0:
            raise DomainError("index must be nonnegative")
        ctx = self.ctx
        qx = q_pow(x, ctx)
        bx = q_bracket(x, ctx)
        qx_pows = [ctx.one()]
        bx_pows = [ctx.one()]
        for _ in range(n):
            qx_pows.append(qx_pows[-1] * qx)
            bx_pows.append(bx_pows[-1] * bx)
        acc = ctx.zero()
        for i in range(n + 1):
            acc = acc + comb(n, i) * self.beta(i) * qx_pows[i] * bx_pows[n - i]
        return acc

    def beta_inverse_q(self, n: int) -> Scalar:
        """beta_n computed in the q -> 1/q context."""
        return self.inverse_table().beta(n)

    def inverse_table(self) -> "CarlitzTable":
        return table_for(invert_q(self.ctx))

    # -- precision ledger (padic) ------------------------------------------

    # unreached by the CLI, kept: the acceptance test checks the ledger with it
    def precision_ledger_bound(self, n: int) -> int:
        """Lower bound K - sum_k nu_p(divisor_k) on the certified precision
        of beta_n."""
        if self.ctx.is_symbolic:
            raise DomainError("the precision ledger applies to the padic backend")
        # the digits left only decrease, so the least is the last
        return min(_ledger(self.ctx, 1, n), default=self.ctx.pctx.precision)


# ---------------------------------------------------------------------------
# classical oracle and the q -> 1 degeneration
# ---------------------------------------------------------------------------

_BERNOULLI_CACHE = [Fraction(1)]


def classical_bernoulli(n: int) -> Fraction:
    """Ordinary Bernoulli number B_n (B_1 = -1/2), by the defining recurrence
    sum_{k=0}^{m} C(m+1, k) B_k = 0."""
    if n < 0:
        raise DomainError("index must be nonnegative")
    while len(_BERNOULLI_CACHE) <= n:
        m = len(_BERNOULLI_CACHE)
        s = sum(comb(m + 1, k) * _BERNOULLI_CACHE[k] for k in range(m))
        _BERNOULLI_CACHE.append(-s / (m + 1))
    return _BERNOULLI_CACHE[n]


def eval_at_one(f: RationalFunction) -> Fraction:
    """Substitute q = 1 after canonical cancellation; PoleAtOne if the
    reduced denominator vanishes there."""
    try:
        return f.evaluate(_ONE)
    except DivisionByZero:
        raise PoleAtOne("reduced denominator vanishes at q = 1") from None


# per-context memoized tables; recomputation is deterministic so sharing is safe
_TABLES: dict[QContext, CarlitzTable] = {}


def table_for(ctx: QContext) -> CarlitzTable:
    tbl = _TABLES.get(ctx)
    if tbl is None:
        tbl = CarlitzTable(ctx)
        _TABLES[ctx] = tbl
    return tbl
