"""Carlitz q-Bernoulli numbers and polynomials.

The numbers beta_k(q) solve ``q(q*beta + 1)^k - beta_k = delta_{k,1}``
(umbral convention, beta_0 = 1), i.e. for k >= 1

    beta_k = (delta_{k,1} - q * sum_{i<k} C(k,i) q^i beta_i) / (q^{k+1} - 1),

and the unmodified xi_k solve the analogous relation without the leading q,
with divisor ``q^k - 1``.  The xi_k have a pole at q = 1 while the beta_k
degenerate to the ordinary Bernoulli numbers.

Each value is a rational function of q, so one state serves every q.  The
:class:`CarlitzTable` at the indeterminate q holds it: the recurrence runs
on raw numerators in Z[q] over the known denominators
``prod_j (q^j - 1)``, by Horner's rule over those divisors, and only the
memoized value is canonicalized, by the certified heuristic gcd.  Every
other table, at 1/q or at a padic q, shares that state and reads a value
through its context's map ``QContext.read``: the identity at q, q -> 1/q
at 1/q, and on padic the value at the rational q embedded with K unit
digits.  A read maps the exact value afresh; the map is deterministic, so
every read is bit-identical.

The table also memoizes the differences S(a, b) = sum_{l<=b} (-1)^l C(b,l)
beta_{a+l}, the integral of [x]_q^a (1 - [x]_q)^b that every Bernstein
route sum reads.  A cell is one subtraction of two cells below it,
S(a, b) = S(a, b-1) - S(a+1, b-1), run on the values at q, so on padic no
subtraction of embedded values drops a certified digit.

The polynomials beta_n(x) = sum_i C(n,i) beta_i q^{ix} [x]_q^{n-i} at an
integer x are summed at q on the same raw numerators, over the common
denominator q^{ns} prod_j (q^{j+1} - 1) with [x]_q = P/q^s, and only the
sum is canonicalized and memoized, once per (n, x) for q and 1/q together.
A padic context or a rational x sums the terms in the backend's scalars.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb
from operator import sub

from .errors import DivisionByZero, DomainError, PoleAtOne
from .padic import int_valuation
from .qfield import (
    QContext,
    RationalFunction,
    Scalar,
    _zmul,
    check_zq_budget,
    invert_q,
    q_bracket,
    q_pow,
    zq_bracket,
)

__all__ = ["CarlitzTable", "classical_bernoulli", "eval_at_one", "table_for"]


# kind -> (shift, lead): entry k divides by q^(k + shift) - 1, and beta
# carries the leading factor q of q(q beta + 1)^k
_KINDS = {"beta": (1, 1), "xi": (0, 0)}


def _times_binomial(a: list, m: int) -> list:
    # a (q^m - 1) in Z[q]: a shifted by m, minus a
    out = [0] * m + a
    out[:len(a)] = map(sub, out[:len(a)], a)
    return out


def _zq_step(nums: list, dens: list, k: int, shift: int, lead: int) -> RationalFunction:
    """Entry k at the indeterminate q, from entries i = nums[i] / dens[i] with
    dens[i] = prod_{j=1..i} (q^{j+shift} - 1); appends the raw pair of entry k.

    Over dens[k-1] the numerator is Horner's rule over those divisors: acc =
    delta_{k,1} - q^lead nums[0], then acc (q^{i+shift} - 1) - C(k,i) q^{i+lead} nums[i]
    for i = 1..k-1; multiplying by q^m - 1 is a shift and a subtraction.
    """
    acc = [1] if k == 1 else []  # delta_{k,1} dens[0]
    for i in range(k):
        if i:
            acc = _times_binomial(acc, i + shift)
        c, num, power = comb(k, i), nums[i], i + lead  # q^i, and q for beta
        acc.extend([0] * (power + len(num) - len(acc)))
        acc[power:power + len(num)] = [a - c * t for a, t in zip(acc[power:], num)]
    while acc and not acc[-1]:
        acc.pop()
    nums.append(acc)
    dens.append(_times_binomial(dens[k - 1], k + shift))
    return RationalFunction(acc, dens[k])


def _differences(cells: dict, beta: list, a: int, b: int) -> None:
    """Fill cells[a, b] with the triangle below it: S(i, 0) = beta_i and
    S(i, j) = S(i, j-1) - S(i+1, j-1), in any ring of the beta_i."""
    for j in range(b + 1):
        for i in range(a, a + b - j + 1):
            if (i, j) not in cells:
                cells[i, j] = beta[i] if j == 0 else cells[i, j - 1] - cells[i + 1, j - 1]


class CarlitzTable:
    """beta_k and xi_k at one q, differences of the beta_k and, on symbolic,
    beta_n(x) at integer x: the exact values at the indeterminate q, held
    once per process, read through the context's map.

    The memos grow monotonically and entries are never invalidated;
    recomputation is bit-identical, so concurrent idempotent fills are
    harmless.
    """

    def __init__(self, ctx: QContext):
        self.ctx, self._out = ctx, ctx.read
        if ctx != QContext.symbolic():
            # the state of the table at the indeterminate q, read at this q
            at_q = table_for(QContext.symbolic())
            self._values, self._raw, self._cells, self._polys = (
                at_q._values, at_q._raw, at_q._cells, at_q._polys)
            return
        self._values = {kind: [ctx.one()] for kind in _KINDS}  # per kind, the values
        # the Z[q] step's raw numerators and denominators, per kind
        self._raw = {kind: ([[1]], [[1]]) for kind in _KINDS}
        self._cells = {}  # (a, b) -> the difference S(a, b) of the beta_k
        self._polys = {}  # (n, x) -> beta_n(x) at an integer x

    def _filled(self, kind: str, n: int) -> list:
        """The values of ``kind`` at the indeterminate q, extended to index n."""
        if n < 0:
            raise DomainError("index must be nonnegative")
        values, raw = self._values[kind], self._raw[kind]
        for k in range(len(values), n + 1):
            values.append(_zq_step(*raw, k, *_KINDS[kind]))
        return values

    # -- the numbers ------------------------------------------------------

    def beta(self, n: int) -> Scalar:
        return self._out(self._filled("beta", n)[n])

    def xi(self, n: int) -> Scalar:
        return self._out(self._filled("xi", n)[n])

    def beta_difference(self, a: int, b: int) -> Scalar:
        """S(a, b) = sum_{l<=b} (-1)^l C(b,l) beta_{a+l}, the b-th difference
        of the beta_k at a: the integral of [x]_q^a (1 - [x]_q)^b."""
        if a < 0 or b < 0:
            raise DomainError("index must be nonnegative")
        cells = self._cells
        if (a, b) not in cells:
            _differences(cells, self._filled("beta", a + b), a, b)
        return self._out(cells[a, b])

    # -- the polynomials --------------------------------------------------

    def beta_poly(self, n: int, x) -> Scalar:
        """beta_n(x) = sum_i C(n,i) beta_i q^{ix} [x]_q^{n-i}."""
        if n < 0:
            raise DomainError("index must be nonnegative")
        if self.ctx.is_symbolic and isinstance(x, int):
            polys = self._polys
            if (n, x) not in polys:
                polys[n, x] = self._zq_beta_poly(n, x)
            return self._out(polys[n, x])
        ctx = self.ctx
        qx = q_pow(x, ctx)
        bx = q_bracket(x, ctx)
        acc = ctx.zero()
        for i in range(n + 1):
            acc = acc + comb(n, i) * self.beta(i) * qx ** i * bx ** (n - i)
        return acc

    def _zq_beta_poly(self, n: int, x: int) -> RationalFunction:
        """beta_n(x) at the indeterminate q for an integer x, summed on raw
        Z[q] lists and canonicalized once.

        With [x]_q = P/q^s and q^{ix} = q^{i max(x, 0)} / q^{is}, every term
        has the denominator q^{ns} dens[i], so over q^{ns} dens[n] the
        numerator is Horner's rule over the beta divisors: acc (q^{i+1} - 1)
        + C(n,i) q^{i max(x, 0)} P^{n-i} nums[i] for i = 0..n.
        """
        check_zq_budget(n, x)
        self._filled("beta", n)
        nums, dens = self._raw["beta"]
        p, s = zq_bracket(x)
        p_pows = [[1]]
        for _ in range(n):
            p_pows.append(_zmul(p_pows[-1], p))
        acc = []
        for i in range(n + 1):
            if i:
                acc = _times_binomial(acc, i + 1)
            c, term, power = comb(n, i), _zmul(nums[i], p_pows[n - i]), i * max(x, 0)
            acc.extend([0] * (power + len(term) - len(acc)))
            acc[power:power + len(term)] = [a + c * t for a, t in zip(acc[power:], term)]
        return RationalFunction(acc, [0] * (n * s) + dens[n])

    def inverse_table(self) -> "CarlitzTable":
        return table_for(invert_q(self.ctx))

    # -- precision ledger (padic) ------------------------------------------

    # unreached by the CLI, kept: the acceptance test checks the ledger with it
    def precision_ledger_bound(self, n: int) -> int:
        """Lower bound K - sum_k nu_p(q^(k+1) - 1) on the certified precision
        of beta_n: beta_n prod_{k<=n} (q^(k+1) - 1) is a p-adic integer, so
        the embedded value's precision v + K is at least this bound (LTE:
        nu_p(q^m - 1) = nu_p(q - 1) + nu_p(m) for odd p, q = 1 mod p)."""
        ctx = self.ctx
        if ctx.is_symbolic:
            raise DomainError("the precision ledger applies to the padic backend")
        e = ctx.q_minus_one_valuation
        return ctx.pctx.precision - sum(e + int_valuation(k + 1, ctx.prime)
                                        for k in range(1, n + 1))


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
        return f.evaluate(1)
    except DivisionByZero:
        raise PoleAtOne("reduced denominator vanishes at q = 1") from None


# one memoized table per context; recomputation is deterministic so sharing is safe
@cache
def table_for(ctx: QContext) -> CarlitzTable:
    return CarlitzTable(ctx)
