"""q-analogue Bernstein basis polynomials.

B_{k,n}(x, q) = C(n,k) [x]_q^k (1 - [x]_q)^{n-k}; the second factor is the
reflected bracket [1-x]_{1/q}^{n-k}.  Their integrals live in ``integral``.

At the indeterminate q and an integer x, with [x]_q = P/q^s, the value is
C(n,k) P^k (q^s - P)^{n-k} / q^{sn}: the powers are taken on raw Z[q] lists
and the value is canonicalized once, then read at the context's q
(``QContext.read``).  Padic contexts and rational x take the products of
the backend's scalars.
"""

from __future__ import annotations

from math import comb

from .errors import DomainError
from .qfield import (
    QContext,
    RationalFunction,
    Scalar,
    _zcomb,
    _zmul,
    _zpow,
    check_zq_budget,
    q_bracket,
    zq_bracket,
)
from .record import Record

__all__ = ["BernsteinSpec", "bernstein_eval"]


class BernsteinSpec(Record):
    """Index pair (k, n) with 0 <= k <= n."""

    def __init__(self, k: int, n: int):
        if not 0 <= k <= n:
            raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
        self.k, self.n = k, n


def bernstein_eval(spec: BernsteinSpec, x, ctx: QContext) -> Scalar:
    """C(n,k) [x]_q^k (1 - [x]_q)^(n-k)."""
    k, n = spec.k, spec.n
    if not (ctx.is_symbolic and isinstance(x, int)):
        bx = q_bracket(x, ctx)
        return comb(n, k) * bx ** k * (ctx.one() - bx) ** (n - k)
    check_zq_budget(n, x)
    p, s = zq_bracket(x)
    rest = _zcomb(1, [0] * s + [1], -1, p)  # q^s (1 - [x]_q)
    num = _zmul(_zpow(p, k), _zpow(rest, n - k))
    return ctx.read(RationalFunction([comb(n, k) * c for c in num], [0] * (s * n) + [1]))
