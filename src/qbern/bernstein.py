"""q-analogue Bernstein basis polynomials.

B_{k,n}(x, q) = C(n,k) [x]_q^k (1 - [x]_q)^{n-k}; the second factor is the
reflected bracket [1-x]_{1/q}^{n-k}.  Their integrals live in ``integral``.
"""

from __future__ import annotations

from math import comb

from .errors import DomainError
from .qfield import QContext, Scalar, q_bracket
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
    bx = q_bracket(x, ctx)
    return comb(n, k) * bx ** k * (ctx.one() - bx) ** (n - k)

