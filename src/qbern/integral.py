"""The p-adic q-integral on Z_p: definitional Riemann sums plus closed forms.

The level-N Riemann sum of f is ``(1/[p^N]_q) sum_{x<p^N} q^x f(x)``; the
measure of a residue class x + p^N Z_p is q^x/[p^N]_q, and the weights sum
to 1 exactly because ``sum_{x<p^N} q^x = [p^N]_q`` (the evaluator divides
by the accumulated weight sum, so this holds on the nose).

The adaptive controller raises the level until a proven certificate reaches
the target valuation.  Each integrand is a polynomial ``sum_j g_j u^j`` of
degree d in u = q^x, so the level-N sum is exactly ``P(t_N)`` with
``t_N = q^(p^N)`` and

    P(t) = sum_j g_j (1-q)/(1-q^(j+1)) (1 + t + ... + t^j),

and the integral is P(1).  After every level N the controller evaluates at
t = 1 the polynomial through the sums of levels 1..N (Neville's scheme).
That is P(1) itself when there are at least d + 1 of them; with fewer, the
interpolation error is the product of the ``1 - t_N`` times a divided
difference of P, whose valuation is at least the least coefficient
valuation of P.  Either way the certificate is a proven bound and no
closed form is consulted, and the value is truncated to the bound, so it
never carries an unproven digit.  Agreement of two consecutive sums proves
nothing (they can agree by accident), so no stop rule reads it.

Each level's sum goes on from the power sums of the level before (its
residues are a prefix) in one block step, the tableau gains one diagonal
per level and each gap 1 - t_N is memoized: bit for bit the results of
restarting at x = 0 and rebuilding the tableau every level, which the tests
keep as the reference.

The Riemann evaluator is the ground-truth oracle here: the closed forms
below are validated against it (by the identities module for the bracket
powers, by the tests for the Bernstein routes) rather than trusted.  Every
Bernstein integral goes through ``bernstein_power_product_integral``: the
integrand is c [x]_q^a (1 - [x]_q)^b, expanded over beta_{.,q} (the direct
route) or beta_{.,1/q} (the reflected route).

The closed form for the plain bracket power integral is implemented with
the prefactor ``1/(1-q)^(m-1)``: that is the reading forced by its own
degeneration to the q-Bernoulli values (and the one the oracle supports);
the variant with ``1/(q-1)^(m-1)`` fails for even m by the sign (-1)^(m-1).
The printed reflected closed form is this form at 1/q (THM1's reflection
duality), so the oracle's ruling on it rules on this prefactor.

Each integrand has one shape (``_shape``): ``scale * y^a (1 - y)^b`` for
y = [x + c]_q or [c - x]_{1/q}, that is (1 - r q^x)/(1 - s) with (r, s) =
(q^c, q) or (q^-c, 1/q); no other integrand exists.  ``riemann_sum``, the
one Riemann evaluator, reads it, and a constant (a + b = 0) forms no
1/(1 - s).  ``_expand`` writes (1 - r u)^a (r u - s)^b in u = q^x in the
ring it is given: the certificate reads its coefficient valuations in ints
modulo p^K, and the bracket-power closed form integrates it term by term
in the ring it sums in.  Since ``QContext`` carries q to exactly K digits,
``riemann_sum`` sums in plain ints with no division, bit for bit as the
same sum taken term by term in ``PadicNumber`` arithmetic, which the tests
keep as its reference.

JSON input: ``integrand_from_json`` reads an integrand with config's field types.
"""

from __future__ import annotations

from functools import cache
from itertools import count
from math import comb, inf, isinf
from operator import mul

from .carlitz import CarlitzTable, table_for
from .config import INT, TRIPLES, check_fields, one_of
from .errors import DivisionByZero, DomainError, MaxLevelExceeded, PrecisionExhausted
from .padic import PadicNumber, int_valuation
from .qfield import QContext, Scalar, _int_bracket, invert_q, q_pow
from .record import Record

__all__ = [
    "BracketPower",
    "ReflectedPower",
    "BernsteinProduct",
    "Integrand",
    "RiemannResult",
    "riemann_sum",
    "integrate",
    "closed_bracket_power",
    "closed_reflected_power",
    "closed_one_minus_x_power",
    "bernstein_power_product_integral",
    "integrand_from_json",
]


# ---------------------------------------------------------------------------
# integrands
# ---------------------------------------------------------------------------


class BracketPower(Record):
    """x -> [x + offset]_q^power."""

    def __init__(self, offset: int, power: int):
        if power < 0:
            raise DomainError("power must be nonnegative")
        self.offset, self.power = offset, power


class ReflectedPower(Record):
    """x -> [offset - x]_{1/q}^power."""

    def __init__(self, offset: int, power: int):
        if power < 0:
            raise DomainError("power must be nonnegative")
        self.offset, self.power = offset, power


class BernsteinProduct(Record):
    """x -> prod_i B_{k_i, n_i}(x, q)^{m_i}; factors are (k, n, m) triples."""

    def __init__(self, factors: tuple):
        self.factors = tuple(tuple(f) for f in factors)
        for k, n, m in self.factors:
            if not 0 <= k <= n:
                raise DomainError(f"need 0 <= k <= n in factor {(k, n, m)}")
            if m < 0:
                raise DomainError(f"power must be nonnegative in factor {(k, n, m)}")


Integrand = BracketPower | ReflectedPower | BernsteinProduct


class RiemannResult(Record):
    """Adaptive integration outcome: the value, the level reached, and the
    certificate ``stabilization_valuation`` with its kind ``certificate``.

    ``exact-degree``: at least d + 1 levels went into the extrapolated
    value, so the certificate is its tracked precision.  ``a-priori-bound``:
    fewer levels, so it is the interpolation error bound.  Both are proven
    lower bounds on the valuation of the error.  ``none``: no digit is
    certified, and the certificate is -inf.  No other kind exists.  The
    value's precision never exceeds the certificate (nor 0 under ``none``).
    ``history[i]`` is the raw difference valuation between the sums at
    levels i+1 and i+2, for every level summed: on a miss it runs past
    ``level``."""

    def __init__(self, value: Scalar, level: int, stabilization_valuation, certificate: str,
                 history: tuple = ()):
        self.value, self.level = value, level
        self.stabilization_valuation, self.certificate = stabilization_valuation, certificate
        self.history = history

    def to_json(self) -> dict:
        sv = self.stabilization_valuation
        return {
            "value": self.value.to_json(),
            "level": self.level,
            "stabilization_valuation": str(sv) if isinf(sv) else int(sv),
            "certificate": self.certificate,
            "history": ["inf" if isinf(h) else int(h) for h in self.history],
        }


# ---------------------------------------------------------------------------
# the definitional evaluator
# ---------------------------------------------------------------------------


def _bernstein_shape(factors):
    """(c, a, b) with prod_i B_{k_i,n_i}(x, q)^{m_i} = c [x]_q^a (1 - [x]_q)^b
    for (k, n, m) factors; c = 0 when some k_i > n_i has m_i > 0."""
    coeff = 1
    a = 0
    b = 0
    for k, n, m in factors:
        coeff *= comb(n, k) ** m
        a += k * m
        b += (n - k) * m
    return coeff, a, b


def _shape(f: Integrand):
    """(scale, a, b, c, reflected) with f = scale * y^a (1 - y)^b for the
    bracket y = [x + c]_q, or y = [c - x]_{1/q} when ``reflected``."""
    if isinstance(f, BracketPower):
        return 1, f.power, 0, f.offset, False
    if isinstance(f, ReflectedPower):
        return 1, f.power, 0, f.offset, True
    if isinstance(f, BernsteinProduct):
        return (*_bernstein_shape(f.factors), 0, False)
    raise DomainError(f"unknown integrand {f!r}")


def riemann_sum(f: Integrand, ctx: QContext, level: int, carry: list | None = None) -> Scalar:
    """The level-N q-Riemann sum (1/[p^N]_q) sum_{x<p^N} q^x f(x), summed
    in plain ints, one block of residues at a time.

    Its bracket y starts at [c]_s (s = q, or 1/q when reflected) and steps
    affinely with x, ``y_(x+1) = u y_x + gamma``: ``[x+c+1]_q = 1 + q[x+c]_q``
    (gamma = 1) or ``[c-x-1]_{1/q} = q([c-x]_{1/q} - 1)`` (gamma = -u), with
    u = ctx.q.unit (q carried to exactly K digits).  The terms are p-adic
    integers and are summed modulo p^K, all that the result reads, as the
    power sums S_k(m) = sum_{x<m} u^x y_x^k, k <= d = a + b: the weight sum is
    S_0(p^N) and the weighted sum sum_{i<=b} C(b,i) (-1)^i S_(a+i)(p^N).
    Every level is block steps from the single residue x = 0, where
    S_k(1) = y_0^k: ``_block_step`` takes the sums from m to p m residues.
    A nonempty ``carry`` from the previous level's call for f and ctx holds
    [m, [S_0(m), ..., S_d(m)]] with m = p^(N-1), the residues summed, so a
    carried level is one block step; the list is updated in place.

    The result, or the exception, is that of the same sum taken term by
    term in ``PadicNumber`` arithmetic with y = (1 - r q^x) (1/(1 - s)).
    That sum keeps K - 2 nu(q-1) digits of 1/(1 - s) and raises
    PrecisionExhausted when none is left.  Otherwise it certifies its
    weight sum to K and its weighted sum to exactly
    ``nu_p(scale) + K - nu(q-1)``: every bracket term has valuation >= 0 and
    precision K - nu(1-s) = K - nu(q-1), and some residue x makes a term a
    unit.  A constant (a + b = 0) forms no 1/(1-s), and there it is
    ``nu_p(scale) + K``.  Rebuilt with those precisions and divided by
    ``PadicNumber.__truediv__``, the two sums give its (v, unit, prec) and
    its exceptions.
    """
    if ctx.is_symbolic:
        raise DomainError("the Riemann evaluator requires the padic backend")
    if level < 1:
        raise DomainError("level must be >= 1")
    total = ctx.prime ** level
    pctx = ctx.pctx
    p, digits = pctx.prime, pctx.precision
    scale, a, b, c, reflected = _shape(f)
    e = ctx.q_minus_one_valuation if a + b else 0
    if 2 * e >= digits:
        raise PrecisionExhausted(
            f"division result would be certified only modulo p^{digits - 2 * e}"
        )
    shift = int_valuation(scale, p)
    mod = p ** digits
    u = ctx.q.unit
    gamma = -u if reflected else 1
    if carry:
        m, sums = carry
    else:
        y = _int_bracket(c, pow(u, -1, mod) if reflected else u, p, mod)
        m, sums = 1, [pow(y, k, mod) for k in range(a + b + 1)]
    while m < total:
        sums = _block_step(sums, u, gamma, p, mod)
        m *= p
    if carry is not None:
        carry[:] = m, sums
    weighted = sum((-1) ** i * comb(b, i) * sums[a + i] for i in range(b + 1)) % mod
    return (PadicNumber(pctx, 0, scale * weighted, shift + digits - e)
            / PadicNumber(pctx, 0, sums[0], digits))


def _block_step(sums: list, u: int, gamma: int, p: int, mod: int) -> list:
    """S_k(p m) from S_k(m), k <= d, modulo ``mod``, for any block length m.

    From the step, y_(x+m) = U y_x + G with U = u^m = 1 + (u - 1) S_0(m) and
    G = gamma [m]_u = gamma S_0(m), so the residues m..2m-1 give
    (L S)_k = sum_{i<=k} C(k,i) U^(i+1) G^(k-i) S_i(m), and the residues
    j m..(j+1) m - 1 give L^j S, the affine steps composing.  Then
    S(p m) = S + L(S + L(S + ...)), p - 1 products by L in Horner's scheme;
    row k of L comes from row k - 1 by Pascal's rule.
    """
    s0 = sums[0]
    big_u, g = (1 + (u - 1) * s0) % mod, gamma * s0 % mod
    rows = [[big_u]]
    for _ in sums[1:]:
        row = rows[-1]
        rows.append([(g * hi + big_u * lo) % mod for lo, hi in zip([0, *row], [*row, 0])])
    acc = sums
    for _ in range(p - 1):
        acc = [(s + sum(map(mul, r, acc))) % mod for s, r in zip(sums, rows)]
    return acc


def integrate(
    f: Integrand,
    ctx: QContext,
    target: int,
    level_cap: int | None = None,
) -> RiemannResult:
    """Sum levels 1, 2, ... and return at the first level whose certificate
    reaches the target valuation.

    The value after level N is the extrapolation to t = 1 over levels 1..N
    and the certificate its proven bound (``exact-degree`` or
    ``a-priori-bound``).  The value is truncated to its certificate, so it
    never carries a digit the certificate does not cover.  A certificate of no
    digit (<= 0) is recorded as -inf with kind ``none``.  The run ends short
    of the target at an explicit ``level_cap`` or at the first level whose
    sum cannot be formed at the working precision (it raises DivisionByZero
    or PrecisionExhausted); MaxLevelExceeded then carries the best result,
    the latest level whose certificate is the highest, with the history of
    every level summed.  At level 1 the error escapes.
    """
    if ctx.is_symbolic:
        raise DomainError("the Riemann evaluator requires the padic backend")
    if level_cap is not None and level_cap < 1:
        raise DomainError("level cap must be >= 1")
    valuations = _u_coefficient_valuations(f, ctx)
    carry, diagonal, gaps, history = [], [], [], []
    stop = f"within level cap {level_cap}"
    # uncapped, the run ends by level K: [p^N]_q has valuation N, so the weight sum vanishes
    for level in count(1) if level_cap is None else range(1, level_cap + 1):
        try:
            s = riemann_sum(f, ctx, level, carry)
        except (DivisionByZero, PrecisionExhausted) as exc:
            if level == 1:
                raise
            stop = f"before level {level} ({exc})"
            break
        if level > 1:
            history.append((s - last)._effective_valuation())
        last, value, bound, kind = s, s, 0, "none"
        if diagonal is not None:
            gaps.append(_gap(ctx, level))
            try:
                diagonal = _neville_step(diagonal, s, gaps)
            except (DivisionByZero, PrecisionExhausted):
                diagonal = None  # 1 - t_N vanishes to the working precision, and
                # every later tableau holds the entry that could not be formed
            else:
                value, bound = diagonal[-1], _certificate(valuations, diagonal[-1], level, ctx)
                kind = "exact-degree" if level >= len(valuations) else "a-priori-bound"
        res = RiemannResult(value.truncated(bound), level, bound if bound > 0 else -inf,
                            kind if bound > 0 else "none", tuple(history))
        if level == 1 or res.stabilization_valuation >= best.stabilization_valuation:
            best = res
        if best.stabilization_valuation >= target:
            return best
    raise MaxLevelExceeded(
        f"no certificate reaches valuation {target} {stop}; "
        f"best achieved valuation {best.stabilization_valuation}",
        result=best.replace(history=tuple(history)),
    )


def _expand(a: int, b: int, r, s, one) -> list:
    """The coefficients of (1 - r u)^a (r u - s)^b in u, in the ring of r and s."""
    poly = [one]
    for (c0, c1), power in (((one, -r), a), ((-s, r), b)):
        for _ in range(power):
            poly = [c0 * poly[0]] + [
                c0 * hi + c1 * lo for lo, hi in zip(poly, poly[1:])
            ] + [c1 * poly[-1]]
    return poly


def _u_coefficient_valuations(f: Integrand, ctx: QContext) -> list:
    """Lower bounds on the valuations of f's coefficients in u: f is
    scale (1 - s)^-(a+b) times the ``_expand`` of its shape, r and s are
    units and nu(1 - s) = nu(q - 1), so those of ``_expand`` plus a shift.

    The expansion is taken in ints and read modulo p^K, from q carried to
    exactly K digits: r = s^c for s = q, or 1/q when reflected.  A zero
    residue reads as K, as the precision of the padic zero does."""
    scale, a, b, c, reflected = _shape(f)
    p, digits = ctx.prime, ctx.pctx.precision
    mod = p ** digits
    s = pow(ctx.q.unit, -1 if reflected else 1, mod)
    shift = int_valuation(scale, p) - ctx.q_minus_one_valuation * (a + b)
    return [shift + min(int_valuation(g % mod, p), digits)
            for g in _expand(a, b, pow(s, c, mod), s, 1)]


def _neville_step(diagonal: list, s: Scalar, gaps: list) -> list:
    """The next diagonal of the Neville tableau at t = 1.

    S_i is the level-(i+1) sum and g_i = 1 - t_(i+1) its gap; T[i][w] is
    the value at t = 1 of the polynomial through S_i..S_(i+w).  ``diagonal``
    holds T[m-1-w][w] for w < m, s is S_m, ``gaps`` is the run's list of
    g_0..g_m, one ``_gap`` per level, and the new diagonal is
    T[m-w][w] = (g_m T[m-w][w-1] - g_(m-w) T[m-w+1][w-1]) / (g_m - g_(m-w)):
    the same operations on the same operands as the full tableau.  Its last
    entry is the extrapolation over all m + 1 levels.
    """
    m = len(diagonal)
    new = [s]
    for w in range(1, m + 1):
        gm, gi = gaps[m], gaps[m - w]
        new.append((gm * diagonal[w - 1] - gi * new[w - 1]) / (gm - gi))
    return new


@cache
def _gap(ctx: QContext, level: int) -> Scalar:
    """1 - t_N = 1 - q^(p^N)."""
    return ctx.one() - ctx.q ** (ctx.prime ** level)


def _certificate(valuations: list, value: Scalar, level: int, ctx: QContext):
    """The proven valuation of the error of ``value``, the extrapolation over
    levels 1..``level``; ``valuations`` bound P's coefficients."""
    if level >= len(valuations):
        return value.prec
    # The coefficients of P are sums of g_j (1-q)/(1-q^(j+1)) over j at or
    # above their index; nu(1 - q^(j+1)) = nu(1-q) + nu_p(j+1) and
    # nu(1 - t_N) = nu(1-q) + N by lifting the exponent.
    e, p = ctx.q_minus_one_valuation, ctx.prime
    mu = min(v - int_valuation(j + 1, p) for j, v in enumerate(valuations))
    return min(value.prec, mu + sum(e + n for n in range(1, level + 1)))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


# the largest m |x| whose bracket-power closed form is summed exactly: the
# exact value has about m |x| log2(q) bits
_EXACT_SPAN = 256


def closed_bracket_power(m: int, x, ctx: QContext) -> Scalar:
    """Closed form of the integral of [x + y]_q^m over y, which is beta_poly(m, x).

    With I_q(u^l) = (l+1)/[l+1]_q term by term over the g_l of
    (1 - q^x u)^m (``_expand``), it is sum_l (l+1) g_l/(1 - q^(l+1)) / (1-q)^(m-1);
    exponent 0 returns the exact 1.  The sum runs in the context's scalars,
    except on padic at an integer x with m |x| <= _EXACT_SPAN: there it runs
    in ``Fraction``s at the rational q and is embedded once, as
    ``QContext.read`` embeds a value, where in padic scalars its divisions
    would leave about K - (m+1) nu(q-1) digits.
    """
    if m < 0:
        raise DomainError("power must be nonnegative")
    if m == 0:
        return ctx.one()
    if ctx.is_symbolic or not isinstance(x, int) or m * abs(x) > _EXACT_SPAN:
        return _integrated(_expand(m, 0, q_pow(x, ctx), ctx.q, ctx.one()), ctx.q, ctx.one(), m)
    q = ctx.rational
    return ctx.embed(_integrated(_expand(m, 0, q ** x, q, 1), q, 1, m))


def _integrated(g: list, q, one, m: int):
    """sum_l (l+1) g_l/(1 - q^(l+1)) / (1-q)^(m-1) in the ring of q and the g_l."""
    acc = 0
    for l, c in enumerate(g):
        acc = acc + (l + 1) * c / (one - q ** (l + 1))
    return acc / (one - q) ** (m - 1)


def closed_reflected_power(n: int, x, ctx: QContext) -> Scalar:
    """Closed form of the integral of [1 - x + y]_{1/q}^n over y under the
    inverted measure: (q^n/(q-1)^(n-1)) sum_l C(n,l)(-1)^l q^{lx} (l+1)/(q^{l+1}-1).

    That is the bracket-power form at 1/q and 1 - x, so THM1's sign ruling
    on this printed form rules on the bracket-power prefactor.
    """
    return closed_bracket_power(n, 1 - x, invert_q(ctx))


def closed_one_minus_x_power(n: int, ctx: QContext, tbl: CarlitzTable | None = None) -> Scalar:
    """Closed form of the integral of [1 - x]_{1/q}^n: q^2 beta_{n,1/q} + n + 1 - q,
    the reflected sum with a = 0."""
    if n <= 1:
        raise DomainError("the closed form requires n > 1")
    return _power_integral_reflected(0, n, tbl or table_for(ctx))


# -- shared route sums -------------------------------------------------------
#
# Both integral routes for a product integrand reduce to the integral of
# [x]_q^a [1-x]_{1/q}^b:
#   direct    expands [1-x]_{1/q}^b = (1 - [x]_q)^b termwise over beta_{a+l,q},
#             which is the table's difference S(a, b) at q;
#   reflected expands [x]_q^a = (1 - [1-x]_{1/q})^a and applies the
#             one-minus-x closed form (needs b > 1 so each exponent is > 1),
#             whose beta part is the difference S(b, a) at 1/q.
# The two routes still read different values: B_{k,n}(x, q) = B_{n-k,n}(1-x, 1/q).

# kept as named entry points: the acceptance test imports both route sums
def _power_integral_direct(a: int, b: int, tbl: CarlitzTable) -> Scalar:
    return tbl.beta_difference(a, b)


@cache
def _power_integral_reflected(a: int, b: int, tbl: CarlitzTable) -> Scalar:
    if b <= 1:
        raise DomainError("the reflected route requires the [1-x] exponent > 1")
    return _reflected_sum(a, a + b, a + b, tbl)


def _reflected_sum(a: int, total: int, top: int, tbl: CarlitzTable) -> Scalar:
    """sum_l (-1)^(a+l) C(a,l) (total - l + 1 - q + q^2 beta_{top-l,1/q}).

    With top = total this is the reflected expansion; the index of the
    inverted-q values is the only place the reflected-route readings differ.
    The sum is c_a + q^2 S(top - a, a) with S the difference at 1/q, where
    sum_l (-1)^(a+l) C(a,l) (total - l + 1 - q) is c_0 = total + 1 - q,
    c_1 = -1 and c_a = 0 beyond.  On the padic backend S is the exact
    difference at the rational 1/q, embedded once.
    """
    ctx = tbl.ctx
    acc = ctx.q ** 2 * tbl.inverse_table().beta_difference(top - a, a)
    if a == 0:
        return ctx.embed(total + 1) - ctx.q + acc
    return acc - 1 if a == 1 else acc


def bernstein_power_product_integral(factors, ctx: QContext, route: str = "direct") -> Scalar:
    """Integral of prod_i B_{k_i,n_i}(x, q)^{m_i} dmu_q for (k, n, m) factors.

    The integrand is c [x]_q^a (1 - [x]_q)^b (``_bernstein_shape``).
    route="direct" expands it over beta_{.,q}; route="reflected" over
    beta_{.,1/q}, reading the inverted-q index as a + b - l, and needs b > 1.
    The identities' own hypotheses are checked by their side functions.
    """
    coeff, a, b = _bernstein_shape(factors)
    if coeff == 0:
        return ctx.zero()
    tbl = table_for(ctx)
    if route == "direct":
        return coeff * _power_integral_direct(a, b, tbl)
    if route == "reflected":
        return coeff * _power_integral_reflected(a, b, tbl)
    raise DomainError(f"unknown route {route!r}")


# ---------------------------------------------------------------------------
# JSON input
# ---------------------------------------------------------------------------


# integrand type -> (class, its fields)
_INTEGRANDS = {
    "bracket_power": (BracketPower, {"offset": INT, "power": INT}),
    "reflected_power": (ReflectedPower, {"offset": INT, "power": INT}),
    "bernstein_product": (BernsteinProduct, {"factors": TRIPLES}),
}
_INTEGRAND_TYPE = one_of(_INTEGRANDS)


def integrand_from_json(data) -> Integrand:
    """The integrand of a JSON form; malformed input raises DomainError."""
    kind = data.get("type") if isinstance(data, dict) else None
    # a list or an object is no type, and no dict key either
    cls, fields = _INTEGRANDS.get(kind if isinstance(kind, str) else None, (None, {}))
    check_fields("integrand", data, {"type": _INTEGRAND_TYPE, **fields})
    return cls(**{name: data[name] for name in fields})
