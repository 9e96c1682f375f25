"""The identity catalog: one table, one verifier and the suite driver.

Each row of ``CATALOG`` declares an identity's parameters, the shape of its
report's ``parameters`` and a side function, which returns a reason string
for parameters outside the identity's hypotheses and otherwise
``(lhs, rhs, notes, quarantined)``.  ``verify`` runs a row and returns an
IdentityReport rather than raising on mismatch: a Fail verdict carries the
nonzero difference, out-of-hypothesis parameters short-circuit with
``domain_ok=False`` and no verdict, and instances probing a disputed
reading are marked ``quarantined`` so a suite can report them without
failing on them.

Identity catalog (the ``CATALOG`` keys, stable external labels):

  THM1          reflection duality of the bracket-power integral, both sides
                by independent Riemann runs; the oracle rules on the sign of
                the reflected closed form, and a refuted form fails the row.
  PROP2         beta_n(2) = beta_n / q^2 + n + 1 - 1/q          (n > 1)
  EQ6           Riemann integral of [1-x]_{1/q}^n equals (-q)^n beta_n(-1)
  EQ7           (-q)^n beta_n(-1) = beta_{n,1/q}(2)
  THM3          the same integral equals q^2 beta_{n,1/q} + n + 1 - q (n > 1)
  EQ9_EQ11      single Bernstein integral: direct and reflected routes
  EQ13_EQ14     two-factor product, both routes                  (n+m > 2k+1)
  THM4_COR5     s-factor product, both routes
  THM6          powered products, both routes (sum-index reading; the
                literal printed index is only distinguishable for s >= 3)
  EQ10_SYMMETRY B_{k,n}(x, q) = B_{n-k,n}(1-x, 1/q)
  Q_TO_1        beta_n -> ordinary Bernoulli at q = 1; xi_n has a pole there

Only THM1, EQ6 (padic only) and THM3 on the padic backend compare against
the Riemann oracle; the Bernstein identities compare the two closed routes of
``bernstein_power_product_integral``: reflected (the paper's route I, over
beta_{.,1/q}) and direct (route II, over beta_{.,q}).

JSON input: ``_grid_entry`` reads a grid entry against its row's parameter
types; the field types, a grid's own fields and ``SuiteConfig`` are config's.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import product
from math import isinf

from .bernstein import BernsteinSpec, bernstein_eval
from .carlitz import CarlitzTable, classical_bernoulli, eval_at_one, table_for
from .config import INT, INTS, ORACLE_TARGET, PAIRS, SuiteConfig, check_fields, one_of
from .errors import BudgetExceeded, DomainError, MaxLevelExceeded, PoleAtOne, PrecisionExhausted
from .integral import (
    BracketPower,
    ReflectedPower,
    _bernstein_shape,
    _reflected_sum,
    bernstein_power_product_integral,
    closed_one_minus_x_power,
    closed_reflected_power,
    integrate,
)
from .qfield import QContext, RationalFunction, Scalar, invert_q, q_pow
from .record import Record

__all__ = [
    "Verdict",
    "IdentityReport",
    "SuiteConfig",
    "CATALOG",
    "verify",
    "verify_theorem1",
    "default_grid",
    "run_suite",
    "suite_exit_status",
    "summarize",
]


class Verdict(Record):
    def __init__(self, kind: str, valuation=None, diff: Scalar | None = None):
        self.kind = kind  # "exact" | "valuation" | "fail"
        self.valuation, self.diff = valuation, diff

    @classmethod
    def exact(cls) -> "Verdict":
        return cls("exact")

    @classmethod
    def to_valuation(cls, t) -> "Verdict":
        return cls("valuation", valuation=t)

    @classmethod
    def fail(cls, diff, achieved=None) -> "Verdict":
        return cls("fail", valuation=achieved, diff=diff)

    @property
    def ok(self) -> bool:
        return self.kind != "fail"

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.valuation is not None:
            out["valuation"] = "inf" if isinf(self.valuation) else int(self.valuation)
        if self.diff is not None:
            out["diff"] = self.diff.to_json()
        return out


class IdentityReport(Record):
    def __init__(self, identity: str, parameters: dict, backend: str, domain_ok: bool = True,
                 verdict: Verdict | None = None, lhs: Scalar | None = None,
                 rhs: Scalar | None = None, quarantined: bool = False, notes: str = ""):
        self.identity = identity  # a CATALOG key
        self.parameters, self.backend, self.domain_ok = parameters, backend, domain_ok
        self.verdict = verdict  # set exactly when domain_ok
        self.lhs, self.rhs, self.quarantined, self.notes = lhs, rhs, quarantined, notes

    @property
    def passed(self) -> bool:
        # domain skips pass vacuously; quarantined failures do not fail a suite
        return not self.domain_ok or self.verdict.ok or self.quarantined

    def to_json(self) -> dict:
        lhs = None if self.lhs is None else self.lhs.to_json()
        if self.backend == "symbolic" and self.rhs == self.lhs:
            rhs = lhs  # the form is unique, so an equal right side prints the same
        else:
            rhs = None if self.rhs is None else self.rhs.to_json()
        return {
            "identity": self.identity,
            "parameters": self.parameters,
            "backend": self.backend,
            "domain_ok": self.domain_ok,
            "verdict": None if self.verdict is None else self.verdict.to_json(),
            "lhs": lhs,
            "rhs": rhs,
            "quarantined": self.quarantined,
            "notes": self.notes,
        }


def _compare(lhs: Scalar, rhs: Scalar, ctx: QContext, target: int) -> Verdict:
    """Exact comparison in symbolic mode, which ignores ``target``; in padic
    mode, agreement to valuation ``target``.

    A padic target above the shared certified precision shows up as a Fail
    with the achieved valuation attached, never as a silently weakened check.
    """
    if ctx.is_symbolic:
        # the canonical form is unique: only a failing row forms its difference
        return Verdict.exact() if lhs == rhs else Verdict.fail(lhs - rhs)
    diff = lhs - rhs
    achieved = diff._effective_valuation()
    if target > min(lhs.prec, rhs.prec):
        # cannot certify the requested agreement; report what is achieved
        return Verdict.fail(diff, achieved=achieved)
    if diff.is_zero() and achieved >= target:
        # bit-exact agreement at the shared certified precision
        return Verdict.exact()
    if achieved >= target:
        return Verdict.to_valuation(target)
    return Verdict.fail(diff, achieved=achieved)


class _Run(Record):
    """What a side function needs besides the identity's parameters."""

    def __init__(self, ctx: QContext, tbl: CarlitzTable, target: int, level_cap: int | None):
        self.ctx, self.tbl, self.target, self.level_cap = ctx, tbl, target, level_cap

    def integrate(self, f, ctx: QContext | None = None):
        """Adaptive integration that falls back to the best value on a miss."""
        return _oracle(f, ctx or self.ctx, self.target, self.level_cap)


@cache
def _oracle(f, ctx: QContext, target: int, level_cap: int | None):
    # one run per integrand and setting: EQ6 and THM3 share ReflectedPower(1, n)
    try:
        return integrate(f, ctx, target, level_cap).value, ""
    except MaxLevelExceeded as exc:
        return exc.result.value, str(exc)


# ---------------------------------------------------------------------------
# side functions: a skip reason, or (lhs, rhs, notes, quarantined)
# ---------------------------------------------------------------------------

_NEEDS_PADIC = "Riemann oracle requires the padic backend"


def _theorem1(run: _Run, n: int, x: int):
    """Both sides by independent Riemann runs under the two measures, plus
    the oracle's ruling on the sign of the reflected closed form for n >= 1."""
    ctx = run.ctx
    if ctx.is_symbolic:
        return _NEEDS_PADIC
    if n < 0:
        return "need n >= 0"
    lhs, note_l = run.integrate(BracketPower(1 - x, n), invert_q(ctx))
    rhs_int, note_r = run.integrate(BracketPower(x, n))
    rhs = (-1) ** n * q_pow(n, ctx) * rhs_int
    notes = "; ".join(s for s in (note_l, note_r) if s)
    if n >= 1:
        closed = closed_reflected_power(n, x, ctx)
        diff = lhs - closed
        printed, flipped = diff._effective_valuation(), (lhs + closed)._effective_valuation()
        agreements = f"(agreement {printed} vs {flipped} for the sign-flipped reading)"
        if not diff.is_zero() and printed < run.target:  # a certified digit differs
            rhs = closed
            ruling = (f"oracle refutes the reflected closed form as printed {agreements}; "
                      "the right side is that closed form")
        elif printed >= run.target > flipped:
            ruling = (
                f"oracle supports the reflected closed form as printed {agreements}; "
                "for even n the plain bracket-power closed form therefore needs the "
                "1/(1-q)^(n-1) prefactor, not 1/(q-1)^(n-1)"
            )
        else:  # the integral vanishes to the target, or the oracle falls short
            ruling = f"oracle cannot rule on the reflected closed form {agreements}"
        notes = f"{notes}; {ruling}" if notes else ruling
    return lhs, rhs, notes, False


def _prop2(run: _Run, n: int):
    if n <= 1:
        return "stated for n > 1 only"
    ctx, tbl = run.ctx, run.tbl
    rhs = tbl.beta(n) / ctx.q ** 2 + ctx.embed(n + 1) - ctx.one() / ctx.q
    return tbl.beta_poly(n, 2), rhs, "", False


def _reflected_image(run: _Run, n: int) -> Scalar:
    # (-q)^n beta_n(-1): the closed image of the integral of [1-x]_{1/q}^n
    return (-1) ** n * q_pow(n, run.ctx) * run.tbl.beta_poly(n, -1)


def _eq6(run: _Run, n: int):
    if run.ctx.is_symbolic:
        return _NEEDS_PADIC
    if n < 0:
        return "need n >= 0"
    value, note = run.integrate(ReflectedPower(1, n))
    return value, _reflected_image(run, n), note, False


def _eq7(run: _Run, n: int):
    if n < 0:
        return "need n >= 0"
    return _reflected_image(run, n), run.tbl.inverse_table().beta_poly(n, 2), "", False


def _theorem3(run: _Run, n: int):
    """Symbolically the integral is represented by its exact closed image
    (-q)^n beta_n(-1); padic runs use the Riemann oracle directly."""
    if n <= 1:
        return "stated for n > 1 only"
    rhs = closed_one_minus_x_power(n, run.ctx, run.tbl)
    if run.ctx.is_symbolic:
        return _reflected_image(run, n), rhs, "", False
    lhs, note = run.integrate(ReflectedPower(1, n))
    return lhs, rhs, note, False


def _routes(run: _Run, factors, first: str, second: str):
    """The two closed routes of one Bernstein integral, in report order."""
    return (bernstein_power_product_integral(factors, run.ctx, first),
            bernstein_power_product_integral(factors, run.ctx, second), "", False)


def _eq9_eq11(run: _Run, n: int, k: int):
    if not 0 <= k <= n:
        return "need 0 <= k <= n"
    if n <= k + 1:
        return "reflected route needs n > k + 1"
    return _routes(run, [(k, n, 1)], "direct", "reflected")


def _two_product(run: _Run, n: int, m: int, k: int):
    """Two equal-k factors; hypotheses m, n, k >= 0 with n + m > 2k + 1."""
    if min(n, m, k) < 0 or n + m <= 2 * k + 1:
        return "needs n + m > 2k + 1"
    return _routes(run, [(k, n, 1), (k, m, 1)], "reflected", "direct")


def _theorem4(run: _Run, n, k: int):
    """Reflected vs direct route for s equal-k factors; the equivalence
    domain is k, n_i >= 1 with sum n_i > s*k + 1 (k = 0 or n_i = 0 are
    direct-route-only)."""
    if not n:
        return "need at least one factor"
    if k < 1 or any(d < 1 for d in n):
        return "route I needs k >= 1 and every degree >= 1"
    if sum(n) <= len(n) * k + 1:
        return "needs sum n_i > s*k + 1"
    return _routes(run, [(k, d, 1) for d in n], "reflected", "direct")


def _theorem6(run: _Run, nm, k: int, reading: str):
    """Powered products; ``reading`` selects the reflected-route index
    convention.

    "sigma" reads the inverted-q index as sum_i n_i m_i - l (the adopted
    reading); "literal" keeps only the first and last products
    n_1 m_1 + n_s m_s - l, which differs for s >= 3 and is reported
    quarantined since it probes a disputed reading.
    """
    if not nm:
        return "need at least one factor"
    if k < 0 or any(n < 0 or m < 0 for n, m in nm):
        return "indices must be nonnegative"
    factors = [(k, n, m) for n, m in nm]
    coeff, a, b = _bernstein_shape(factors)  # b = sum m_i n_i - k sum m_i
    if b <= 1:
        return "needs sum m_i n_i > k sum m_i + 1"
    # the literal index n_1 m_1 + n_s m_s has no beta value to read below a
    top = nm[0][0] * nm[0][1] + nm[-1][0] * nm[-1][1]
    if reading == "literal" and coeff and top < a:
        return f"the literal index n_1 m_1 + n_s m_s = {top} is below a = k sum m_i = {a}"
    rhs = bernstein_power_product_integral(factors, run.ctx, "direct")
    if reading == "sigma":
        lhs = bernstein_power_product_integral(factors, run.ctx, "reflected")
        note = ("for s = 2 the literal printed index coincides with the "
                "sum reading; s >= 3 instances separate them") if len(nm) == 2 else ""
        return lhs, rhs, note, False
    if reading == "literal":
        # the reflected route with the inverted-q index top - l; a zero
        # coefficient is the zero integral, whatever the index
        lhs = coeff * _reflected_sum(a, a + b, top, run.tbl) if coeff else run.ctx.zero()
        return lhs, rhs, "probing the literal printed index n_1 m_1 + n_s m_s - l", True
    raise DomainError(f"unknown reading {reading!r}")


def _symmetry(run: _Run, k: int, n: int, x):
    """Pointwise q-symmetry B_{k,n}(x, q) = B_{n-k,n}(1 - x, 1/q)."""
    ctx = run.ctx
    if not 0 <= k <= n:
        return "need 0 <= k <= n"
    lhs = bernstein_eval(BernsteinSpec(k, n), x, ctx)
    rhs = bernstein_eval(BernsteinSpec(n - k, n), 1 - x, invert_q(ctx))
    return lhs, rhs, "", False


def _q_to_1(run: _Run, n: int, xi: bool):
    """beta_n degenerates to the ordinary Bernoulli number at q = 1; with
    ``xi`` the check is instead that xi_n has a pole there, and the side
    function gives its Verdict in place of the left side."""
    if not run.ctx.is_symbolic:
        return "q -> 1 evaluation is symbolic"
    if n < 0:
        return "need n >= 0"
    if xi and n < 2:  # xi_0 = 1 and xi_1 = 0
        return "the pole of xi_n at q = 1 is stated for n >= 2"
    tbl = run.tbl
    if xi:
        try:
            eval_at_one(tbl.xi(n))
        except PoleAtOne:
            return Verdict.exact(), None, "xi has the expected pole at q = 1", False
        return Verdict.fail(tbl.xi(n)), None, "xi unexpectedly finite at q = 1", False
    lhs = RationalFunction.from_fraction(eval_at_one(tbl.beta(n)))
    return lhs, RationalFunction.from_fraction(classical_bernoulli(n)), "", False


# ---------------------------------------------------------------------------
# the catalog and the verifier
# ---------------------------------------------------------------------------


# parameter types besides those of config.py
_BOOL = ("true or false", lambda v: isinstance(v, bool))
_READING = ('"sigma" or "literal"', lambda v: v in ("sigma", "literal"))


class _Entry(Record):
    def __init__(self, sides, params: dict, defaults: dict | None = None, shape=dict):
        self.sides = sides    # (run, **params) -> skip reason | (lhs, rhs, notes, quarantined)
        self.params = params  # parameter name -> its field type
        self.defaults = defaults or {}
        self.shape = shape    # (**params) -> the report's ``parameters``


CATALOG = {
    "THM1": _Entry(_theorem1, {"n": INT, "x": INT}),
    "PROP2": _Entry(_prop2, {"n": INT}),
    "EQ6": _Entry(_eq6, {"n": INT}),
    "EQ7": _Entry(_eq7, {"n": INT}),
    "THM3": _Entry(_theorem3, {"n": INT}),
    "EQ9_EQ11": _Entry(_eq9_eq11, {"n": INT, "k": INT}),
    "EQ13_EQ14": _Entry(_two_product, {"n": INT, "m": INT, "k": INT}),
    "THM4_COR5": _Entry(
        _theorem4, {"n": INTS, "k": INT},
        shape=lambda n, k: {"s": len(n), "n": list(n), "k": k}),
    "THM6": _Entry(
        _theorem6, {"nm": PAIRS, "k": INT, "reading": _READING},
        defaults={"reading": "sigma"},
        shape=lambda nm, k, reading: {"s": len(nm), "nm": [list(t) for t in nm],
                                      "k": k, "reading": reading}),
    "EQ10_SYMMETRY": _Entry(
        _symmetry, {"k": INT, "n": INT, "x": INT},
        shape=lambda k, n, x: {"k": k, "n": n, "x": str(x)}),
    "Q_TO_1": _Entry(_q_to_1, {"n": INT, "xi": _BOOL}, defaults={"xi": False}),
}


def verify(identity: str, params: dict, ctx: QContext, target: int = ORACLE_TARGET,
           level_cap: int | None = None) -> IdentityReport:
    """Verify one catalog entry with the given parameters.

    ``target`` is the padic comparison valuation and the valuation a
    Riemann-oracle side integrates to; the symbolic comparison is exact.  A
    side that runs out of certified digits or over the work budget skips
    the row with the error as its note.
    """
    entry = CATALOG[identity]
    params = {**entry.defaults, **params}
    shape = entry.shape(**params)
    try:
        sides = entry.sides(_Run(ctx, table_for(ctx), target, level_cap), **params)
    except (BudgetExceeded, PrecisionExhausted) as exc:
        sides = str(exc)
    if isinstance(sides, str):
        return IdentityReport(identity, shape, ctx.backend, domain_ok=False, notes=sides)
    lhs, rhs, notes, quarantined = sides
    if isinstance(lhs, Verdict):
        verdict, lhs = lhs, None
    else:
        verdict = _compare(lhs, rhs, ctx, target)
    return IdentityReport(identity, shape, ctx.backend, verdict=verdict, lhs=lhs,
                          rhs=rhs, quarantined=quarantined, notes=notes)


# the one named entry point left: the acceptance test imports it
def verify_theorem1(n: int, x: int, ctx: QContext, target: int = ORACLE_TARGET,
                    level_cap: int | None = None) -> IdentityReport:
    return verify("THM1", {"n": n, "x": x}, ctx, target, level_cap)


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------


_ENTRY_FIELDS = {"identity": one_of(CATALOG),
                 "params": ("a JSON object", lambda v: isinstance(v, dict))}


def _grid_entry(entry) -> tuple:
    """(identity, params) of a grid entry: an object with the fields
    ``identity`` and optional ``params``, or an [identity, params] pair."""
    if isinstance(entry, list) and len(entry) == 2:
        entry = dict(zip(_ENTRY_FIELDS, entry))
    check_fields("grid entry", entry, _ENTRY_FIELDS, optional=("params",))
    name, params = entry["identity"], entry.get("params", {})
    check_fields(f"{name} params", params, CATALOG[name].params, CATALOG[name].defaults)
    return name, params


def default_grid(backend: str) -> list:
    """The built-in verification grid.

    Symbolic: the full exact-identity sweep (plus q->1 degeneration,
    pointwise symmetry, and the disputed-reading probes at s = 3).
    Padic: a sample of every oracle-backed identity at the default target,
    the same for every prime.  Each oracle integrand is a polynomial in q^x,
    so its integral is extrapolated from the level sums computed;
    at the default precision and target every entry verifies at p = 3, 5
    and 7 alike.  Wider numeric sweeps live in the test suite.
    """
    grid = []
    if backend == "symbolic":
        for n in range(2, 9):
            grid.append(("PROP2", {"n": n}))
        for n in range(0, 7):
            grid.append(("EQ7", {"n": n}))
        for n in range(2, 9):
            grid.append(("THM3", {"n": n}))
        for n in range(0, 9):
            for k in range(0, n - 1):
                grid.append(("EQ9_EQ11", {"n": n, "k": k}))
        for n in range(0, 6):
            for m in range(0, 6):
                for k in range(0, (n + m) // 2 + 1):
                    if n + m > 2 * k + 1:
                        grid.append(("EQ13_EQ14", {"n": n, "m": m, "k": k}))
        for s in (1, 2, 3):
            for combo in product(range(1, 5), repeat=s):
                for k in range(1, 5):
                    if sum(combo) > s * k + 1:
                        grid.append(("THM4_COR5", {"n": list(combo), "k": k}))
        # s = 2, m_i <= 2, n_i <= 3
        for n1, n2, m1, m2 in product(range(1, 4), range(1, 4), range(1, 3), range(1, 3)):
            for k in range(0, 4):
                if n1 * m1 + n2 * m2 > k * (m1 + m2) + 1:
                    grid.append(("THM6", {"nm": [[n1, m1], [n2, m2]], "k": k}))
        # disputed-reading probes: s = 3 separates the two index readings
        for nm in (((2, 1), (1, 1), (2, 1)), ((3, 1), (2, 1), (1, 1))):
            grid.append(("THM6", {"nm": [list(t) for t in nm], "k": 1,
                                  "reading": "literal"}))
            grid.append(("THM6", {"nm": [list(t) for t in nm], "k": 1,
                                  "reading": "sigma"}))
        for n in range(0, 9):
            for k in range(0, n + 1):
                for x in (0, 1, 2):
                    grid.append(("EQ10_SYMMETRY", {"k": k, "n": n, "x": x}))
        for n in range(0, 13):
            grid.append(("Q_TO_1", {"n": n}))
        for n in range(2, 7):
            grid.append(("Q_TO_1", {"n": n, "xi": True}))
    else:
        for n in range(0, 4):
            for x in (0, 1, 2):
                grid.append(("THM1", {"n": n, "x": x}))
        for n in range(2, 5):
            grid.append(("PROP2", {"n": n}))
        for n in range(0, 4):
            grid.append(("EQ7", {"n": n}))
            grid.append(("EQ6", {"n": n}))
        for n in range(2, 5):
            grid.append(("THM3", {"n": n}))
        grid.append(("EQ9_EQ11", {"n": 3, "k": 1}))
        grid.append(("EQ9_EQ11", {"n": 4, "k": 1}))
        grid.append(("EQ13_EQ14", {"n": 2, "m": 2, "k": 1}))
        grid.append(("THM4_COR5", {"n": [2, 3], "k": 1}))
        grid.append(("THM6", {"nm": [[2, 2], [2, 1]], "k": 1}))
        for (k, n) in ((0, 2), (1, 3), (2, 4)):
            for x in (0, 1, 2):
                grid.append(("EQ10_SYMMETRY", {"k": k, "n": n, "x": x}))
    return grid


def run_suite(config: SuiteConfig) -> list:
    """Run the configured grid; one report per entry, in grid order."""
    ctx = config.context()
    return [verify(name, params, ctx, config.target_valuation, config.level_cap)
            for name, params in config.grid()]


def _corrupted(report: IdentityReport, ctx: QContext) -> IdentityReport:
    """The report with the sign of its right side flipped and re-verdicted
    at valuation 1: ``selftest --corrupt`` proves a failure is detected."""
    flipped = -report.rhs
    verdict = _compare(report.lhs, flipped, ctx, 1)
    return IdentityReport(report.identity, {**report.parameters, "corrupted": True},
                          report.backend, verdict=verdict, lhs=report.lhs,
                          rhs=flipped, notes="self-test sign flip")


def summarize(reports) -> dict:
    total = len(reports)
    skipped = sum(1 for r in reports if not r.domain_ok)
    quarantined_failures = sum(
        1 for r in reports if r.domain_ok and r.quarantined and not r.verdict.ok
    )
    failed = sum(1 for r in reports if not r.passed)
    passed = total - failed - skipped
    return {
        "total": total,
        "passed": passed,
        "failed": failed,
        "skipped_out_of_domain": skipped,
        "quarantined_failures": quarantined_failures,
    }


def suite_exit_status(reports) -> int:
    return 1 if any(not r.passed for r in reports) else 0


# one encoder for every line: json.dumps builds one per call
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def report_lines(reports) -> str:
    """One JSON line per report, each ending in a newline."""
    return "".join([_encode(r.to_json()) + "\n" for r in reports])


def summary_line(counts: dict) -> str:
    """The closing line of a report stream: ``counts`` as ``summarize`` gives them."""
    return _encode({"summary": counts}) + "\n"


def reports_to_jsonl(reports) -> str:
    return report_lines(reports) + summary_line(summarize(reports))
