#!/usr/bin/env python3
"""Measure Riemann-sum convergence against the closed forms.

For each prime and each structured integrand in the verification grid this
prints, per level N up to the acceptance test's level cap for that prime:

  * the valuation of S_N - closed_form (agreement with the limit),
  * the valuation of S_{N+1} - S_N (the raw level difference, no proof),
  * the proven bound ``integrate`` certifies after level N, and
  * the true agreement of the value it certifies with the closed form,

plus a summary of the achieved agreement at the cap.  The observed slack
(achieved valuation minus level) is what the test configuration freezes.
The exit status is 1 if any proven bound exceeds its true agreement.

Usage: python3 scripts/calibrate_convergence.py [--primes 3 5 7] [--precision 24]
"""

import argparse
import sys
import time

from qbern.carlitz import table_for
from qbern.integral import (
    BracketPower,
    ReflectedPower,
    closed_one_minus_x_power,
    integrate,
    riemann_sum,
)
from qbern.errors import MaxLevelExceeded
from qbern.qfield import QContext

# the level caps of acceptance criteria 3 and 4 (tests/test_acceptance.py)
LEVEL_CAPS = {3: 8, 5: 6, 7: 5}


def grid():
    for c in (0, 1, 2):
        for m in range(1, 7):
            yield BracketPower(c, m), ("beta_poly", m, c)
    for n in range(2, 7):
        yield ReflectedPower(1, n), ("one_minus_x", n, None)


def closed_value(tag, ctx, tbl):
    kind, a, b = tag
    if kind == "beta_poly":
        return tbl.beta_poly(a, b)
    return closed_one_minus_x_power(a, ctx, tbl)


def certified(f, ctx, level):
    """The best result ``integrate`` holds after summing levels 1..level."""
    try:
        return integrate(f, ctx, 10**6, level_cap=level)
    except MaxLevelExceeded as exc:
        return exc.result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--primes", type=int, nargs="+", choices=sorted(LEVEL_CAPS),
                    default=sorted(LEVEL_CAPS))
    ap.add_argument("--precision", type=int, default=24)
    args = ap.parse_args(argv)

    status = 0
    for p in args.primes:
        ctx = QContext.padic(p, args.precision, "1+p")
        tbl = table_for(ctx)
        cap = LEVEL_CAPS[p]
        print(f"\n=== p={p}, q=1+p, K={args.precision}, level cap {cap} ===")
        t0 = time.monotonic()
        worst_slack = None
        overclaims = 0
        for f, tag in grid():
            closed = closed_value(tag, ctx, tbl)
            sums = [riemann_sum(f, ctx, n) for n in range(1, cap + 1)]
            agree = [(s - closed)._effective_valuation() for s in sums]
            steps = [(b - a)._effective_valuation() for a, b in zip(sums, sums[1:])]
            slack = agree[-1] - cap
            worst_slack = slack if worst_slack is None else min(worst_slack, slack)
            monotone = all(x <= y for x, y in zip(steps, steps[1:]))
            results = [certified(f, ctx, n) for n in range(1, cap + 1)]
            bounds = [r.stabilization_valuation for r in results]
            true = [(r.value - closed)._effective_valuation() for r in results]
            overclaims += sum(b > t for b, t in zip(bounds, true))
            print(
                f"  {f!r:38s} agree@cap={agree[-1]:>3} slack={slack:+d} "
                f"steps={steps} monotone={monotone}\n"
                f"  {'':38s} proven={[str(b) for b in bounds]} true={true}"
            )
        print(
            f"  worst slack at cap: {worst_slack:+d} "
            f"(achieved valuation >= cap{worst_slack:+d}); {time.monotonic() - t0:.1f}s"
        )
        print(f"  proven bounds above the true agreement: {overclaims}")
        status = status or int(overclaims > 0)
    return status


if __name__ == "__main__":
    sys.exit(main())
