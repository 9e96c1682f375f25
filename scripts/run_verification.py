#!/usr/bin/env python3
"""Run the full identity verification suite and write a report.

Runs the built-in symbolic grid (exact rational-function equality) and a
p-adic grid per requested prime (agreement to a target valuation; THM1, EQ6
and THM3 are checked against the definitional Riemann evaluator, the
Bernstein identities compare two closed routes), then writes JSON-lines
reports and prints a summary table.

Usage:
  python3 scripts/run_verification.py [--primes 3] [--precision 24]
                                      [--target 8] [--out reports.jsonl]

Exit status 0 iff every non-quarantined instance verified.
"""

import argparse
import sys
import time

from qbern.identities import (
    SuiteConfig,
    reports_to_jsonl,
    run_suite,
    suite_exit_status,
    summarize,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--primes", type=int, nargs="+", default=[3])
    ap.add_argument("--precision", type=int, default=24)
    ap.add_argument("--target", type=int, default=8)
    ap.add_argument("--out", default=None, help="write JSON-lines reports here")
    args = ap.parse_args(argv)

    all_reports = []
    status = 0
    t0 = time.monotonic()

    reports = run_suite(SuiteConfig(backend="symbolic"))
    all_reports.extend(reports)
    summary = summarize(reports)
    status = max(status, suite_exit_status(reports))
    print(f"symbolic        {summary}")

    for p in args.primes:
        cfg = SuiteConfig(backend="padic", prime=p, precision=args.precision,
                          target_valuation=args.target)
        reports = run_suite(cfg)
        all_reports.extend(reports)
        summary = summarize(reports)
        status = max(status, suite_exit_status(reports))
        print(f"padic p={p:<2}      {summary}")

    print(f"total wall time {time.monotonic() - t0:.1f}s")
    quarantined = [r for r in all_reports
                   if r.quarantined and r.verdict is not None and not r.verdict.ok]
    if quarantined:
        print("disputed-reading probes reported on both sides:")
        for r in quarantined:
            print(f"  {r.identity.value} {r.parameters}: "
                  f"{r.verdict.kind} ({r.notes})")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(reports_to_jsonl(all_reports))
        print(f"reports written to {args.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
