#!/usr/bin/env python3
"""The qbern benchmark: three CLI workloads, each in fresh interpreters.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each was chosen):
  symbolic_grid  qbern verify on the built-in symbolic grid (478 reports)
  padic_oracle   qbern verify on the built-in p-adic grid at p = 3, 5, 7
                 (precision 24, target valuation 8)
  symbolic_deep  qbern table --kind beta --range 0:20 --at-one --format csv

Every timed repetition starts a fresh ``python -m qbern.cli`` with
PYTHONPATH=src, so no process-global memo survives from one repetition to
the next.  The seed permutes the grid entries and the order of the primes.
With ``--trace 0`` repetitions run until the next one would pass S seconds
(at least one), and the end-to-end metrics are medians over them; times
are rescaled by a reference computation timed around each CLI run, so
that the host's drifting speed cancels (see ``measure``).  With
``--trace 1`` one untraced repetition runs, then one traced repetition
under perfbench/traced_cli.py and the micro-timings of perfbench/micro.py,
and the per-layer metrics are reported.  Every output is
checked by perfbench/checks.py.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

import checks
import grids
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170       # every child is killed past this point of the run
MIN_SETUP_SAMPLES = 7
VERIFY_EXITS = (0, 1)   # 1 means "violations reported", checked against the reports
# Reported times are rescaled to a host on which perfbench/reference.py
# takes this long, about its time on the 2-core development host when idle.
REFERENCE_S = 0.3


@dataclass
class Invocation:
    label: str
    argv: list            # CLI arguments after ``python -m qbern.cli``
    check: object         # check(text, exit_code) -> checks.Checked
    exits: tuple = (0,)


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    rss_kb: int
    exit_code: int
    stdout: bytes = b""
    stderr: bytes = b""


def crashed(inv: Invocation, run: ChildRun) -> bool:
    return run.exit_code not in inv.exits or b"Traceback (most recent call last)" in run.stderr


@dataclass
class Rep:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_kb: int = 0
    outputs: list = field(default_factory=list)   # (invocation, ChildRun)

    def add(self, inv: Invocation, run: ChildRun):
        self.wall_s += run.wall_s
        self.cpu_s += run.cpu_s
        self.rss_kb = max(self.rss_kb, run.rss_kb)
        self.outputs.append((inv, run))


class BenchError(Exception):
    """The program under test could not be run at all."""


def build_invocations(workload: str, seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    if workload == "symbolic_grid":
        entries = grids.shuffled(grids.symbolic_entries(), rng)
        path = workdir / "symbolic_grid.json"
        path.write_text(grids.grid_json(entries, backend="symbolic"))
        return [Invocation("verify symbolic", ["verify", "--grid", str(path)],
                           partial(_check_symbolic, entries), VERIFY_EXITS)]
    if workload == "padic_oracle":
        invocations = []
        for p in rng.sample(grids.PADIC_PRIMES, len(grids.PADIC_PRIMES)):
            entries = grids.shuffled(grids.padic_entries(), rng)
            path = workdir / f"padic_p{p}.json"
            path.write_text(grids.grid_json(
                entries, backend="padic", prime=p, precision=grids.PADIC_PRECISION,
                q="1+p", target_valuation=grids.PADIC_TARGET))
            invocations.append(Invocation(f"verify padic p={p}", ["verify", "--grid", str(path)],
                                          partial(_check_padic, entries, p), VERIFY_EXITS))
        return invocations
    if workload == "symbolic_deep":
        lo, hi = grids.DEEP_RANGE
        return [Invocation("table beta", ["table", "--kind", "beta", "--range", f"{lo}:{hi}",
                                          "--at-one", "--format", "csv"],
                           partial(_check_table, lo, hi))]
    raise SystemExit(f"unknown workload {workload!r}")


def _check_symbolic(entries, text, code):
    return checks.check_symbolic_grid(text, entries, code)


def _check_padic(entries, p, text, code):
    return checks.check_padic_grid(text, entries, p, grids.PADIC_TARGET, code)


def _check_table(lo, hi, text, code):
    return checks.check_beta_table(text, lo, hi, code)


class Runner:
    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        # Installed packages run from byte-compiled files, so the warm-up
        # probe must be able to write them next to the sources.
        for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
            self.env.pop(name, None)
        self.attempted = 0
        self.failed = 0

    def spawn(self, argv: list, capture: bool = True) -> ChildRun:
        """Run one child to completion; wall, CPU and peak RSS are its own."""
        timeout = max(1.0, RUN_LIMIT_S - (perf_counter() - self.started))
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out if capture else subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                        proc.returncode, out_path.read_bytes() if capture else b"",
                        err_path.read_bytes())

    def setup_probe(self) -> float:
        """A fresh interpreter imports qbern and builds the CLI parser, no work."""
        run = self.spawn([sys.executable, "-m", "qbern.cli", "--help"], capture=False)
        if run.exit_code != 0:
            raise BenchError(f"qbern.cli --help exited {run.exit_code}: "
                             f"{run.stderr.decode(errors='replace')[-400:]}")
        return run.wall_s

    def reference(self) -> float:
        """Wall time of perfbench/reference.py, which gauges the host's speed."""
        run = self.spawn([sys.executable, str(HERE / "reference.py")], capture=False)
        if run.exit_code != 0:
            raise BenchError(f"the reference computation exited {run.exit_code}")
        return run.wall_s

    def invoke(self, inv: Invocation, prefix: list) -> ChildRun:
        run = self.spawn(prefix + inv.argv)
        self.attempted += 1
        self.failed += crashed(inv, run)
        return run

    def rep(self, invocations: list, prefix: list) -> Rep:
        rep = Rep()
        for inv in invocations:
            rep.add(inv, self.invoke(inv, prefix))
        return rep


def check_rep(rep: Rep, problems: list) -> list:
    """Run every output check of one repetition; returns the Checked list."""
    results = []
    for inv, run in rep.outputs:
        if crashed(inv, run):
            problems.append(f"{inv.label}: exit {run.exit_code}: "
                            f"{run.stderr.decode(errors='replace')[-400:]}")
        try:
            result = inv.check(run.stdout.decode(errors="replace"), run.exit_code)
        except Exception as exc:   # malformed output must fail the run, not the benchmark
            result = checks.Checked(problems=[f"unreadable output: {exc!r}"])
        problems.extend(f"{inv.label}: {p}" for p in result.problems)
        results.append(result)
    return results


def digests(rep: Rep) -> list:
    return [hashlib.sha256(run.stdout).hexdigest() for _, run in rep.outputs]


def summary_stats(values: list):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verify_pass_ratio(results: list) -> float:
    attempted = sum(r.reports for r in results)
    return 1 - sum(r.failed for r in results) / attempted if attempted else 0.0


def oracle_agreement_min(results: list) -> float:
    values = [r.agreement_min for r in results if r.agreement_min != float("inf")]
    return min(values) if values else 0


def measure(runner: Runner, invocations: list, seconds: float, problems: list):
    """Timed repetitions until the next would pass ``seconds``; returns samples.

    The host's speed drifts by up to 2x within minutes, so a reference
    computation runs before the first CLI run and after every one.  Each
    time is rescaled by REFERENCE_S over the mean of the two reference
    times around it.
    """
    samples = {"setup_s": [], "wall_s": [], "peak_rss_mb": []}
    raw = {"setup_s": [], "wall_s": [], "reference_s": []}
    first_digests = results = None
    cli = [sys.executable, "-m", "qbern.cli"]
    start = perf_counter()
    before = runner.reference()
    raw["reference_s"].append(before)
    while True:
        rep = Rep()
        setup_s = runner.setup_probe()
        wall_norm = 0.0
        for inv in invocations:
            run = runner.invoke(inv, cli)
            rep.add(inv, run)
            after = runner.reference()
            raw["reference_s"].append(after)
            scale = 2 * REFERENCE_S / (before + after)
            wall_norm += run.wall_s * scale
            if setup_s is not None:
                samples["setup_s"].append(setup_s * scale)
                raw["setup_s"].append(setup_s)
                setup_s = None
            before = after
        samples["wall_s"].append(wall_norm)
        raw["wall_s"].append(rep.wall_s)
        samples["peak_rss_mb"].append(rep.rss_kb / 1024)
        if first_digests is None:
            first_digests, results = digests(rep), check_rep(rep, problems)
        elif digests(rep) != first_digests:
            problems.append("output bytes differ between repetitions of the same input")
        if perf_counter() - start + rep.wall_s > seconds:
            break
    extra = [runner.setup_probe() for _ in range(MIN_SETUP_SAMPLES - len(samples["setup_s"]))]
    if extra:
        after = runner.reference()
        samples["setup_s"] += [s * 2 * REFERENCE_S / (before + after) for s in extra]
        raw["setup_s"] += extra
    samples["verify_pass_ratio"] = [verify_pass_ratio(results)]
    for (inv, _), digest, result in zip(rep.outputs, first_digests, results):
        print(f"output {inv.label}: sha256 {digest}, {result.reports} reports, "
              f"{result.failed} failed")
    agreement = oracle_agreement_min(results)
    if agreement:
        print(f"oracle_agreement_min {agreement} (floor per prime "
              f"{checks.ORACLE_AGREEMENT_FLOOR})")
    for name, series in raw.items():
        print(f"unscaled {name}: median {statistics.median(series):.6g} s (n {len(series)})")
    return samples


def trace(runner: Runner, invocations: list, problems: list, verifiers: list) -> dict:
    """One untraced and one traced repetition, then the micro-timings."""
    reference_s = runner.reference()
    plain = runner.rep(invocations, [sys.executable, "-m", "qbern.cli"])
    reference_s = (reference_s + runner.reference()) / 2
    results = check_rep(plain, problems)
    traced_wall = 0.0
    dumps = []
    for i, inv in enumerate(invocations):
        trace_file = runner.workdir / f"trace{i}.json"
        one = runner.rep([inv], [sys.executable, str(HERE / "traced_cli.py"), str(trace_file)])
        traced_wall += one.wall_s
        if digests(one) != digests(plain)[i:i + 1]:
            problems.append(f"{inv.label}: traced output differs from the untraced output")
        if trace_file.is_file():
            dumps.append(json.loads(trace_file.read_text()))
        else:
            problems.append(f"{inv.label}: the traced run wrote no spans")
    micro = runner.spawn([sys.executable, str(HERE / "micro.py")])
    if micro.exit_code != 0:
        problems.append(f"micro-timings exited {micro.exit_code}: "
                        f"{micro.stderr.decode(errors='replace')[-400:]}")
        micro_metrics = {}
    else:
        micro_metrics = json.loads(micro.stdout)
    for (inv, _), digest in zip(plain.outputs, digests(plain)):
        print(f"output {inv.label}: sha256 {digest}")
    metrics = layers.aggregate(dumps, grids.PADIC_PRIMES, verifiers)
    metrics.update(micro_metrics)
    metrics.update({
        "cli.output_bytes": sum(len(run.stdout) for _, run in plain.outputs),
        "run.cpu_s": plain.cpu_s,
        "run.wall_s": plain.wall_s,
        "run.reference_s": reference_s,
        "run.verify_fail_ratio": 1 - verify_pass_ratio(results),
        "identities.oracle_agreement_min": oracle_agreement_min(results),
        "trace.overhead_ratio": traced_wall / plain.wall_s,
    })
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = perf_counter()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "qbern" / "cli.py").is_file():
        print(f"error: no qbern sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workdir, started)
    problems = []
    try:
        invocations = build_invocations(args.workload, args.seed, workdir)
        runner.setup_probe()   # warm-up: byte-compiles qbern, not measured
        if args.trace:
            declared = spec["per_layer"]
            verifiers = [m["name"].split(".", 2)[2] for m in declared
                         if m["name"].startswith("identities.verify_s.")]
            values = trace(runner, invocations, problems, verifiers)
        else:
            declared = spec["end_to_end"]
            samples = measure(runner, invocations, args.seconds, problems)
            values = {}
            units = {m["name"]: m["unit"] for m in declared}
            for name, series in samples.items():
                median, q1, q3 = summary_stats(series)
                values[name] = median
                print(f"{name}: median {median:.6g} {units[name]}  "
                      f"(q1 {q1:.6g}, q3 {q3:.6g}, n {len(series)})")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass   # another run still uses it

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        problems.append(f"no value for declared metrics {missing}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems and runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
