"""Micro-timings of the primitives the per-layer metrics name.

Usage: python perfbench/micro.py  (prints one JSON object)

Only public qbern API is called.  Operands are built once, outside the timed
loops: p-adic operands live in the p = 7, K = 24, q = 1 + p context of the
padic_oracle workload, and the rational functions are Carlitz numbers of the
symbolic workloads (beta_4, beta_5 small; beta_14, beta_15 large).
"""

from __future__ import annotations

import json
import statistics
import timeit
from fractions import Fraction
from time import perf_counter

from qbern import CarlitzTable, QContext, RationalFunction, q_bracket


def _per_call_us(stmt: str, names: dict, repeat_s: float = 0.03) -> float:
    """Median over five repeats of the time per call, in microseconds."""
    timer = timeit.Timer(stmt, globals=names)
    once = timer.timeit(1)
    number = max(1, int(repeat_s / max(once, 1e-9)))
    return statistics.median(timer.repeat(5, number)) / number * 1e6


def _times(a, b):
    # schoolbook product of coefficient tuples, for building unreduced operands
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def padic_micro() -> dict:
    ctx = QContext.padic(7, 24)
    a, b = ctx.q ** 11, q_bracket(4, ctx)
    names = {"a": a, "b": b}
    return {
        "padic.add_us": _per_call_us("a + b", names),
        "padic.mul_us": _per_call_us("a * b", names),
        "padic.div_us": _per_call_us("a / b", names),
        "padic.int_mul_us": _per_call_us("7 * a", names),
        "padic.pow_us": _per_call_us("b ** 4", names),
    }


def carlitz_micro() -> dict:
    out = {}
    padic_ms = []
    for _ in range(5):
        tbl = CarlitzTable(QContext.padic(3, 24))
        tbl.beta(11)
        start = perf_counter()
        tbl.beta(12)
        padic_ms.append((perf_counter() - start) * 1e3)
    out["carlitz.step_ms.padic"] = statistics.median(padic_ms)
    tbl = CarlitzTable(QContext.symbolic())
    tbl.beta(19)
    start = perf_counter()
    tbl.beta(20)
    out["carlitz.step_ms.symbolic"] = (perf_counter() - start) * 1e3

    small = {"a": tbl.beta(4), "b": tbl.beta(5)}
    large = {"a": tbl.beta(14), "b": tbl.beta(15)}
    factor = (Fraction(1), Fraction(2), Fraction(1))  # (1 + q)^2, cancelled on construction
    large["num"] = _times(large["a"].num, factor)
    large["den"] = _times(large["a"].den, factor)
    large["RationalFunction"] = RationalFunction
    out.update({
        "qfield.rf_mul_us.small": _per_call_us("a * b", small),
        "qfield.rf_add_us.small": _per_call_us("a + b", small),
        "qfield.rf_mul_us.large": _per_call_us("a * b", large),
        "qfield.rf_add_us.large": _per_call_us("a + b", large),
        "qfield.canon_us.large": _per_call_us("RationalFunction(num, den)", large),
    })
    return out


if __name__ == "__main__":
    print(json.dumps({**padic_micro(), **carlitz_micro()}))
