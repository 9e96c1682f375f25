"""Per-layer metrics from the span files that ``traced_cli.py`` writes.

Times named ``*_s`` are inclusive span durations unless the name says
``self``; a span's self time is its duration minus its direct child spans
and the qfield arithmetic it ran directly.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from traced_cli import ATTRS, END, NAME, OP_S, PARENT, START


def _dur(span) -> float:
    return span[END] - span[START]


# Accumulated metrics, reported as 0 when a workload never reaches the layer.
_ACCUMULATED = (
    "integral.integrate_calls", "integral.cap_hits", "integral.levels_evaluated",
    "integral.riemann_calls", "integral.closed_form_s", "carlitz.fill_s", "carlitz.steps",
    "bernstein.eval_calls", "bernstein.eval_s", "identities.reports",
    "identities.driver_self_s", "cli.self_s", "qfield.self_s", "padic.int_coercions",
) + tuple(f"{layer}{kind}_count" for layer in ("padic.", "qfield.rf_")
          for kind in ("add", "mul", "div", "pow"))


def _outermost(spans, span) -> bool:
    parent = span[PARENT]
    return parent < 0 or spans[parent][NAME] != span[NAME]


def aggregate(traces: list, primes=(3, 5, 7), verifiers=()) -> dict:
    """Sum the per-layer metrics over the trace dumps of one traced repetition."""
    m = dict.fromkeys(_ACCUMULATED, 0)
    m.update((f"identities.verify_s.{v}", 0.0) for v in verifiers)
    report_ms = []
    riemann_s = defaultdict(float)
    riemann_terms = defaultdict(int)
    integrate_terms = final_terms = 0
    carlitz_calls = carlitz_hits = max_degree = 0
    for trace in traces:
        spans = trace["spans"]
        children = defaultdict(float)   # span index -> time in direct child spans
        top_level = defaultdict(int)    # integrate span index -> highest level summed
        for span in spans:
            if span[PARENT] >= 0:
                children[span[PARENT]] += _dur(span)
        for i, span in enumerate(spans):
            name, attrs, parent = span[NAME], span[ATTRS] or {}, span[PARENT]
            dur = _dur(span)
            self_s = dur - children[i] - span[OP_S]
            if name == "integral.riemann_sum":
                terms = attrs["p"] ** attrs["level"]
                m["integral.riemann_calls"] += 1
                riemann_s[attrs["p"]] += dur
                riemann_terms[attrs["p"]] += terms
                if parent >= 0 and spans[parent][NAME] == "integral.integrate":
                    top_level[parent] = max(top_level[parent], attrs["level"])
                    integrate_terms += terms
            elif name == "integral.integrate":
                m["integral.integrate_calls"] += 1
                m["integral.cap_hits"] += attrs["cap_hit"]
                if attrs["level"] is not None:
                    final_terms += attrs["p"] ** attrs["level"]
            elif name == "integral.closed" and _outermost(spans, span):
                m["integral.closed_form_s"] += dur
            elif name in ("carlitz.beta", "carlitz.xi"):
                carlitz_calls += 1
                carlitz_hits += not attrs["steps"]
                if attrs["steps"]:
                    m["carlitz.fill_s"] += dur
                    m["carlitz.steps"] += attrs["steps"]
            elif name == "bernstein.eval" and _outermost(spans, span):
                m["bernstein.eval_calls"] += 1
                m["bernstein.eval_s"] += dur
            elif name == "identities.run_suite":
                m["identities.reports"] += attrs["reports"]
                m["identities.driver_self_s"] += self_s
            elif name.startswith("identities.verify_"):
                report_ms.append(dur * 1e3)
                key = "identities.verify_s." + name[len("identities."):]
                m[key] = m.get(key, 0.0) + dur
            elif name == "cli.main":
                m["cli.self_s"] += self_s
        m["integral.levels_evaluated"] += sum(top_level.values())
        for counter, value in trace["counts"].items():
            m[counter] = m.get(counter, 0) + value
        m["qfield.self_s"] += trace["qfield_s"]
        max_degree = max(max_degree, trace["max_degree"])

    m["integral.riemann_terms"] = sum(riemann_terms.values())
    m["integral.riemann_s"] = sum(riemann_s.values())
    for p in primes:
        terms = riemann_terms[p]
        m[f"integral.riemann_us_per_term.p{p}"] = riemann_s[p] / terms * 1e6 if terms else 0.0
    m["integral.final_level_term_ratio"] = final_terms / integrate_terms if integrate_terms else 0.0
    m["carlitz.memo_hit_ratio"] = carlitz_hits / carlitz_calls if carlitz_calls else 0.0
    m["qfield.max_degree"] = max_degree
    m["identities.report_ms_p50"] = statistics.median(report_ms) if report_ms else 0.0
    m["identities.report_ms_p90"] = (statistics.quantiles(report_ms, n=10)[8]
                                     if len(report_ms) > 1 else sum(report_ms))
    return m
