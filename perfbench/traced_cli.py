"""Run the qbern CLI in this process with spans and counters around each layer.

Usage: python perfbench/traced_cli.py TRACE_FILE CLI_ARG...

Every module attribute that binds a public qbern function is wrapped in a
span, so callers that imported a name (``from .integral import integrate``)
see the wrapped one too.  The arithmetic of ``RationalFunction`` is counted
and timed, and that of ``PadicNumber`` only counted, at the outermost call.
Spans stay in memory and are written to TRACE_FILE as JSON when the CLI
returns; the process exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# A span is [name, start, end, parent index, attrs, seconds of direct
# qfield arithmetic]; the parent of a top-level span is -1.
NAME, START, END, PARENT, ATTRS, OP_S = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.depth = 0            # > 0 inside a counted arithmetic call
        self.qfield_s = 0.0
        self.max_degree = 0
        self.memo_top = {}        # (table id, method) -> highest index requested

    def span(self, name, fn, note=None):
        """Wrap fn in a span; note(args, kwargs, result, exc) -> attrs."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            result = exc = None
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
                if note is not None:
                    rec[ATTRS] = note(args, kwargs, result, exc)

        return wrapper

    def counted(self, fn, counter: str, int_counter: str):
        """Count a binary arithmetic dunder at the outermost call; ``int_counter``
        counts the calls whose other operand is a Python int."""
        tracer, counts = self, self.counts

        @functools.wraps(fn)
        def wrapper(a, b):
            if tracer.depth:
                return fn(a, b)
            tracer.depth = 1
            try:
                result = fn(a, b)
            finally:
                tracer.depth = 0
            counts[counter] += 1
            if type(b) is int:
                counts[int_counter] += 1
            return result

        return wrapper

    def timed(self, fn, counter=None):
        """Time (and count, given ``counter``) a RationalFunction method at the
        outermost call, charging the time to the enclosing span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.depth:
                return fn(*args, **kwargs)
            tracer.depth = 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.depth = 0
            elapsed = perf_counter() - start
            tracer.qfield_s += elapsed
            if tracer.stack:
                tracer.spans[tracer.stack[-1]][OP_S] += elapsed
            rf = args[0] if counter is None else result   # __init__ returns None
            degree = max(len(getattr(rf, "num", ())), len(getattr(rf, "den", ()))) - 1
            tracer.max_degree = max(tracer.max_degree, degree)
            if counter is not None:
                tracer.counts[counter] += 1
            return result

        return wrapper

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "qfield_s": self.qfield_s, "max_degree": self.max_degree}, fh)


_ARITHMETIC = {
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": "div",
    "__pow__": "pow",
}


def _prime(args, kwargs) -> int:
    return (args[1] if len(args) > 1 else kwargs["ctx"]).prime


def _integrate_note(args, kwargs, result, exc):
    final = result if exc is None else getattr(exc, "result", None)
    return {"p": _prime(args, kwargs), "level": getattr(final, "level", None),
            "cap_hit": final is not None and exc is not None}


def _riemann_note(args, kwargs, result, exc):
    level = args[2] if len(args) > 2 else kwargs.get("level")
    return {"p": _prime(args, kwargs), "level": level}


def _suite_note(args, kwargs, result, exc):
    return {"reports": len(result) if result is not None else 0}


def install(tracer: Tracer):
    """Install every wrapper; names missing from a later qbern are skipped."""
    import qbern
    from qbern import bernstein, carlitz, cli, identities, integral, padic, qfield

    modules = [qbern, bernstein, carlitz, cli, identities, integral, padic, qfield]

    def rebind(home, attr, name, note=None):
        original = getattr(home, attr, None)
        if original is None:
            return
        wrapped = tracer.span(name, original, note)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)

    rebind(integral, "integrate", "integral.integrate", _integrate_note)
    rebind(integral, "riemann_sum", "integral.riemann_sum", _riemann_note)
    for attr in ("closed_bracket_power", "closed_reflected_power", "closed_one_minus_x_power",
                 "bernstein_integral", "bernstein_product_integral",
                 "bernstein_power_product_integral"):
        rebind(integral, attr, "integral.closed")
    rebind(identities, "run_suite", "identities.run_suite", _suite_note)
    for attr in sorted(vars(identities)):
        if attr.startswith("verify_") and callable(getattr(identities, attr)):
            rebind(identities, attr, f"identities.{attr}")
    rebind(carlitz, "eval_at_one", "carlitz.eval_at_one")
    rebind(carlitz, "table_for", "carlitz.table_for")
    rebind(bernstein, "bernstein_eval", "bernstein.eval")
    rebind(bernstein, "bernstein_operator", "bernstein.eval")

    table_cls = getattr(carlitz, "CarlitzTable", None)
    for method in ("beta", "xi"):
        original = getattr(table_cls, method, None)
        if original is not None:
            setattr(table_cls, method,
                    tracer.span(f"carlitz.{method}", original, _memo_note(tracer, method)))

    rf_cls = getattr(qfield, "RationalFunction", None)
    padic_cls = getattr(padic, "PadicNumber", None)
    for dunder, kind in _ARITHMETIC.items():
        if dunder in vars(rf_cls or object):
            setattr(rf_cls, dunder, tracer.timed(vars(rf_cls)[dunder], f"qfield.rf_{kind}_count"))
        if dunder in vars(padic_cls or object):
            setattr(padic_cls, dunder, tracer.counted(
                vars(padic_cls)[dunder], f"padic.{kind}_count", "padic.int_coercions"))
    if rf_cls is not None:
        # canonicalizing construction is qfield work too; it is timed, not counted
        rf_cls.__init__ = tracer.timed(rf_cls.__init__)
    return cli


def _memo_note(tracer: Tracer, method: str):
    # The memo of each table grows contiguously, so a call extends it by
    # exactly the indices above the highest one requested before.
    def note(args, kwargs, result, exc):
        key = (id(args[0]), method)
        top = tracer.memo_top.get(key, 0)
        n = args[1] if len(args) > 1 else kwargs.get("n", 0)
        steps = max(n - top, 0) if exc is None else 0
        if steps:
            tracer.memo_top[key] = n
        return {"steps": steps}

    return note


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = install(tracer)
    try:
        return tracer.span("cli.main", cli.main)(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main())
