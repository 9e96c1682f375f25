"""Command-line front end.

Subcommands: beta, xi, beta-poly, bernstein, integrate, verify, table,
selftest.  Exit codes: 0 success / all verified, 1 identity violation,
2 usage or configuration error (including insufficient working precision,
save in a verify or selftest row, which is skipped, and output that cannot
be written, to an ``--out`` file or a closed stdout), 3 work budget exceeded.

``console_main`` is the process entry point (``python -m qbern.cli`` and
the ``qbern`` script); ``main`` is the in-process one.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import sys
from math import isinf

from .bernstein import BernsteinSpec, bernstein_eval
from .carlitz import eval_at_one, table_for
from .errors import BudgetExceeded, DomainError, MaxLevelExceeded, QbernError
from .identities import (
    _GRID_FIELDS,
    SuiteConfig,
    _corrupted,
    reports_to_jsonl,
    run_suite,
    suite_exit_status,
)
from .integral import bernstein_power_product_integral, integrand_from_json, integrate
from .qfield import rational_literal

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


# the output flags; the defaults of the others are SuiteConfig's
_OUTPUT_DEFAULTS = {"format": "json", "out": None}


# options whose value is a rational literal, which may start with "-";
# _add_literal declares them and _join_literals keeps their values attached
_LITERAL_OPTIONS = set()


def _add_literal(parser: argparse.ArgumentParser, name: str, **kwargs) -> None:
    _LITERAL_OPTIONS.add(name)
    parser.add_argument(name, **kwargs)


def _global_flags() -> argparse.ArgumentParser:
    # Shared flags, accepted both before and after the subcommand; defaults
    # are suppressed here so the position of a flag never matters, and each
    # flag not given is absent from the parsed namespace.  The suite flags
    # are named after the SuiteConfig fields they set.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--p", dest="prime", type=int, help="odd prime (padic backend)")
    common.add_argument("--precision", type=int,
                        help="working precision K in base-p digits")
    _add_literal(common, "--q", help='q as a rational "a/b" or the token "1+p" (padic only)')
    common.add_argument("--backend", choices=("symbolic", "padic"))
    common.add_argument("--target-valuation", type=int)
    common.add_argument("--level-cap", type=int)
    common.add_argument("--format", choices=("json", "csv"))
    common.add_argument("--out", help="output path (default stdout)")
    return common


def _build_parser() -> argparse.ArgumentParser:
    common = _global_flags()
    parser = argparse.ArgumentParser(
        prog="qbern",
        description="Exact q-Bernoulli / q-Bernstein arithmetic and identity verification",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_beta = sub.add_parser("beta", parents=[common], help="Carlitz q-Bernoulli number")
    p_beta.add_argument("--n", type=int, required=True)

    p_xi = sub.add_parser("xi", parents=[common], help="unmodified Carlitz number")
    p_xi.add_argument("--n", type=int, required=True)

    p_poly = sub.add_parser("beta-poly", parents=[common],
                            help="Carlitz q-Bernoulli polynomial value")
    p_poly.add_argument("--n", type=int, required=True)
    _add_literal(p_poly, "--x", required=True, help="integer or rational argument")

    p_bern = sub.add_parser("bernstein", parents=[common], help="basis polynomial value")
    p_bern.add_argument("--k", type=int, required=True)
    p_bern.add_argument("--n", type=int, required=True)
    _add_literal(p_bern, "--x", required=True)

    p_int = sub.add_parser("integrate", parents=[common],
                           help="adaptive p-adic q-integral")
    p_int.add_argument("--integrand", required=True,
                       help="integrand JSON (inline or @file)")

    p_verify = sub.add_parser("verify", parents=[common], help="run the identity suite")
    p_verify.add_argument("--grid", default=None, help="grid JSON file")

    p_table = sub.add_parser("table", parents=[common], help="tabulate values")
    p_table.add_argument("--kind", choices=("beta", "bernstein", "integral"),
                         required=True)
    p_table.add_argument("--range", required=True, help='index range "a:b" (inclusive)')
    _add_literal(p_table, "--x", default="2", help="argument for bernstein tables")
    p_table.add_argument("--k", type=int, default=0, help="lower index for integral tables")
    p_table.add_argument("--at-one", action="store_true", default=False,
                         help="add the q=1 column (symbolic tables)")

    p_self = sub.add_parser("selftest", parents=[common], help="small grid self-check")
    p_self.add_argument("--corrupt", action="store_true", default=False,
                        help="flip one sign to prove failures are detected")

    return parser


def _config(args, grid=None) -> SuiteConfig:
    """The fields of ``grid`` (a grid file's JSON), overridden by each suite
    flag given on the command line; its ``context()`` is the working context
    of every command."""
    given = {key: value for key, value in vars(args).items() if key in _GRID_FIELDS}
    if grid is None or isinstance(grid, dict):  # from_json refuses any other grid
        grid = {**(grid or {}), **given}
    return SuiteConfig.from_json(grid)


def _read_json(spec: str, what: str):
    """The JSON value of ``spec``: inline text, or the file named after a
    leading "@".  Unreadable, malformed or too deeply nested JSON raises
    DomainError."""
    try:
        if spec.startswith("@"):
            what += " file"
            with open(spec[1:]) as fh:
                spec = fh.read()
        return json.loads(spec)
    except (OSError, ValueError, RecursionError) as exc:
        raise DomainError(f"cannot read {what}: {exc}") from exc


def _parse_x(text: str):
    """An integer x, also when written as a fraction ("2.0", "4/2"), else a
    rational one, which only the padic backend evaluates (``q_pow`` refuses
    it on the symbolic backend)."""
    try:
        return int(text)
    except ValueError:
        x = rational_literal(text.strip())
        return x.numerator if x.denominator == 1 else x


def _print_value(args, ctx, value, **index) -> int:
    """Emit the JSON payload of one scalar ``value`` with its ``index``
    fields (n, k, x) and return the exit code."""
    payload = {**index, "backend": ctx.backend, "value": value.to_json()}
    if ctx.is_symbolic:
        payload["rendered"] = value.render()
        payload["certified_precision"] = None
    else:
        payload["certified_precision"] = (
            None if isinf(value.prec) else int(value.prec)
        )
    _emit(args, json.dumps(payload, sort_keys=True) + "\n")
    return EXIT_OK


def _emit(args, text: str):
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)


def _render_cell(value, ctx) -> str:
    if ctx.is_symbolic:
        return value.render()
    return json.dumps(value.to_json(), sort_keys=True)


def _cmd_number(args) -> int:
    ctx = _config(args).context()
    tbl = table_for(ctx)
    value = tbl.beta(args.n) if args.command == "beta" else tbl.xi(args.n)
    return _print_value(args, ctx, value, n=args.n)


def _cmd_beta_poly(args) -> int:
    ctx = _config(args).context()
    x = _parse_x(args.x)
    return _print_value(args, ctx, table_for(ctx).beta_poly(args.n, x), n=args.n, x=str(x))


def _cmd_bernstein(args) -> int:
    ctx = _config(args).context()
    x = _parse_x(args.x)
    value = bernstein_eval(BernsteinSpec(args.k, args.n), x, ctx)
    return _print_value(args, ctx, value, k=args.k, n=args.n, x=str(x))


def _cmd_integrate(args) -> int:
    config = _config(args)
    ctx = config.context()
    integrand = integrand_from_json(_read_json(args.integrand, "integrand"))
    try:
        result = integrate(integrand, ctx, config.target_valuation, config.level_cap)
    except MaxLevelExceeded as exc:
        # the best result still goes out; the error line and exit 3 follow
        if exc.result is not None:
            _emit(args, json.dumps(exc.result.to_json(), sort_keys=True) + "\n")
        raise
    _emit(args, json.dumps(result.to_json(), sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    grid = _read_json("@" + args.grid, "grid") if args.grid else None
    reports = run_suite(_config(args, grid))
    _emit(args, reports_to_jsonl(reports))
    return suite_exit_status(reports)


def _parse_range(text: str):
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise DomainError(f'range must look like "a:b", got {text!r}') from exc
    return range(lo, hi + 1)


def _cmd_table(args) -> int:
    ctx = _config(args).context()
    tbl = table_for(ctx)
    rows = []
    if args.kind == "beta":
        header = ["n", "backend", "value"]
        if args.at_one:
            if not ctx.is_symbolic:
                raise DomainError("the q=1 column requires the symbolic backend")
            header.append("value_at_q1")
        for n in _parse_range(args.range):
            row = {"n": n, "backend": ctx.backend,
                   "value": _render_cell(tbl.beta(n), ctx)}
            if args.at_one:
                row["value_at_q1"] = str(eval_at_one(tbl.beta(n)))
            rows.append(row)
    elif args.kind == "bernstein":
        x = _parse_x(args.x)
        header = ["n", "k", "x", "value"]
        for n in _parse_range(args.range):
            for k in range(n + 1):
                value = bernstein_eval(BernsteinSpec(k, n), x, ctx)
                rows.append({"n": n, "k": k, "x": str(x),
                             "value": _render_cell(value, ctx)})
    else:
        if args.k < 0:
            raise DomainError("need k >= 0")
        header = ["n", "k", "route", "value"]
        for n in _parse_range(args.range):
            if not 0 <= args.k <= n:
                continue
            value = bernstein_power_product_integral([(args.k, n, 1)], ctx, "direct")
            rows.append({"n": n, "k": args.k, "route": "direct",
                         "value": _render_cell(value, ctx)})
    if args.format == "csv":
        import csv  # only this branch needs it, and every process pays its imports

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        _emit(args, buf.getvalue())
    else:
        _emit(args, json.dumps({"kind": args.kind, "rows": rows}, sort_keys=True) + "\n")
    return EXIT_OK


_SELFTEST_GRID = {"identities": [["THM1", {"n": 1, "x": 0}], ["PROP2", {"n": 2}],
                                 ["EQ6", {"n": 2}], ["THM3", {"n": 2}]]}


def _cmd_selftest(args) -> int:
    # the other suite flags apply; the backend is always padic
    config = _config(args, _SELFTEST_GRID).replace(backend="padic")
    reports = run_suite(config)
    if args.corrupt:
        ran = next(i for i, r in enumerate(reports) if r.verdict is not None)
        reports[ran] = _corrupted(reports[ran], config.context())
    _emit(args, reports_to_jsonl(reports))
    return suite_exit_status(reports)


_COMMANDS = {
    "beta": _cmd_number,
    "xi": _cmd_number,
    "beta-poly": _cmd_beta_poly,
    "bernstein": _cmd_bernstein,
    "integrate": _cmd_integrate,
    "verify": _cmd_verify,
    "table": _cmd_table,
    "selftest": _cmd_selftest,
}


def _join_literals(argv: list) -> list:
    """``--x -1/2`` as ``--x=-1/2``: argparse reads a value that starts with
    "-" and is not a plain number as the next option."""
    out = []
    for token in argv:
        if out and out[-1] in _LITERAL_OPTIONS and token[:1] == "-" and token[:2] != "--":
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_literals(sys.argv[1:] if argv is None else list(argv)))
    for key, value in _OUTPUT_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (QbernError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> int:
    """``main`` as a process: its exit code, with stdout flushed.

    A closed stdout is an output that cannot be written: one error line and
    exit 2, with stdout pointed at os.devnull so that the interpreter's own
    final flush stays silent.  Last, every object is frozen, so that the
    interpreter's collections at shutdown skip them all; normal shutdown
    (flushes, atexit handlers, the exit code) is otherwise unchanged.
    ``main`` freezes nothing, since its callers go on running.
    """
    try:
        try:
            return main()
        finally:
            if sys.stdout is not None:  # None when fd 1 was closed at start
                sys.stdout.flush()
    except BrokenPipeError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(console_main())
