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

import gc
import io
import os
import sys
from math import isinf
from types import SimpleNamespace

from .carlitz import _at_one, table_for
from .config import _GRID_FIELDS, SuiteConfig
from .errors import BudgetExceeded, DomainError, MaxLevelExceeded, QbernError
from .qfield import rational_literal

# A command imports the layers that only it runs (the identity catalog, the
# integrator, the Bernstein basis, json) where it runs them: a process pays
# for every import, and a beta table reads none of these.  CSV needs no csv
# module: ``_csv_field`` quotes a field as its writer does.

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


# The command line is one table, which _parse reads and _help prints.  An
# option is flag: (destination, converter, default, help); the converter is
# int, str, a tuple of choices, or None for a switch, which takes no value.
# A default of UNSET leaves the option out of args, so that a suite flag (named
# after the SuiteConfig field it sets) not given leaves its grid field standing.

REQUIRED, UNSET = object(), object()

_GLOBAL_OPTIONS = {
    "--help": ("help", None, UNSET, "show this help and exit (also -h)"),
    "--p": ("prime", int, UNSET, "odd prime (padic backend)"),
    "--precision": ("precision", int, UNSET, "working precision K in base-p digits"),
    "--q": ("q", str, UNSET, 'q as a rational "a/b" or the token "1+p" (padic only)'),
    "--backend": ("backend", ("symbolic", "padic"), UNSET, "arithmetic backend"),
    "--target-valuation": ("target_valuation", int, UNSET,
                           "valuation a padic comparison must reach"),
    "--level-cap": ("level_cap", int, UNSET, "deepest Riemann level"),
    "--out": ("out", str, None, "output path (default stdout)"),
}


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
    import json
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
    import json
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
        _write_stdout(text)


def _write_stdout(text: str):
    if sys.stdout is None:  # fd 1 was closed at start
        raise DomainError("cannot write output: stdout is closed")
    sys.stdout.write(text)


def _render_cell(value, ctx) -> str:
    if ctx.is_symbolic:
        return value.render()
    import json
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
    from .bernstein import BernsteinSpec, bernstein_eval
    ctx = _config(args).context()
    x = _parse_x(args.x)
    value = bernstein_eval(BernsteinSpec(args.k, args.n), x, ctx)
    return _print_value(args, ctx, value, k=args.k, n=args.n, x=str(x))


def _cmd_integrate(args) -> int:
    import json
    from .integral import integrand_from_json, integrate
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
    from .identities import summary_line
    grid = _read_json("@" + args.grid, "grid") if args.grid else None
    config = _config(args, grid)
    rows = config.grid()
    workers = worker_count(len(rows), args.cpus)
    bounds = [len(rows) * i // workers for i in range(workers + 1)]
    chunks = [config.replace(identities=rows[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    counts, lines = zip(*_verify_chunks(chunks))
    total = {key: sum(chunk[key] for chunk in counts) for key in counts[0]}
    _emit(args, "".join(lines) + summary_line(total))
    return EXIT_VIOLATION if total["failed"] else EXIT_OK


# The rows of a grid are independent, so a process may verify them on every
# CPU it can use: in contiguous chunks, each but the first in a forked worker.
# A worker rebuilds the exact Carlitz tables its rows read, bit for bit, so the
# lines it sends are those a serial run prints.  os.fork and a pipe, not
# multiprocessing, whose import alone costs more than a small grid's rows.
# ROWS_PER_WORKER is the fewest rows that repay a worker's fork and cold
# tables: shuffled symbolic grids split in two gained nothing at 160 rows a
# worker and won at 200 (fresh processes, 2-CPU x86_64).

ROWS_PER_WORKER = 200


def usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count(rows: int, cpus: int) -> int:
    """The chunks a grid of ``rows`` rows is verified in on ``cpus`` CPUs."""
    return max(1, min(cpus, rows // ROWS_PER_WORKER))


def _verify_chunk(config) -> tuple:
    from .identities import report_lines, run_suite, summarize
    reports = run_suite(config)
    return summarize(reports), report_lines(reports)


def _verify_chunks(chunks) -> list:
    """The (counts, report lines) of each chunk's config, in order.  The
    first chunk is verified here, after a worker is forked for each other.
    A worker that cannot start, exits nonzero or sends a short payload has
    its chunk verified here again, so that an error is raised as a serial
    run raises it.  However the run ends, no worker outlives it."""
    workers = []  # (pid, read end of its pipe), or None, per chunk after the first
    try:
        for chunk in chunks[1:]:
            workers.append(_fork(chunk))
        results = [_verify_chunk(chunks[0])]
        for chunk in chunks[1:]:
            received = workers[0] and _receive(*workers[0], chunk)
            workers.pop(0)
            results.append(received or _verify_chunk(chunk))
        return results
    except BaseException:
        for worker in filter(None, workers):
            _end(*worker)
        raise


def _fork(chunk):
    """(pid, read end of its pipe) of a worker that verifies ``chunk`` and
    sends its summary line, then its report lines; None where no process
    can be started."""
    try:
        pipe, out = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(pipe)
        os.close(out)
        return None
    if pid == 0:  # the worker: no flush, atexit handler or error line of its own
        status = 1
        try:
            os.close(pipe)
            from .identities import summary_line
            counts, lines = _verify_chunk(chunk)
            with open(out, "wb") as stream:
                stream.write((summary_line(counts) + lines).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(out)
    return pid, pipe


def _receive(pid: int, pipe: int, chunk):
    """The (counts, report lines) that worker ``pid`` sent for ``chunk``,
    read to the end of ``pipe`` before the worker is reaped; None if it
    exited nonzero or the payload is short."""
    import json
    with open(pipe, "rb") as stream:
        head, _, lines = stream.read().decode().partition("\n")
    try:
        status = os.waitpid(pid, 0)[1]
    except ChildProcessError:  # reaped already, where SIGCHLD is ignored
        status = 0
    if status != 0 or lines.count("\n") != len(chunk.identities):
        return None
    return json.loads(head)["summary"], lines


def _end(pid: int, pipe: int):
    """Kill and reap worker ``pid`` and close ``pipe``, each where not done
    already."""
    from signal import SIGKILL  # only a run that fails needs it
    for step, *arguments in ((os.kill, pid, SIGKILL), (os.waitpid, pid, 0), (os.close, pipe)):
        try:
            step(*arguments)
        except OSError:  # done already
            pass


def _parse_range(text: str):
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise DomainError(f'range must look like "a:b", got {text!r}') from exc
    return range(lo, hi + 1)


def _cmd_table(args) -> int:
    if args.at_one and args.kind != "beta":
        raise DomainError("the q=1 column is for beta tables only")
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
                a, b = _at_one(tbl.beta(n))  # printed as str(Fraction) prints it
                row["value_at_q1"] = str(a) if b == 1 else f"{a}/{b}"
            rows.append(row)
    elif args.kind == "bernstein":
        from .bernstein import BernsteinSpec, bernstein_eval
        x = _parse_x(args.x)
        header = ["n", "k", "x", "value"]
        for n in _parse_range(args.range):
            for k in range(n + 1):
                value = bernstein_eval(BernsteinSpec(k, n), x, ctx)
                rows.append({"n": n, "k": k, "x": str(x),
                             "value": _render_cell(value, ctx)})
    else:
        from .integral import bernstein_power_product_integral
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
        lines = [header] + [[row[key] for key in header] for row in rows]
        _emit(args, "".join(",".join(map(_csv_field, line)) + "\n" for line in lines))
    else:
        import json
        _emit(args, json.dumps({"kind": args.kind, "rows": rows}, sort_keys=True) + "\n")
    return EXIT_OK


def _csv_field(value) -> str:
    """``value`` as ``csv.writer(buf, lineterminator="\\n")`` writes a field:
    quoted, with its quotes doubled, if it holds a comma, a quote or "\\n"."""
    cell = str(value)
    return '"' + cell.replace('"', '""') + '"' if any(c in cell for c in ',"\n') else cell


_SELFTEST_GRID = {"identities": [["THM1", {"n": 1, "x": 0}], ["PROP2", {"n": 2}],
                                 ["EQ6", {"n": 2}], ["THM3", {"n": 2}]]}


def _cmd_selftest(args) -> int:
    from .identities import _corrupted, reports_to_jsonl, run_suite, suite_exit_status
    # the other suite flags apply; the backend is always padic
    if getattr(args, "backend", "padic") != "padic":
        raise DomainError("selftest requires the padic backend")
    config = _config(args, _SELFTEST_GRID).replace(backend="padic")
    reports = run_suite(config)
    if args.corrupt:
        ran = next(i for i, r in enumerate(reports) if r.verdict is not None)
        reports[ran] = _corrupted(reports[ran], config.context())
    _emit(args, reports_to_jsonl(reports))
    return suite_exit_status(reports)


_N = {"--n": ("n", int, REQUIRED, "index n")}
_X = {"--x": ("x", str, REQUIRED, "integer or rational argument")}
_COMMANDS = {
    "beta": (_cmd_number, "Carlitz q-Bernoulli number", _N),
    "xi": (_cmd_number, "unmodified Carlitz number", _N),
    "beta-poly": (_cmd_beta_poly, "Carlitz q-Bernoulli polynomial value", {**_N, **_X}),
    "bernstein": (_cmd_bernstein, "basis polynomial value",
                  {"--k": ("k", int, REQUIRED, "index k"), **_N, **_X}),
    "integrate": (_cmd_integrate, "adaptive p-adic q-integral", {
        "--integrand": ("integrand", str, REQUIRED, "integrand JSON (inline or @file)")}),
    "verify": (_cmd_verify, "run the identity suite",
               {"--grid": ("grid", str, None, "grid JSON file")}),
    "table": (_cmd_table, "tabulate values", {
        "--kind": ("kind", ("beta", "bernstein", "integral"), REQUIRED, "what to tabulate"),
        "--range": ("range", str, REQUIRED, 'index range "a:b" (inclusive)'),
        "--x": ("x", str, "2", "argument for bernstein tables"),
        "--k": ("k", int, 0, "lower index for integral tables"),
        "--at-one": ("at_one", None, False, "add the q=1 column (symbolic beta tables)"),
        "--format": ("format", ("json", "csv"), "json", "output format"),
    }),
    "selftest": (_cmd_selftest, "small grid self-check", {
        "--corrupt": ("corrupt", None, False, "flip one sign to prove failures are detected")}),
}


def _parse(argv: list) -> SimpleNamespace:
    """``argv`` read against the table.  The global options go before or
    after the command.  A value follows its flag after "=", or is the next
    token unless that starts with "--" (``--x -1/2``); a flag may be any
    unique prefix of its name (``--prec``); the last of a repeated flag wins.
    Help exits 0, and a usage error exits 2 with argparse's wording."""
    command, options, values, extras = None, _GLOBAL_OPTIONS, {}, []
    tokens = iter(argv)
    for token in tokens:
        flag, eq, value = token.partition("=") if token != "-h" else ("--help", "", "")
        if flag[:2] != "--":
            if command is not None:
                extras.append(token)
            elif token in _COMMANDS:
                command, options = token, {**_COMMANDS[token][2], **_GLOBAL_OPTIONS}
            else:
                _fail(None, f"argument command: invalid choice: {token!r} "
                            f"(choose from {', '.join(map(repr, _COMMANDS))})")
            continue
        names = [flag] if flag in options else [name for name in options if name.startswith(flag)]
        if len(names) != 1:
            if names:
                _fail(command, f"ambiguous option: {flag} could match {', '.join(names)}")
            extras.append(token)
            continue
        name = names[0]
        dest, convert = options[name][:2]
        if name == "--help":
            _write_stdout(_help(command))
            raise SystemExit(EXIT_OK)
        if convert is None:
            if eq:
                _fail(command, f"argument {name}: ignored explicit argument {value!r}")
            values[dest] = True
            continue
        if not eq:
            value = next(tokens, "--")
            if value[:2] == "--":
                _fail(command, f"argument {name}: expected one argument")
        if isinstance(convert, tuple) and value not in convert:
            _fail(command, f"argument {name}: invalid choice: {value!r} "
                           f"(choose from {', '.join(map(repr, convert))})")
        try:
            values[dest] = value if isinstance(convert, tuple) else convert(value)
        except ValueError:
            _fail(command, f"argument {name}: invalid {convert.__name__} value: {value!r}")
    if command is None:
        _fail(None, "the following arguments are required: command")
    missing = [name for name, (dest, _, default, _) in options.items()
               if default is REQUIRED and dest not in values]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(command, f"unrecognized arguments: {' '.join(extras)}")
    defaults = {dest: default for dest, _, default, _ in options.values()
                if default is not REQUIRED and default is not UNSET}
    return SimpleNamespace(command=command, **{**defaults, **values})


def _fail(command, message: str):
    prog = f"qbern {command}" if command else "qbern"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _usage(command) -> str:
    return f"usage: qbern {command or '[options] COMMAND'} [options]"


def _flag(name: str, option) -> str:
    dest, convert = option[:2]
    meta = "{" + ",".join(convert) + "}" if isinstance(convert, tuple) else dest.upper()
    return name if convert is None else f"{name} {meta}"


def _help(command) -> str:
    if command is None:
        lines = ["Exact q-Bernoulli / q-Bernstein arithmetic and identity verification", "",
                 "commands:", *(f"  {name:<11}{spec[1]}" for name, spec in _COMMANDS.items()),
                 "", "options, before or after the command:"]
        options = _GLOBAL_OPTIONS
    else:
        lines = [_COMMANDS[command][1], "", "options:"]
        options = {**_COMMANDS[command][2], **_GLOBAL_OPTIONS}
    flags = {_flag(name, option): option[3] + " (required)" * (option[2] is REQUIRED)
             for name, option in options.items()}
    width = max(map(len, flags)) + 2
    return "\n".join([_usage(command), "", *lines,
                      *(f"  {flag:<{width}}{text}" for flag, text in flags.items())]) + "\n"


def main(argv=None, cpus: int = 1) -> int:
    """The command of ``argv`` (by default the process's) as an exit code;
    ``verify`` may use up to ``cpus`` processes, so by default it runs here."""
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        args.cpus = cpus
        return _COMMANDS[args.command][0](args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (QbernError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> int:
    """``main`` as a process, whose ``verify`` may fork a worker per
    usable CPU: its exit code, with stdout flushed.

    A closed stdout is an output that cannot be written: one error line and
    exit 2, with stdout pointed at os.devnull so that the interpreter's own
    final flush stays silent.  Under ``python -u`` stdout gets back its
    buffered layer, since its text layer would drop what a short write to
    the raw file leaves.  Last, every object is frozen, so that the
    interpreter's collections at shutdown skip them all; normal shutdown
    (flushes, atexit handlers, the exit code) is otherwise unchanged.
    ``main`` freezes nothing, since its callers go on running.
    """
    if isinstance(getattr(sys.stdout, "buffer", None), io.FileIO):
        sys.stdout = open(sys.stdout.fileno(), "w", encoding=sys.stdout.encoding,
                          errors=sys.stdout.errors, closefd=False)
    try:
        try:
            return main(cpus=usable_cpus())
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
