"""The benchmark's traced run and micro-timings, held to the program.

``perfbench/run.py --trace 1`` is the only run of ``perfbench/traced_cli.py``,
``layers.py`` and ``micro.py``, and they lean on call shapes that nothing
else checks: ``integral.integrate`` and ``riemann_sum`` are rebound by name
with ``ctx`` and ``level`` read by position, ``PadicNumber``'s binary dunders
are wrapped as two-argument functions, and ``QContext.padic``,
``q_bracket``, ``CarlitzTable(...).beta``, ``RationalFunction(num, den)`` and
``.num``/``.den`` are called.  Here the traced CLI must print what the plain
CLI prints, its spans must aggregate, and the micro-timings must cover every
name BENCHMARK.json declares.  Nothing under ``perfbench/`` is changed.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
DECLARED = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
VERIFIERS = [name.split(".", 2)[2] for name in DECLARED
             if name.startswith("identities.verify_s.")]


def _perfbench(name):
    """A module of perfbench/, imported without writing byte code there."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved


def _run(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, check=False)


def _padic_grid(tmp_path):
    grids = _perfbench("grids")
    path = tmp_path / "padic_p3.json"
    path.write_text(grids.grid_json(
        grids.padic_entries(), backend="padic", prime=3,
        precision=grids.PADIC_PRECISION, q="1+p", target_valuation=grids.PADIC_TARGET))
    return ["verify", "--grid", str(path)]


COMMANDS = {
    "padic-p3": _padic_grid,
    "beta-table": lambda _: ["table", "--kind", "beta", "--range", "0:8", "--at-one",
                             "--format", "csv"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_traced_cli_prints_what_the_cli_prints(tmp_path, command):
    args = COMMANDS[command](tmp_path)
    trace = tmp_path / "trace.json"
    plain = _run("-m", "qbern.cli", *args)
    traced = _run(str(PERFBENCH / "traced_cli.py"), str(trace), *args)
    assert b"Traceback" not in plain.stderr + traced.stderr, traced.stderr.decode()
    assert plain.returncode in (0, 1)
    assert traced.returncode == plain.returncode
    assert traced.stdout == plain.stdout
    metrics = _perfbench("layers").aggregate([json.loads(trace.read_text())],
                                             verifiers=VERIFIERS)
    if command == "padic-p3":
        assert metrics["integral.integrate_calls"] > 0
        assert metrics["integral.riemann_calls"] > 0
        assert metrics["padic.mul_count"] > 0
    else:
        assert metrics["carlitz.steps"] == 8
        assert metrics["qfield.max_degree"] > 0


def test_micro_timings_cover_the_declared_names():
    done = _run(str(PERFBENCH / "micro.py"))
    assert done.returncode == 0, done.stderr.decode()
    values = json.loads(done.stdout)
    # padic.*_us, qfield.*_us.* and carlitz.step_ms.*: the micro-timings
    wanted = [name for name in DECLARED if re.fullmatch(
        r"padic\.\w+_us|qfield\.\w+_us\.\w+|carlitz\.step_ms\.\w+", name)]
    assert len(wanted) == 12
    assert all(isinstance(values.get(name), float) and values[name] > 0 for name in wanted), {
        name: values.get(name) for name in wanted}
