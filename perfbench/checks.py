"""Output checks that do not trust qbern's own verdicts.

Each checker parses what the CLI printed and re-derives what it can with
the benchmark's own arithmetic: symbolic "exact" verdicts must carry equal
canonical sides, the q = 1 values must equal Bernoulli numbers from the
benchmark's own recurrence, and every p-adic verdict is recomputed from the
digits of its two sides.  A checker returns a ``Checked``; any entry in
``problems`` makes the run incorrect.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, inf

# Oracle-backed identities: their left side comes from the Riemann oracle.
ORACLE_IDENTITIES = ("THM1", "EQ6", "THM3")

# Minimum agreement valuation over the oracle-backed reports per prime, as
# the seed commit achieves it at precision 24 / target 8 / default caps.
# A change that loses oracle digits below these fails the run.
ORACLE_AGREEMENT_FLOOR = {3: 8, 5: 6, 7: 5}


@dataclass
class Checked:
    reports: int = 0          # reports or table rows attempted
    failed: int = 0           # failed non-quarantined reports / mismatching rows
    agreement_min: float = inf  # oracle-backed reports only
    problems: list = field(default_factory=list)


def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2, from sum_{k<=m} C(m+1, k) B_k = 0."""
    values = [Fraction(1)]
    for m in range(1, n + 1):
        values.append(-sum(comb(m + 1, k) * values[k] for k in range(m)) / (m + 1))
    return values[n]


def _parse_reports(text: str, entries: list, backend: str, out: Checked):
    lines = text.splitlines()
    try:
        rows = [json.loads(line) for line in lines]
    except json.JSONDecodeError as exc:
        out.problems.append(f"output is not JSON lines: {exc}")
        return [], {}
    if not rows or "summary" not in rows[-1]:
        out.problems.append("no summary line")
        return [], {}
    reports, summary = rows[:-1], rows[-1]["summary"]
    if len(reports) != len(entries):
        out.problems.append(f"{len(reports)} reports for {len(entries)} grid entries")
    for i, ((name, params), rep) in enumerate(zip(entries, reports)):
        got = rep.get("parameters", {})
        if rep.get("identity") != name or rep.get("backend") != backend or any(
            got.get(k) not in (v, str(v)) for k, v in params.items()
        ):
            out.problems.append(f"report {i} is {rep.get('identity')} {got}, grid has {name} {params}")
    out.reports = len(reports)
    return reports, summary


def _check_exit(out: Checked, summary: dict, exit_code: int):
    if summary.get("total") != out.reports or summary.get("failed") != out.failed:
        out.problems.append(f"summary {summary} disagrees with {out.failed} failures recounted")
    if exit_code != (1 if out.failed else 0):
        out.problems.append(f"exit code {exit_code} with {out.failed} failures")


def check_symbolic_grid(text: str, entries: list, exit_code: int) -> Checked:
    out = Checked()
    reports, summary = _parse_reports(text, entries, "symbolic", out)
    quarantined = 0
    for i, rep in enumerate(reports):
        if not rep["domain_ok"]:
            continue
        kind = (rep["verdict"] or {}).get("kind")
        if rep["quarantined"]:
            quarantined += 1
            if not (rep["identity"] == "THM6" and rep["parameters"].get("reading") == "literal"
                    and kind == "fail" and rep["lhs"] != rep["rhs"]):
                out.problems.append(f"report {i}: unexpected quarantined result {rep}")
            continue
        if kind != "exact":
            out.failed += 1
            out.problems.append(f"report {i} ({rep['identity']} {rep['parameters']}) is {kind}")
        elif rep["lhs"] != rep["rhs"]:
            out.problems.append(f"report {i}: exact verdict with unequal sides")
        if rep["identity"] == "Q_TO_1" and not rep["parameters"].get("xi"):
            b = bernoulli(rep["parameters"]["n"])
            want = {"num": [str(b)] if b else [], "den": ["1"]}
            if rep["lhs"] != want:
                out.problems.append(f"report {i}: beta_n(1) is {rep['lhs']}, B_n is {b}")
    if quarantined != 2:
        out.problems.append(f"{quarantined} quarantined probes, expected 2")
    _check_exit(out, summary, exit_code)
    return out


def _padic_parts(value: dict):
    """(valuation, unit, precision) of a serialized p-adic number."""
    p = value["p"]
    prec = inf if value["precision"] == "inf" else value["precision"]
    if value["valuation"] == "inf":
        return inf, 0, prec
    unit = sum(d * p ** i for i, d in enumerate(value["digits"]))
    return value["valuation"], unit, prec


def agreement(lhs: dict, rhs: dict, p: int):
    """(nu_p(lhs - rhs) capped at the shared precision, shared precision)."""
    vx, ux, px = _padic_parts(lhs)
    vy, uy, py = _padic_parts(rhs)
    shared = min(px, py)
    w = min(vx, vy)
    if w == inf:
        return shared, shared
    z = ux * p ** (vx - w) if ux else 0
    z -= uy * p ** (vy - w) if uy else 0
    if shared != inf:
        if shared <= w:
            return shared, shared
        z %= p ** (shared - w)
    if z == 0:
        return shared, shared
    while z % p == 0:
        z //= p
        w += 1
    return w, shared


def check_padic_grid(text: str, entries: list, p: int, target: int,
                     exit_code: int) -> Checked:
    """Re-derive every verdict from the digits of its sides at ``target``."""
    out = Checked()
    reports, summary = _parse_reports(text, entries, "padic", out)
    for i, rep in enumerate(reports):
        if not rep["domain_ok"]:
            continue
        verdict = rep["verdict"] or {}
        if rep["lhs"] is None or rep["rhs"] is None:
            out.problems.append(f"report {i}: p-adic report without both sides")
            continue
        agreed, shared = agreement(rep["lhs"], rep["rhs"], p)
        if target > shared or agreed < target:
            want = {"kind": "fail", "valuation": agreed}
        elif agreed >= shared:
            want = {"kind": "exact"}
        else:
            want = {"kind": "valuation", "valuation": target}
        got = {k: verdict.get(k) for k in want}
        if got != want:
            out.problems.append(f"report {i} ({rep['identity']}): verdict {got}, digits give {want}")
        if want["kind"] == "fail" and not rep["quarantined"]:
            out.failed += 1
        if rep["identity"] in ORACLE_IDENTITIES:
            out.agreement_min = min(out.agreement_min, agreed)
    floor = ORACLE_AGREEMENT_FLOOR[p]
    if out.agreement_min < floor:
        out.problems.append(f"p={p}: oracle agreement {out.agreement_min} below the floor {floor}")
    _check_exit(out, summary, exit_code)
    return out


def check_beta_table(text: str, lo: int, hi: int, exit_code: int) -> Checked:
    out = Checked()
    rows = list(csv.DictReader(io.StringIO(text)))
    out.reports = len(rows)
    if [r.get("n") for r in rows] != [str(n) for n in range(lo, hi + 1)]:
        out.problems.append(f"table rows {[r.get('n') for r in rows]}, expected {lo}..{hi}")
    for row in rows:
        n = int(row["n"])
        try:
            ok = row["backend"] == "symbolic" and row["value"] and (
                Fraction(row["value_at_q1"]) == bernoulli(n))
        except (KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            out.failed += 1
            out.problems.append(f"row n={n}: value_at_q1 {row.get('value_at_q1')} != B_{n}")
    if exit_code != 0:
        out.problems.append(f"table exited {exit_code}")
    return out
