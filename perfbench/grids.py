"""Seeded inputs for the three workloads.

The two verify workloads run the identity catalog of ``qbern verify``'s
built-in grids, written out by the benchmark itself and passed with
``--grid``.  The seed only permutes the order of the entries, so every seed
does the same work and the same seed always gives the same bytes.
"""

from __future__ import annotations

import json
import random

PADIC_PRIMES = (3, 5, 7)
PADIC_PRECISION = 24
PADIC_TARGET = 8
DEEP_RANGE = (0, 20)


def _compositions(s, lo, hi):
    if s == 0:
        yield ()
        return
    for first in range(lo, hi + 1):
        for rest in _compositions(s - 1, lo, hi):
            yield (first,) + rest


def symbolic_entries() -> list:
    """The built-in symbolic grid: 478 entries, one report each."""
    grid = [("PROP2", {"n": n}) for n in range(2, 9)]
    grid += [("EQ7", {"n": n}) for n in range(0, 7)]
    grid += [("THM3", {"n": n}) for n in range(2, 9)]
    grid += [("EQ9_EQ11", {"n": n, "k": k}) for n in range(0, 9) for k in range(0, n - 1)]
    for n in range(0, 6):
        for m in range(0, 6):
            for k in range(0, (n + m) // 2 + 1):
                if n + m > 2 * k + 1:
                    grid.append(("EQ13_EQ14", {"n": n, "m": m, "k": k}))
    for s in (1, 2, 3):
        for combo in _compositions(s, 1, 4):
            for k in range(1, 5):
                if sum(combo) > s * k + 1:
                    grid.append(("THM4_COR5", {"n": list(combo), "k": k}))
    for n1 in range(1, 4):
        for n2 in range(1, 4):
            for m1 in range(1, 3):
                for m2 in range(1, 3):
                    nm = ((n1, m1), (n2, m2))
                    for k in range(0, 4):
                        if n1 * m1 + n2 * m2 > k * (m1 + m2) + 1:
                            grid.append(("THM6", {"nm": [list(t) for t in nm], "k": k}))
    # disputed-reading probes: s = 3 separates the two index readings
    for nm in (((2, 1), (1, 1), (2, 1)), ((3, 1), (2, 1), (1, 1))):
        for reading in ("literal", "sigma"):
            grid.append(("THM6", {"nm": [list(t) for t in nm], "k": 1, "reading": reading}))
    grid += [("EQ10_SYMMETRY", {"k": k, "n": n, "x": x})
             for n in range(0, 9) for k in range(0, n + 1) for x in (0, 1, 2)]
    grid += [("Q_TO_1", {"n": n}) for n in range(0, 13)]
    grid += [("Q_TO_1", {"n": n, "xi": True}) for n in range(2, 7)]
    return grid


def padic_entries() -> list:
    """The built-in p-adic grid: 40 entries, one report each."""
    grid = [("THM1", {"n": n, "x": x}) for n in range(0, 4) for x in (0, 1, 2)]
    grid += [("PROP2", {"n": n}) for n in range(2, 5)]
    for n in range(0, 4):
        grid += [("EQ7", {"n": n}), ("EQ6", {"n": n})]
    grid += [("THM3", {"n": n}) for n in range(2, 5)]
    grid += [("EQ9_EQ11", {"n": 3, "k": 1}), ("EQ9_EQ11", {"n": 4, "k": 1}),
             ("EQ13_EQ14", {"n": 2, "m": 2, "k": 1}),
             ("THM4_COR5", {"n": [2, 3], "k": 1}),
             ("THM6", {"nm": [[2, 2], [2, 1]], "k": 1})]
    grid += [("EQ10_SYMMETRY", {"k": k, "n": n, "x": x})
             for (k, n) in ((0, 2), (1, 3), (2, 4)) for x in (0, 1, 2)]
    return grid


def shuffled(entries: list, rng: random.Random) -> list:
    entries = list(entries)
    rng.shuffle(entries)
    return entries


def grid_json(entries: list, **config) -> str:
    return json.dumps({**config, "identities": [
        {"identity": name, "params": params} for name, params in entries]})
