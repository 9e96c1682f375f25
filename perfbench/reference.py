"""A fixed pure-Python computation that gauges the host's current speed.

Usage: python perfbench/reference.py

It does the two kinds of arithmetic qbern spends its time in: products of
``Fraction`` coefficient lists, as in the symbolic backend, and modular
big-int arithmetic, as in the p-adic backend.  It imports nothing from
qbern, so no change to qbern changes its time.  run.py times it between
the CLI runs and rescales their times by it.
"""

from fractions import Fraction


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def main():
    coeffs = [Fraction(i + 1, i + 2) for i in range(80)]
    for _ in range(2):
        poly_mul(coeffs, coeffs)
    mod = 7 ** 24
    x = 1
    for i in range(900_000):
        x = (x * 8 + i) % mod


if __name__ == "__main__":
    main()
