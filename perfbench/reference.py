"""A fixed reference program that measures the machine's current speed.

    python3 perfbench/reference.py

It does work of the kinds basisdetect does, in plain Python and without
importing the package: exact rational row reduction (the LPs) and products
of sparse polynomials stored as dicts of exponent tuples (the criterion and
the ranking).  Its run time depends only on the machine, so the benchmark
divides by it to take the machine's speed out of its timings.
"""

from fractions import Fraction


def row_reduce(n: int) -> list:
    """Gauss-Jordan elimination of a fixed n x n rational matrix."""
    m = [
        [Fraction((i * 7 + j * 13) % 17 + 5 * (i == j), 1 + (i + j) % 5) for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


def poly_power(k: int) -> int:
    """Number of terms of a fixed trivariate polynomial to the power k + 1,
    with coefficients reduced modulo a prime."""
    base = {(i, j, i * j % 3): (i + 2 * j) % 7 - 3 for i in range(6) for j in range(6)}
    acc = dict(base)
    for _ in range(k):
        out: dict = {}
        for e1, c1 in acc.items():
            for e2, c2 in base.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = out.get(e, 0) + c1 * c2
        acc = {e: c % 10007 for e, c in out.items() if c % 10007}
    return len(acc)


if __name__ == "__main__":
    row_reduce(40)
    poly_power(3)
