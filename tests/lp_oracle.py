"""Reference dense-tableau simplex, kept as a test oracle for ``lp.maximize``.

Solves  maximize c.z  subject to  A z <= b, z >= 0  (b >= 0) over
``Fraction`` with one slack column per constraint and Bland's rule.  The
production solver must make the same pivots, so it must return exactly the
same optimal value and point, or raise the same error.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from basisdetect.lp import UnboundedError


def normalize_weight(entries) -> tuple[int, ...]:
    """Reduce an integer weight vector to its primitive representative.

    Entries must be nonnegative integers, not all zero.
    """
    w = tuple(int(e) for e in entries)
    if any(e < 0 for e in w):
        raise ValueError("weight entries must be nonnegative: %r" % (w,))
    g = 0
    for e in w:
        g = gcd(g, e)
    if g == 0:
        raise ValueError("the all-zero weight vector is not allowed")
    return tuple(e // g for e in w)


def maximize(
    objective, rows, rhs
) -> tuple[Fraction, list[Fraction]]:
    """Return (optimal value, optimal point) for max c.z, A z <= b, z >= 0.

    ``rows`` is the constraint matrix A as a list of coefficient sequences,
    ``rhs`` the vector b with b >= 0 entrywise.
    """
    nvars = len(objective)
    m = len(rows)
    if any(r < 0 for r in rhs):
        raise ValueError("rhs must be nonnegative (slack basis must be feasible)")

    # tableau over structural + slack columns
    table = []
    for i, row in enumerate(rows):
        if len(row) != nvars:
            raise ValueError("constraint row of wrong length")
        slack = [Fraction(0)] * m
        slack[i] = Fraction(1)
        table.append([Fraction(x) for x in row] + slack + [Fraction(rhs[i])])
    obj = [Fraction(x) for x in objective] + [Fraction(0)] * (m + 1)
    basis = [nvars + i for i in range(m)]
    total = nvars + m

    while True:
        entering = next((j for j in range(total) if obj[j] > 0), None)
        if entering is None:
            break
        # ratio test; Bland tie-break on the smallest basic variable index
        leaving = None
        best = None
        for i in range(m):
            coeff = table[i][entering]
            if coeff > 0:
                ratio = table[i][-1] / coeff
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            raise UnboundedError("unbounded objective")
        _pivot(table, obj, basis, leaving, entering)

    point = [Fraction(0)] * nvars
    for i, var in enumerate(basis):
        if var < nvars:
            point[var] = table[i][-1]
    return -obj[-1], point


def _pivot(table, obj, basis, row, col):
    piv = table[row][col]
    table[row] = [x / piv for x in table[row]]
    for i, r in enumerate(table):
        if i != row and r[col]:
            factor = r[col]
            table[i] = [a - factor * b for a, b in zip(r, table[row])]
    factor = obj[col]
    if factor:
        for j in range(len(obj)):
            obj[j] -= factor * table[row][j]
    basis[row] = col
