"""Exact fraction-free simplex method for small feasibility programs.

Solves  maximize c.z  subject to  A z <= b, z >= 0  with every entry of b
nonnegative, so the all-slack basis is feasible and no phase-1 is needed.
Pivoting uses Bland's rule, which cannot cycle even on the highly
degenerate systems produced by cone-feasibility checks.

The tableau is condensed: it keeps one column per nonbasic variable plus
the right-hand side, never the identity block of the basic ones.  Its
entries are integers over a single common denominator ``D > 0``, and a
pivot on ``p = T[r][c]`` updates every other row by

    T[i][j] <- (p * T[i][j] - T[i][c] * T[r][j]) // D

which is an exact division by Sylvester's determinant identity (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 1968): every entry is a minor of the initial
integer tableau.  Column ``c`` becomes ``-T[i][c]``, ``T[r][c]`` becomes
``D``, then ``D`` becomes ``p``, and the two variables swap labels.  No
gcd is ever taken.  Rational input is scaled to integers first, each row
together with its right-hand side and the objective on its own, which
scales slack and objective values by positive constants and so leaves
every sign, ratio and hence every pivot unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class UnboundedError(Exception):
    """The objective is unbounded above on the feasible region."""


def _integral(values: list) -> tuple[list[int], int]:
    """Integer vector and positive scale with ints == scale * values."""
    if all(type(x) is int for x in values):
        return values, 1
    exact = [Fraction(x) for x in values]
    scale = lcm(*(x.denominator for x in exact))
    return [x.numerator * (scale // x.denominator) for x in exact], scale


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

    # rows 0..m-1 are constraints, row m the reduced costs; column nvars
    # holds the right-hand side (minus the objective value in row m)
    table = []
    for i, row in enumerate(rows):
        if len(row) != nvars:
            raise ValueError("constraint row of wrong length")
        table.append(_integral(list(row) + [rhs[i]])[0])
    costs, cost_scale = _integral(list(objective))
    table.append(costs + [0])
    nonbasic = list(range(nvars))
    basic = [nvars + i for i in range(m)]
    denom = 1

    while True:
        costs = table[m]
        col = None
        for j in range(nvars):
            if costs[j] > 0 and (col is None or nonbasic[j] < nonbasic[col]):
                col = j
        if col is None:
            break
        # ratio test by cross-multiplication; Bland tie-break on the
        # smallest basic variable index
        row = None
        for i in range(m):
            coeff = table[i][col]
            if coeff > 0:
                if row is None:
                    row = i
                    continue
                lhs = table[i][nvars] * table[row][col]
                rhs_best = table[row][nvars] * coeff
                if lhs < rhs_best or (lhs == rhs_best and basic[i] < basic[row]):
                    row = i
        if row is None:
            raise UnboundedError("unbounded objective")

        pivot_row = table[row]
        piv = pivot_row[col]
        for i, other in enumerate(table):
            if i == row:
                continue
            factor = other[col]
            if factor:
                other = [
                    (piv * a - factor * b) // denom for a, b in zip(other, pivot_row)
                ]
                other[col] = -factor
                table[i] = other
            elif piv != denom:
                table[i] = [piv * a // denom for a in other]
        pivot_row[col] = denom
        denom = piv
        basic[row], nonbasic[col] = nonbasic[col], basic[row]

    point = [Fraction(0)] * nvars
    for i, var in enumerate(basic):
        if var < nvars:
            point[var] = Fraction(table[i][nvars], denom)
    return Fraction(-table[m][nvars], denom * cost_scale), point
