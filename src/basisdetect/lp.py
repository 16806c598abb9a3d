"""Exact fraction-free simplex method for small feasibility programs.

One pivot loop, ``_solve``, serves two entries:

- ``maximize`` solves  maximize c.z  subject to  A z <= b, z >= 0  for
  rational data with every entry of b nonnegative, and returns
  ``Fraction`` values;
- ``cone_weight`` solves the cone program of class enumeration on
  integer rows and returns a primitive integer weight, or the rows of a
  certificate that there is none, without building a single
  ``Fraction``.

The all-slack basis is feasible because b >= 0, so no phase-1 is needed.
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
gcd is ever taken.  ``maximize`` scales rational input to integers first,
each row together with its right-hand side and the objective on its own,
which scales slack and objective values by positive constants and so
leaves every sign, ratio and hence every pivot unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class UnboundedError(Exception):
    """The objective is unbounded above on the feasible region."""


def _integral(values: list) -> tuple[list[int], int]:
    """Integer vector and positive scale with ints == scale * values."""
    if all(type(x) is int for x in values):
        return values, 1
    exact = [Fraction(x) for x in values]
    scale = lcm(*(x.denominator for x in exact))
    return [x.numerator * (scale // x.denominator) for x in exact], scale


def _solve(table: list[list[int]], nvars: int) -> tuple[list[int], list[int], int]:
    """Pivot an integer tableau to optimality by Bland's rule.

    Rows 0..m-1 of ``table`` are the constraints and the last row the
    reduced costs; column ``nvars`` holds the right-hand side (minus the
    objective value in the last row).  A pivot replaces every row it
    changes by a new list, except the pivot row, whose pivot entry it sets
    in place.  Returns the variable labels of the basic rows and of the
    nonbasic columns (structural variables are 0..nvars-1, the slack of
    row i is nvars + i) and the final common denominator.
    """
    m = len(table) - 1
    nonbasic = list(range(nvars))
    basic = list(range(nvars, nvars + m))
    denom = 1

    while True:
        costs = table[m]
        col = None
        for j in range(nvars):
            if costs[j] > 0 and (col is None or nonbasic[j] < nonbasic[col]):
                col = j
        if col is None:
            return basic, nonbasic, denom
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


def maximize(
    objective, rows, rhs
) -> tuple[Fraction, list[Fraction]]:
    """Return (optimal value, optimal point) for max c.z, A z <= b, z >= 0.

    ``rows`` is the constraint matrix A as a list of coefficient sequences,
    ``rhs`` the vector b with b >= 0 entrywise.
    """
    nvars = len(objective)
    if any(r < 0 for r in rhs):
        raise ValueError("rhs must be nonnegative (slack basis must be feasible)")
    table = []
    for i, row in enumerate(rows):
        if len(row) != nvars:
            raise ValueError("constraint row of wrong length")
        table.append(_integral(list(row) + [rhs[i]])[0])
    costs, cost_scale = _integral(list(objective))
    table.append(costs + [0])
    basic, _, denom = _solve(table, nvars)
    point = [Fraction(0)] * nvars
    for i, var in enumerate(basic):
        if var < nvars:
            point[var] = Fraction(table[i][nvars], denom)
    return Fraction(-table[-1][nvars], denom * cost_scale), point


def cone_weight(rows, n: int):
    """Primitive w >= 0 with <w, d> < 0 for every row d, or a proof that
    there is none.

    Each row is an integer difference ``u - lead`` of length ``n``
    followed by the two entries ``1, 0``, and there is at least one row.
    The program is

        max eps  s.t.  <w, d> + eps <= 0 for every row,  0 <= w_j <= 1,

    the one ``maximize`` would solve with the box rows after the given
    rows, so it makes the same pivots.  The system is homogeneous in w,
    so the unit box loses no generality, and a positive optimum is an
    interior point: the result is ``(weight, None)`` with its primitive
    integer multiple.  An optimum of 0 gives ``(None, core)``, the
    indices of the rows whose slacks carry a nonzero reduced cost.  Their
    optimal duals y > 0 satisfy sum y_r d_r >= 0 (the box rows, with
    right-hand side 1, get dual 0 at value 0), so no w >= 0 has
    <w, d_r> < 0 on all the core rows, whatever other rows join them.

    The rows are left as they were, so callers may share them between
    programs: the first pivot brings eps in on the first row, sets the 1
    already there and replaces every other row that has an eps entry.
    """
    table = list(rows)
    for j in range(n):
        box = [0] * (n + 2)
        box[j] = box[n + 1] = 1
        table.append(box)
    table.append([0] * n + [1, 0])
    basic, nonbasic, _ = _solve(table, n + 1)
    costs = table[-1]
    if costs[n + 1] >= 0:
        return None, [v - n - 1 for j, v in enumerate(nonbasic) if v > n and costs[j]]
    weight = [0] * n
    for i, var in enumerate(basic):
        if var < n:
            weight[var] = table[i][n + 1]
    g = gcd(*weight)
    return tuple(w // g for w in weight), None
