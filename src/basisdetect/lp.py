"""Exact fraction-free simplex method for small feasibility programs.

One pivot loop, ``_solve``, serves two entries:

- ``maximize`` solves  maximize c.z  subject to  A z <= b, z >= 0  for
  rational data with every entry of b nonnegative, and returns
  ``Fraction`` values;
- ``cone_weight`` solves the cone program of class enumeration on
  integer rows, with its bounds 0 <= w_j <= 1 kept out of the tableau,
  and returns a primitive integer weight, or the rows of a certificate
  that there is none, without building a single ``Fraction``.

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

Upper bounds are implicit (Dantzig's upper-bounding technique,
Econometrica 1955).  Written out, the bound of w_j is a box row
w_j + s_j = 1 with a slack s_j = 1 - w_j.  Every such row has the form
x + x' = 1, and in every basis one of the pair is a row or a column of
the kept tableau while the other is basic in the box row, whose condensed
form is then known: ``D x' + D x = D`` when x is a nonbasic column, and
the row of x negated, with right-hand side ``D - rhs``, when x is basic.
So ``_solve`` keeps only the constraint rows and the cost row, and
labels the variables as in the explicit program, the box slacks after
the row slacks.  Its ratio test sees every candidate of the explicit
tableau: a kept row with entry a > 0 in the entering column, at ratio
rhs / a; the complement of a basic bounded variable when a < 0, at ratio
(D - rhs) / -a; and the entering variable's own bound, at ratio 1.  No
other box row has an entry in that column.  Ties break on the same
labels, so each step is the explicit one:

- a pivot on a kept row is the same pivot;
- a pivot on a complement first negates the row and sets its right-hand
  side to D - rhs, so that the row carries the complement, then pivots
  on the same entry -a;
- a pivot on the entering variable's own box row has pivot entry D and
  is a bound flip: the variable is carried as its complement, its column
  negates and every right-hand side drops by the row's entry there, in
  O(m) and with D unchanged.

The basis, the common denominator and every kept row therefore match
the explicit tableau's after each step, on m + 1 rows instead of
m + n + 1.
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


def _solve(
    table: list[list[int]], nvars: int, nbox: int = 0
) -> tuple[list[int], list[int], int]:
    """Pivot an integer tableau to optimality by Bland's rule.

    Rows 0..m-1 of ``table`` are the constraints and the last row the
    reduced costs; column ``nvars`` holds the right-hand side (minus the
    objective value in the last row).  Variables are labelled as in the
    explicit program: structural 0..nvars-1, the slack of row i
    ``nvars + i``, and the slack of the implicit bound ``z_j <= 1`` of
    each of the first ``nbox`` structural variables ``top + j``, with
    ``top = nvars + m``; that slack is the complement ``1 - z_j``, and
    exactly one of the two has a row or a column here.  Each step
    replaces every row it changes by a new list.  Returns the labels of
    the basic rows and of the nonbasic columns and the final common
    denominator.
    """
    m = len(table) - 1
    top = nvars + m
    nonbasic = list(range(nvars))
    basic = list(range(nvars, top))
    denom = 1

    while True:
        costs = table[m]
        col = None
        for j in range(nvars):
            if costs[j] > 0 and (col is None or nonbasic[j] < nonbasic[col]):
                col = j
        if col is None:
            return basic, nonbasic, denom
        # ratio test num/den by cross-multiplication; Bland tie-break on
        # the smallest leaving label.  Row -1 is the entering variable's
        # own bound, the row D z + D z' = D of the explicit tableau.
        row = None
        enter = nonbasic[col]
        if enter < nbox or enter >= top:
            row, num, den = -1, 1, 1
            leaving = enter + top if enter < nbox else enter - top
        for i in range(m):
            a = table[i][col]
            if a > 0:
                b, label = table[i][nvars], basic[i]
            elif a < 0 and (basic[i] < nbox or basic[i] >= top):
                # the complement's row: every entry negated, rhs D - rhs
                a, b = -a, denom - table[i][nvars]
                label = basic[i] + top if basic[i] < nbox else basic[i] - top
            else:
                continue
            if row is not None:
                lhs, rhs_best = b * den, num * a
                if lhs > rhs_best or (lhs == rhs_best and label > leaving):
                    continue
            row, num, den, leaving = i, b, a, label
        if row is None:
            raise UnboundedError("unbounded objective")

        if row < 0:
            # bound flip: z = 1 - z', so column col negates and every
            # row's right-hand side drops by its entry there
            for i, other in enumerate(table):
                factor = other[col]
                if factor:
                    other = other.copy()
                    other[col] = -factor
                    other[nvars] -= factor
                    table[i] = other
            nonbasic[col] = leaving
            continue
        if leaving == basic[row]:
            pivot_row = table[row].copy()
        else:
            pivot_row = [-a for a in table[row]]
            pivot_row[nvars] += denom
        table[row] = pivot_row
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
        basic[row], nonbasic[col] = enter, leaving


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

    with the bounds implicit (see the module docstring).  Each step, the
    final basis and so the result are those ``maximize`` makes on the
    explicit program, the given rows followed by one box row w_j <= 1
    per variable; a bound flip is a pivot on a box row there.  A w_j
    carried as its complement is 1 - rhs / D when that is basic, and 1
    when it is a nonbasic column.  The system is homogeneous in w,
    so the unit box loses no generality, and a positive optimum is an
    interior point: the result is ``(weight, None)`` with its primitive
    integer multiple.  An optimum of 0 gives ``(None, core)``, the
    indices of the rows whose slacks carry a nonzero reduced cost.  Their
    optimal duals y > 0 satisfy sum y_r d_r >= 0 (the box rows, with
    right-hand side 1, get dual 0 at value 0), so no w >= 0 has
    <w, d_r> < 0 on all the core rows, whatever other rows join them.

    The rows are left as they were, so callers may share them between
    programs and repeat one within a program: every step replaces each
    row it changes by a new list.
    """
    table = list(rows)
    table.append([0] * n + [1, 0])
    basic, nonbasic, denom = _solve(table, n + 1, n)
    costs = table[-1]
    if costs[n + 1] >= 0:
        return None, [v - n - 1 for j, v in enumerate(nonbasic) if v > n and costs[j]]
    top = n + len(table)
    weight = [0] * n
    for var in nonbasic:
        if var >= top:
            weight[var - top] = denom
    for i, var in enumerate(basic):
        if var < n:
            weight[var] = table[i][n + 1]
        elif var >= top:
            weight[var - top] = denom - table[i][n + 1]
    g = gcd(*weight)
    return tuple(w // g for w in weight), None
