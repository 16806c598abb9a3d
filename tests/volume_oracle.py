"""Reference volume, kept as a test oracle for ``normalized_volume``.

``normalized_volume`` in ``basisdetect.orders`` projects the points onto
the pivot columns of an echelon basis of the lattice their differences
span, sums |det| over a placing triangulation and divides by the product
of the pivots.  This oracle shares no code with it; it finds the index as
a gcd of minors and triangulates by a recursive fan:

- the points are projected onto d coordinates on which their edges have a
  nonzero d x d minor, d the dimension of their hull.  That projection is
  injective on the affine span, so it maps the hull onto a
  full-dimensional hull in Q^d, which the earlier recursive fan
  triangulation cuts into simplices;
- a simplex S of that triangulation has normalized volume |det S| / g in
  the lattice spanned by the edges E, with g the gcd of the d x d minors
  of the projected E.  By Cauchy-Binet that gcd is the index of the
  projected lattice in Z^d, the same for every generating set of it.

Facets are found by testing every d-subset of the points with an exact
``Fraction`` normal, and each facet not through the apex is triangulated
in the same way, projected onto d - 1 of its coordinates.  Any
triangulation has the same volume, so both must agree.  The facet scan
costs C(m, d) eliminations per level and g costs C(m - 1, d)
determinants, so keep inputs small.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm


def _sub(p, q) -> tuple:
    return tuple(a - b for a, b in zip(p, q))


def _dot(p, q):
    return sum(a * b for a, b in zip(p, q))


def _echelon(rows) -> dict:
    """Pivot column -> row of a ``Fraction`` echelon form of the rows."""
    pivots: dict = {}
    for row in rows:
        row = [Fraction(x) for x in row]
        for col, other in pivots.items():
            if row[col]:
                factor = row[col] / other[col]
                row = [a - factor * b for a, b in zip(row, other)]
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is not None:
            pivots[lead] = row
    return pivots


def _det(rows) -> Fraction:
    """Determinant by ``Fraction`` Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            if a[i][k]:
                factor = a[i][k] / a[k][k]
                a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return det


def _project(points: list) -> list[tuple]:
    """The points on the pivot columns of their edges from the first one:
    as many coordinates as the dimension of their hull, on which the edges
    have a nonzero minor."""
    columns = sorted(_echelon([_sub(p, points[0]) for p in points[1:]]))
    return [tuple(p[c] for c in columns) for p in points]


def _primitive_normal(edge_rows: list, dim: int) -> tuple[int, ...] | None:
    """Primitive integer normal of the hyperplane spanned by the rows.

    Returns None unless the rows span a space of dimension exactly dim - 1.
    """
    pivots = _echelon(edge_rows)
    if len(pivots) != dim - 1:
        return None
    free = next(j for j in range(dim) if j not in pivots)
    normal = [Fraction(0)] * dim
    normal[free] = Fraction(1)
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        normal[col] = -sum(row[j] * normal[j] for j in range(col + 1, dim)) / row[col]
    denom = lcm(*(x.denominator for x in normal))
    ints = [int(x * denom) for x in normal]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _triangulate_hull(points: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Triangulation (as index tuples) of a full-dimensional hull.

    Facet hyperplanes are found by scanning point subsets, so this is meant
    for the small configurations arising from leading-exponent polytopes.
    """
    m = len(points)
    dim = len(points[0])
    if dim == 1:
        imin = min(range(m), key=lambda i: points[i])
        imax = max(range(m), key=lambda i: points[i])
        return [(imin, imax)]
    facets = {}
    for subset in itertools.combinations(range(m), dim):
        base = points[subset[0]]
        normal = _primitive_normal(
            [_sub(points[i], base) for i in subset[1:]], dim
        )
        if normal is None:
            continue
        level = _dot(normal, base)
        values = [_dot(normal, p) for p in points]
        if all(v <= level for v in values):
            pass
        elif all(v >= level for v in values):
            normal = tuple(-x for x in normal)
            level = -level
            values = [-v for v in values]
        else:
            continue
        facets[(normal, level)] = tuple(
            i for i, v in enumerate(values) if v == level
        )
    apex = min(range(m), key=lambda i: points[i])
    simplices = []
    for (normal, level), facet in sorted(facets.items()):
        if _dot(normal, points[apex]) == level:
            continue
        for simplex in _triangulate_hull(_project([points[i] for i in facet])):
            simplices.append((apex,) + tuple(facet[i] for i in simplex))
    return simplices


def oracle_normalized_volume(points) -> int:
    """Normalized volume of the hull of ``points`` in the lattice they span."""
    projected = _project(sorted({tuple(p) for p in points}))
    dim = len(projected[0])
    if dim == 0:
        return 1
    edges = [_sub(p, projected[0]) for p in projected[1:]]
    index = gcd(*(int(_det(rows)) for rows in itertools.combinations(edges, dim)))
    total = 0
    for simplex in _triangulate_hull(projected):
        first = projected[simplex[0]]
        det = abs(int(_det([_sub(projected[i], first) for i in simplex[1:]])))
        volume, rest = divmod(det, index)
        assert not rest, (points, simplex)
        total += volume
    return total
