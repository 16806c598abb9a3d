"""Reference facet-scan triangulation, kept as a test oracle for the volume.

``normalized_volume`` in ``basisdetect.orders`` sums |det| over a placing
triangulation.  This is the earlier recursive fan triangulation: facets are
found by testing every d-subset of the points with an exact ``Fraction``
normal, and each facet not through the apex is triangulated in its own
lattice.  Any triangulation has the same volume, so both must agree.  The
facet scan costs C(m, d) eliminations per level, so keep inputs small.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from basisdetect import LatticePolytope
from basisdetect.orders import (
    _det, _hermite_basis, _lattice_coordinates, _pivot_columns, _sub
)
from basisdetect.polyring import dot


def _primitive_normal(edge_rows: list, dim: int) -> tuple[int, ...] | None:
    """Primitive integer normal of the hyperplane spanned by the rows.

    Returns None unless the rows span a space of dimension exactly dim - 1.
    """
    rows = [[Fraction(x) for x in row] for row in edge_rows]
    pivots = {}
    for row in rows:
        for col in pivots:
            if row[col]:
                factor = row[col] / pivots[col][col]
                row[:] = [a - factor * b for a, b in zip(row, pivots[col])]
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is not None:
            pivots[lead] = row
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
    g = 0
    for x in ints:
        g = gcd(g, x)
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
        level = dot(normal, base)
        values = [dot(normal, p) for p in points]
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
        if dot(normal, points[apex]) == level:
            continue
        base = points[facet[0]]
        fbasis = _hermite_basis([_sub(points[i], base) for i in facet])
        fpivots = _pivot_columns(fbasis)
        reduced = [
            _lattice_coordinates(fbasis, fpivots, _sub(points[i], base))
            for i in facet
        ]
        for simplex in _triangulate_hull(reduced):
            simplices.append((apex,) + tuple(facet[i] for i in simplex))
    return simplices


def oracle_normalized_volume(points) -> int:
    """Normalized volume of the hull of ``points`` in the lattice they span."""
    pts = LatticePolytope(points).points
    origin = pts[0]
    edges = [_sub(p, origin) for p in pts[1:]]
    basis = _hermite_basis(edges)
    if not basis:
        return 1
    pivots = _pivot_columns(basis)
    reduced = [
        _lattice_coordinates(basis, pivots, _sub(p, origin)) for p in pts
    ]
    total = 0
    for simplex in _triangulate_hull(reduced):
        first = reduced[simplex[0]]
        total += abs(_det([_sub(reduced[i], first) for i in simplex[1:]]))
    return total
