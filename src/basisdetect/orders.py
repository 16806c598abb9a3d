"""Enumeration of term-order equivalence classes for a polynomial set.

Two nonnegative weight vectors are equivalent for a set F when they select
the same leading exponent in every member of F.  Each class corresponds to
a choice of one support exponent per polynomial (a leading tuple) whose
open selection cone meets the nonnegative orthant; we enumerate candidate
tuples and certify each with an exact LP that either produces an interior
integer weight or proves the cone empty.

Also provides lattice-polytope dimension and normalized volume, used for
ranking term orders by the geometry of their leading exponents.  The volume
is measured in the lattice the points span, as the sum of |det| over a
placing (beneath-beyond) triangulation, in exact integer arithmetic.
"""

from __future__ import annotations

import itertools
from math import lcm

from . import lp
from .polyring import (
    Exponent,
    Polynomial,
    TermOrder,
    _FrozenRecord,
    check_generators,
    normalize_weight,
)

LeadingTuple = tuple[Exponent, ...]


class OrderClass(_FrozenRecord):
    """One equivalence class: chosen leading exponents plus a certificate.

    The weight strictly selects ``leads[i]`` over every other support
    exponent of the i-th polynomial, so the class semantics do not depend
    on the lex refinement.
    """

    __slots__ = ("leads", "weight")

    def __init__(self, leads: LeadingTuple, weight: tuple[int, ...]):
        self._set(leads, weight)

    def order(self) -> TermOrder:
        return TermOrder(self.weight)


def cone_feasibility(polys: list[Polynomial], leads) -> tuple[int, ...] | None:
    """Integer weight strictly selecting the given leading tuple, or None.

    Solves max epsilon s.t. <w, lead_i - u> >= epsilon for every competing
    support exponent u, 0 <= w_j <= 1, in exact rational arithmetic; the
    system is homogeneous in w so the unit box loses no generality.  A
    positive optimum yields an interior point, which is cleared to a
    primitive integer vector.
    """
    check_generators(polys)
    leads = tuple(tuple(e) for e in leads)
    if len(leads) != len(polys):
        raise ValueError("leading tuple length differs from polynomial count")
    n = polys[0].ring.nvars
    rows = []
    for f, lead in zip(polys, leads):
        if lead not in f.terms:
            raise ValueError("%r is not in the support of %r" % (lead, f))
        for u in f.terms:
            if u != lead:
                # <w, u - lead> + eps <= 0
                rows.append([u[j] - lead[j] for j in range(n)] + [1])
    if not rows:
        return (1,) * n
    rhs = [0] * len(rows)
    for j in range(n):
        box = [0] * (n + 1)
        box[j] = 1
        rows.append(box)
        rhs.append(1)
    objective = [0] * n + [1]
    value, point = lp.maximize(objective, rows, rhs)
    if value <= 0:
        return None
    denom = lcm(*(x.denominator for x in point[:n]))
    return normalize_weight(int(x * denom) for x in point[:n])


def leading_tuple(polys: list[Polynomial], order: TermOrder) -> LeadingTuple:
    """Leading exponents of each polynomial under a refined total order."""
    return tuple(order.leading_exponent(f) for f in polys)


def extract_weight_vectors(polys: list[Polynomial]) -> list[OrderClass]:
    """All term-order equivalence classes of F, each with a certified weight.

    Per-polynomial choices that are never weight-maximal are pruned with a
    single-polynomial feasibility test before the Cartesian product is
    scanned.  Output is sorted by leading tuple and duplicate-free.
    """
    check_generators(polys)
    candidates = []
    for f in polys:
        exps = sorted(f.terms)
        if len(exps) == 1:
            candidates.append(exps)
            continue
        candidates.append(
            [u for u in exps if cone_feasibility([f], (u,)) is not None]
        )
    classes = []
    for combo in itertools.product(*candidates):
        weight = cone_feasibility(polys, combo)
        if weight is not None:
            classes.append(OrderClass(tuple(combo), weight))
    classes.sort(key=lambda c: c.leads)
    return classes


# ---------------------------------------------------------------------------
# lattice polytopes: dimension and normalized volume


class LatticePolytope(_FrozenRecord):
    """Convex hull of a finite nonempty set of lattice points."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = tuple(sorted({tuple(int(x) for x in p) for p in points}))
        if not pts:
            raise ValueError("empty point set")
        if len({len(p) for p in pts}) != 1:
            raise ValueError("points of mixed dimension")
        self._set(pts)


def _sub(p: Exponent, q: Exponent) -> tuple[int, ...]:
    return tuple(a - b for a, b in zip(p, q))


def _hermite_basis(rows: list) -> list[list[int]]:
    """Echelon basis (positive pivots) of the lattice generated by the rows."""
    mat = [list(r) for r in rows]
    m = len(mat)
    if m == 0:
        return []
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        if r >= m:
            break
        piv = None
        for i in range(r, m):
            if mat[i][c] == 0:
                continue
            if piv is None:
                piv = i
                continue
            while mat[i][c] != 0:
                q = mat[piv][c] // mat[i][c]
                mat[piv] = [a - q * b for a, b in zip(mat[piv], mat[i])]
                mat[piv], mat[i] = mat[i], mat[piv]
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-a for a in mat[r]]
        r += 1
    return mat[:r]


def _pivot_columns(basis: list[list[int]]) -> list[int]:
    return [next(j for j, a in enumerate(row) if a != 0) for row in basis]


def _lattice_coordinates(basis, pivots, vector) -> tuple[int, ...]:
    """Express a lattice member in the echelon basis (exact integer coords)."""
    v = list(vector)
    coords = []
    for row, p in zip(basis, pivots):
        q, rem = divmod(v[p], row[p])
        if rem:
            raise ValueError("vector outside the lattice")
        v = [a - q * b for a, b in zip(v, row)]
        coords.append(q)
    if any(v):
        raise ValueError("vector outside the lattice")
    return tuple(coords)


def _det(rows: list) -> int:
    """Integer determinant by fraction-free Bareiss elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def _oriented_facet(points: list, facet: tuple[int, ...], apex: int):
    """Edge rows of a facet from facet[0], and the determinant that its
    simplex with ``apex`` gives them."""
    base = points[facet[0]]
    rows = [_sub(points[i], base) for i in facet[1:]]
    return rows, _det(rows + [_sub(points[apex], base)])


def _placing_volume(points: list[tuple[int, ...]]) -> int:
    """Sum of |det| over a placing triangulation of a full-dimensional hull.

    A start simplex is chosen greedily by rank.  Every boundary facet (a
    sorted index tuple) is stored with its edge rows and the determinant
    its own simplex gives them; a later point is beyond the facet when its determinant has the
    opposite nonzero sign, and the simplex it spans with the facet adds
    |det|.  The horizon ridges, those in exactly one visible facet, are
    joined to the point as new facets.  Every placing order triangulates
    the hull, so the sum does not depend on the order of the points.
    """
    start = [0]
    edges: list = []
    for i in range(1, len(points)):
        edge = _sub(points[i], points[0])
        if len(_hermite_basis(edges + [edge])) > len(edges):
            start.append(i)
            edges.append(edge)
    total = abs(_det(edges))
    facets = {}
    for apex in start:
        facet = tuple(i for i in start if i != apex)
        facets[facet] = _oriented_facet(points, facet, apex)
    placed = set(start)
    for p in range(len(points)):
        if p in placed:
            continue
        visible = []
        for facet, (rows, side) in facets.items():
            det = _det(rows + [_sub(points[p], points[facet[0]])])
            if det * side < 0:
                visible.append(facet)
                total += abs(det)
        # the vertex opposite each ridge, or None once a second visible
        # facet shares it (then the ridge is interior to the visible region)
        horizon: dict = {}
        for facet in visible:
            del facets[facet]
            for k, opposite in enumerate(facet):
                ridge = facet[:k] + facet[k + 1:]
                horizon[ridge] = None if ridge in horizon else opposite
        for ridge, opposite in horizon.items():
            if opposite is not None:
                facet = tuple(sorted(ridge + (p,)))
                facets[facet] = _oriented_facet(points, facet, opposite)
    return total


def polytope_dim(polytope: LatticePolytope) -> int:
    """Dimension of the affine hull of the lattice points."""
    pts = polytope.points
    edges = [_sub(p, pts[0]) for p in pts[1:]]
    return len(_hermite_basis(edges))


def normalized_volume(polytope: LatticePolytope) -> int:
    """d! times the Euclidean volume, measured in the spanned lattice.

    The points are translated so one of them is the origin and rewritten
    in a basis of the lattice they generate; the volume of the resulting
    full-dimensional hull is the sum of |det| over a placing triangulation.
    A single point yields 1 by the empty-product convention.
    """
    pts = polytope.points
    origin = pts[0]
    edges = [_sub(p, origin) for p in pts[1:]]
    basis = _hermite_basis(edges)
    if not basis:
        return 1
    pivots = _pivot_columns(basis)
    return _placing_volume(
        [_lattice_coordinates(basis, pivots, _sub(p, origin)) for p in pts]
    )
