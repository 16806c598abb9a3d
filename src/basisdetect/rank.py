"""Ranking of term-order classes: lattice-polytope geometry and the two
closeness criteria.

'nicer' scores a class by the dimension and normalized volume of the
convex hull of its leading exponents.  The volume is measured in the
lattice the points span: the points are projected onto the pivot columns
of an echelon basis of that lattice, and the sum of |det| over a placing
(beneath-beyond) triangulation of the projection is divided by the
lattice index, all in exact integer arithmetic.  'preferable' scores a
class by the Hilbert vector of its leading-monomial algebra, from
:mod:`basisdetect.hilbert`, which only that criterion loads.
"""

from __future__ import annotations

from math import prod

from .orders import OrderClass, extract_weight_vectors
from .polyring import Polynomial, _FrozenRecord, _integers, _sub

# ---------------------------------------------------------------------------
# lattice polytopes: dimension and normalized volume


class LatticePolytope(_FrozenRecord):
    """Convex hull of a finite nonempty set of lattice points."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = tuple(sorted(set(map(_integers, points))))
        if not pts:
            raise ValueError("empty point set")
        if len({len(p) for p in pts}) != 1:
            raise ValueError("points of mixed dimension")
        self._set(pts)


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
        p = a[k][k]
        for i in range(k + 1, n):
            if not (f := a[i][k]):
                if p != prev:
                    a[i] = [p * x // prev for x in a[i]]
            elif prev == 1:
                a[i] = [p * x - f * y for x, y in zip(a[i], a[k])]
            else:
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[k])]
        prev = p
    return sign * a[-1][-1]


def _oriented_facet(points: list, facet: tuple[int, ...], apex: int):
    """Edge rows of a facet from facet[0], and the determinant that its
    simplex with ``apex`` gives them."""
    base = points[facet[0]]
    rows = [_sub(points[i], base) for i in facet[1:]]
    return rows, _det(rows + [_sub(points[apex], base)])


def _placing_volume(points: list[tuple[int, ...]]) -> int:
    """Sum of |det| over a placing triangulation of a full-dimensional hull.

    A start simplex is chosen greedily by rank, in one echelon.  Every
    boundary facet (a sorted index tuple) is stored with its edge rows and
    the determinant its own simplex gives them; a later point is beyond
    the facet when its determinant has the opposite nonzero sign, and the
    simplex it spans with the facet adds |det|.  The horizon ridges, those
    in exactly one visible facet, are joined to the point as new facets.
    Every placing order triangulates the hull, so the sum does not depend
    on the order of the points.
    """
    start, edges, echelon = [0], [], []  # (pivot column, reduced edge)
    for i in range(1, len(points)):
        v = edge = _sub(points[i], points[0])
        for c, row in echelon:
            if f := v[c]:
                v = [row[c] * x - f * y for x, y in zip(v, row)]
        if any(v):
            echelon.append((next(j for j, x in enumerate(v) if x), v))
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

    The points are projected onto the pivot columns of an echelon basis of
    the lattice their edges generate.  On those columns the basis is an
    upper-triangular matrix with a positive diagonal, so the projection is
    injective on the affine hull, keeps every orientation and multiplies
    every determinant by the lattice index, the product of the pivots.  The
    sum of |det| over a placing triangulation of the projected points,
    divided by that index, is the volume.  A single point yields 1 by the
    empty-product convention.
    """
    pts = polytope.points
    basis = _hermite_basis([_sub(p, pts[0]) for p in pts[1:]])
    if not basis:
        return 1
    pivots = [next(j for j, a in enumerate(row) if a) for row in basis]
    total = _placing_volume([tuple(p[c] for c in pivots) for p in pts])
    volume, rest = divmod(total, prod(row[c] for row, c in zip(basis, pivots)))
    if rest:
        raise AssertionError("placing sum not divisible by the lattice index")
    return volume


# ---------------------------------------------------------------------------
# rankings


class RankGroup(list):
    """Classes tied under a ranking criterion, with their shared score.

    ``score`` is the (dimension, normalized volume) pair for 'nicer' and
    the Hilbert vector for 'preferable'.
    """

    def __init__(self, score, classes=()):
        super().__init__(classes)
        self.score = score


def rank_orders(
    polys: list[Polynomial],
    criterion: str = "nicer",
    bound: int | None = None,
) -> list[RankGroup]:
    """Rank all term-order classes, best first, as groups of ties.

    'nicer' compares (dimension, normalized volume) of the convex hull of
    the leading exponents; 'preferable' compares the Hilbert vectors of
    the leading-monomial algebras lexicographically (homogeneous input
    only).  Both scores depend only on the leading tuple of a class.
    """
    if criterion not in ("nicer", "preferable"):
        raise ValueError("criterion must be 'nicer' or 'preferable'")
    if criterion == "nicer":
        def score(cls: OrderClass):
            polytope = LatticePolytope(cls.leads)
            return (polytope_dim(polytope), normalized_volume(polytope))
    else:
        from .hilbert import _resolve_hilbert_bound, hilbert_vector

        limit = _resolve_hilbert_bound(polys, bound)

        def score(cls: OrderClass):
            return hilbert_vector(polys, cls, limit)

    scored = [(score(cls), cls) for cls in extract_weight_vectors(polys)]
    scored.sort(key=lambda item: item[0], reverse=True)
    groups: list[RankGroup] = []
    for value, cls in scored:
        if not groups or value != groups[-1].score:
            groups.append(RankGroup(value))
        groups[-1].append(cls)
    return groups
