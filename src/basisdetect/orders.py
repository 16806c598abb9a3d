"""Enumeration of term-order equivalence classes for a polynomial set.

Two nonnegative weight vectors are equivalent for a set F when they select
the same leading exponent in every member of F.  Each class corresponds to
a choice of one support exponent per polynomial (a leading tuple) whose
open selection cone meets the nonnegative orthant; we enumerate candidate
tuples and certify each with an exact LP that either produces an interior
integer weight or proves the cone empty.

Also provides lattice-polytope dimension and normalized volume, used for
ranking term orders by the geometry of their leading exponents.  The volume
is measured in the lattice the points span: the points are projected onto
the pivot columns of an echelon basis of that lattice, and the sum of |det|
over a placing (beneath-beyond) triangulation of the projection is divided
by the lattice index, all in exact integer arithmetic.
"""

from __future__ import annotations

from math import prod

from . import lp
from .polyring import (
    Exponent,
    Polynomial,
    TermOrder,
    _FrozenRecord,
    _integers,
    _sub,
    check_generators,
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


def _cone_rows(f: Polynomial, lead: Exponent) -> list[list[int]]:
    """The rows ``u - lead, 1, 0`` of ``lp.cone_weight``, u in ``f.terms``."""
    return [[a - b for a, b in zip(u, lead)] + [1, 0] for u in f.terms if u != lead]


def _cone(rows: list, n: int):
    """``lp.cone_weight(rows, n)``; without rows every weight qualifies,
    and ``lp`` is not loaded for it."""
    return lp.cone_weight(rows, n) if rows else ((1,) * n, None)


def cone_feasibility(polys: list[Polynomial], leads) -> tuple[int, ...] | None:
    """Integer weight strictly selecting the given leading tuple, or None.

    Solves max epsilon s.t. <w, lead_i - u> >= epsilon for every competing
    support exponent u, 0 <= w_j <= 1, with ``lp.cone_weight``.
    """
    check_generators(polys)
    leads = tuple(tuple(e) for e in leads)
    if len(leads) != len(polys):
        raise ValueError("leading tuple length differs from polynomial count")
    rows = []
    for f, lead in zip(polys, leads):
        if lead not in f.terms:
            raise ValueError("%r is not in the support of %r" % (lead, f))
        rows += _cone_rows(f, lead)
    return _cone(rows, polys[0].ring.nvars)[0]


def leading_tuple(polys: list[Polynomial], order: TermOrder) -> LeadingTuple:
    """Leading exponents of each polynomial under a refined total order."""
    return tuple(order.leading_exponent(f) for f in polys)


def _contradictions(polys: list[Polynomial], candidates) -> list:
    """Every pair ((i, a), (k, b)), i < k, of candidate leads a of f_i and
    b != a of f_k with b in the support of f_i and a in that of f_k: no
    weight has w.a > w.b > w.a."""
    return [
        ((i, a), (k, b))
        for k, f in enumerate(polys) for i in range(k)
        for a in candidates[i] if a in f.terms
        for b in candidates[k] if b != a and b in polys[i].terms
    ]


def extract_weight_vectors(polys: list[Polynomial]) -> list[OrderClass]:
    """All term-order equivalence classes of F, each with a certified weight.

    Per-polynomial choices that are never weight-maximal are pruned with a
    single-polynomial feasibility test, then the product of the candidates
    is walked depth first.  A tuple's program joins the rows of its leads,
    built once per candidate, in the order ``cone_feasibility`` uses.  No
    program is solved for a tuple that contains a core, leads that no
    weight gives together: two leads that rank two shared monomials both
    ways, or the leads whose rows carry the certificate of an empty cone.
    Output is sorted by leading tuple and duplicate-free.
    """
    check_generators(polys)
    n = polys[0].ring.nvars
    blocks = []
    for f in polys:
        rows = ((u, _cone_rows(f, u)) for u in sorted(f.terms))
        blocks.append({u: r for u, r in rows if _cone(r, n)[0]})
    cores = [[] for _ in polys]  # by their last generator
    for core in _contradictions(polys, blocks):
        cores[core[-1][0]].append(core)
    classes = []
    stack = [()]  # prefixes, popped in product order, so classes come sorted
    while stack:
        combo = stack.pop()
        k = len(combo)
        if k and any(all(combo[i] == u for i, u in c) for c in cores[k - 1]):
            continue
        if k < len(polys):
            stack += [combo + (u,) for u in reversed(blocks[k])]
            continue
        weight, core = _cone([r for b, u in zip(blocks, combo) for r in b[u]], n)
        if weight is not None:
            classes.append(OrderClass(combo, weight))
            continue
        owner = [i for i, u in enumerate(combo) for _ in blocks[i][u]]
        owners = sorted({owner[r] for r in core})
        cores[owners[-1]].append(tuple((i, combo[i]) for i in owners))
        # the prefixes stacked past the core's last generator all contain it
        while stack and len(stack[-1]) > owners[-1] + 1:
            stack.pop()
    return classes


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
