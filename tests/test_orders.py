"""Tests for class enumeration, LP certificates, and polytope utilities."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from basisdetect import (
    LatticePolytope,
    TermOrder,
    cone_feasibility,
    extract_weight_vectors,
    leading_tuple,
    normalized_volume,
    polytope_dim,
    ring,
)
from basisdetect.lp import maximize
from basisdetect.orders import _det, _placing_volume
from basisdetect.polyring import dot

import systems
from volume_oracle import oracle_normalized_volume


def test_lp_maximize_simple_box():
    # max x + y s.t. x <= 1, y <= 2, x + y <= 5/2
    value, point = maximize(
        [1, 1], [[1, 0], [0, 1], [1, 1]], [1, 2, Fraction(5, 2)]
    )
    assert value == Fraction(5, 2)
    assert point[0] + point[1] == Fraction(5, 2)


def test_lp_degenerate_origin_optimum():
    # max x s.t. x <= 0 stays at the origin
    value, point = maximize([1], [[1]], [0])
    assert value == 0 and point == [0]


def test_cone_feasibility_green_cone():
    F = systems.two_cone_example()
    leads = ((2, 0), (1, 1), (0, 2))
    weight = cone_feasibility(F, leads)
    assert weight is not None
    assert weight[0] > weight[1] >= 0
    # strict selection certificate
    for f, lead in zip(F, leads):
        for u in f.terms:
            if u != lead:
                assert dot(weight, lead) > dot(weight, u)


def test_cone_feasibility_red_cone():
    F = systems.two_cone_example()
    weight = cone_feasibility(F, ((0, 2), (1, 1), (0, 2)))
    assert weight is not None
    assert weight[1] > weight[0] >= 0


def test_cone_feasibility_single_polynomial():
    R = ring("x", "y")
    F = [R.variable("x") + R.variable("y")]
    weight = cone_feasibility(F, ((1, 0),))
    assert weight is not None and weight[0] > weight[1]


def test_cone_feasibility_infeasible_tuple():
    R = ring("x", "y")
    # x can never beat x^2 y^0 and y^2 simultaneously... use f = x + x*y:
    # selecting x requires w_y < 0, impossible in the closed orthant
    f = R.variable("x") + R.variable("x") * R.variable("y")
    assert cone_feasibility([f], ((1, 0),)) is None


def test_cone_feasibility_all_monomials():
    R = ring("x", "y", "z")
    F = [R.variable("x") * R.variable("y")]
    assert cone_feasibility(F, ((1, 1, 0),)) == (1, 1, 1)


def test_extract_two_cone_classes():
    F = systems.two_cone_example()
    classes = extract_weight_vectors(F)
    assert len(classes) == 2
    assert [c.leads for c in classes] == sorted(c.leads for c in classes)
    tuples = {c.leads for c in classes}
    assert tuples == {
        ((2, 0), (1, 1), (0, 2)),
        ((0, 2), (1, 1), (0, 2)),
    }


def test_extract_elementary_symmetric_six_classes():
    classes = extract_weight_vectors(systems.elementary_symmetric())
    assert len(classes) == 6


def test_extract_certificates_are_sound():
    for F in [
        systems.two_cone_example(),
        systems.elementary_symmetric(),
        systems.twisted_cubic(),
        systems.gaussian_ci(),
    ]:
        for cls in extract_weight_vectors(F):
            order = TermOrder(cls.weight)
            for f, lead in zip(F, cls.leads):
                assert order.leading_term(f)[0] == lead


def test_extract_distinct_tuples():
    for F in [systems.twisted_cubic(), systems.elementary_symmetric()]:
        classes = extract_weight_vectors(F)
        assert len({c.leads for c in classes}) == len(classes)


def test_extract_rejects_zero_polynomial():
    R = ring("x")
    with pytest.raises(ValueError):
        extract_weight_vectors([R.zero()])
    with pytest.raises(ValueError):
        extract_weight_vectors([])


def test_leading_tuple_matches_enumeration():
    F = systems.twisted_cubic()
    classes = extract_weight_vectors(F)
    for cls in classes:
        assert leading_tuple(F, TermOrder(cls.weight)) == cls.leads


# ---------------------------------------------------------------------------
# lattice polytopes


def test_polytope_dim_triangle():
    assert polytope_dim(LatticePolytope([(0, 0), (1, 0), (0, 1)])) == 2


def test_polytope_dim_point():
    assert polytope_dim(LatticePolytope([(5, 7)])) == 0


def test_polytope_dim_twisted_cubic_monomials():
    P = LatticePolytope([(3, 0), (2, 1), (1, 2), (0, 3)])
    assert polytope_dim(P) == 1


def _dilated_simplex(d, k):
    """Every lattice point of k times the standard simplex."""
    return [p for p in itertools.product(range(k + 1), repeat=d) if sum(p) <= k]


def _cube(d):
    return list(itertools.product((0, 1), repeat=d))


def _cross_polytope(d):
    points = [(0,) * d]
    for i in range(d):
        for s in (1, -1):
            points.append(tuple(s if j == i else 0 for j in range(d)))
    return points


def test_normalized_volume_unit_simplices():
    # k = 1 is the unit simplex; its k-dilation has normalized volume k^d
    for d in range(1, 6):
        for k in (1, 2, 3):
            P = LatticePolytope(_dilated_simplex(d, k))
            assert normalized_volume(P) == k**d


def test_normalized_volume_unit_square():
    P = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert normalized_volume(P) == 2
    # the unit cube in every dimension up to 5: d! unimodular simplices
    for d in range(1, 6):
        assert normalized_volume(LatticePolytope(_cube(d))) == math.factorial(d)


def test_normalized_volume_intrinsic_segment():
    # both coordinates change by multiples of (-3, 3); its own lattice makes
    # the segment primitive of length 1
    assert normalized_volume(LatticePolytope([(3, 0), (0, 3)])) == 1


def test_normalized_volume_quadric_segment():
    # leading exponents of the two-cone example, green side: degree 2 curve
    assert normalized_volume(LatticePolytope([(2, 0), (1, 1), (0, 2)])) == 2


def test_normalized_volume_single_point():
    assert normalized_volume(LatticePolytope([(4, 2, 1)])) == 1


def test_normalized_volume_simplex_unimodular_in_own_lattice():
    # the d edge vectors of a simplex freely generate its intrinsic lattice,
    # so every lattice simplex has normalized volume 1 there (the Reeve
    # simplex included, despite ambient volume r)
    reeve = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 5)]
    assert normalized_volume(LatticePolytope(reeve)) == 1
    skew = [(0, 0, 0), (2, 1, 0), (1, 3, 0), (0, 1, 4)]
    assert normalized_volume(LatticePolytope(skew)) == 1


def test_normalized_volume_interior_points_ignored():
    # differences generate all of Z^2, hull is a quadrilateral of area 2
    quad = [(0, 0), (1, 0), (0, 1), (2, 2)]
    assert normalized_volume(LatticePolytope(quad)) == 4
    assert normalized_volume(LatticePolytope(quad + [(1, 1)])) == 4
    # the cross-polytope around the origin: 2^d orthant simplices
    for d in range(1, 6):
        assert normalized_volume(LatticePolytope(_cross_polytope(d))) == 2**d


def test_polytope_dim_bounded_by_rank():
    pts = [(0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 1, 0)]
    assert polytope_dim(LatticePolytope(pts)) == 2


def _random_point_sets(rng, count):
    """Small lattice point sets with many coplanar points, some of them
    mapped into a higher-dimensional space by an integer matrix."""
    for _ in range(count):
        d = rng.randint(1, 5)
        points = [
            tuple(rng.randint(0, 2) for _ in range(d))
            for _ in range(rng.randint(1, d + 5))
        ]
        extra = rng.choice((0, 0, 1, 2))
        if extra:
            matrix = [
                [rng.randint(-2, 2) for _ in range(d + extra)] for _ in range(d)
            ]
            points = [
                tuple(dot(p, column) for column in zip(*matrix)) for p in points
            ]
        yield points


def test_normalized_volume_matches_facet_scan_oracle():
    rng = random.Random(20240)
    cases = list(_random_point_sets(rng, 150))
    for F in (systems.grassmannian_2_4(), systems.principal_minors_homogenized()):
        cases += [cls.leads for cls in extract_weight_vectors(F)]
    for points in cases:
        assert normalized_volume(LatticePolytope(points)) == (
            oracle_normalized_volume(points)
        ), points


def test_placing_volume_independent_of_point_order():
    # each order places the points differently, so gives another
    # triangulation of the same hull
    rng = random.Random(77)
    cases = [_cube(4), _cross_polytope(4), _dilated_simplex(3, 2)]
    while len(cases) < 40:
        d = rng.randint(2, 5)
        points = sorted({
            tuple(rng.randint(0, 3) for _ in range(d))
            for _ in range(rng.randint(d + 1, d + 6))
        })
        if polytope_dim(LatticePolytope(points)) == d:
            cases.append(points)
    for points in cases:
        expected = _placing_volume(points)
        for _ in range(3):
            rng.shuffle(points)
            assert _placing_volume(points) == expected, points


def _fraction_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over ``Fraction``, swapping in
    the first row with a nonzero entry when a pivot is zero."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        swap = next((i for i in range(k, n) if a[i][k]), None)
        if swap is None:
            return Fraction(0)
        if swap != k:
            a[k], a[swap] = a[swap], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return det


def test_det_matches_fraction_elimination():
    rng = random.Random(1968)
    swaps = singular = 0
    for _ in range(600):
        n = rng.randint(1, 9)
        rows = [[rng.choice((0, 0, 0, -1, 1, 2, -3, 5)) for _ in range(n)] for _ in range(n)]
        shape = rng.randrange(4)
        if shape == 1 and n > 1:
            # a zero pivot that needs a row swap
            rows[0][0] = 0
            rows[rng.randrange(1, n)][0] = rng.choice((-2, 1, 3))
        elif shape == 2 and n > 1:
            # a repeated or scaled row
            i, j = rng.sample(range(n), 2)
            rows[i] = [rng.choice((-2, 1, 3)) * x for x in rows[j]]
        elif shape == 3:
            # a zero column
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        expected = _fraction_det(rows)
        assert _det(rows) == expected, rows
        swaps += n > 1 and rows[0][0] == 0 and any(row[0] for row in rows)
        singular += expected == 0
    assert swaps >= 100 and singular >= 100
