"""Unit tests for polynomial arithmetic, term orders and initial parts."""

from fractions import Fraction

import pytest

from basisdetect import (
    Polynomial,
    PolynomialRing,
    TermOrder,
    homogenize_with_t,
    initial_form,
    initial_term,
    normalize_weight,
    ring,
    s_polynomial,
    support,
)


@pytest.fixture
def xy():
    R = ring("x", "y")
    return R, R.variable("x"), R.variable("y")


def test_add_cancellation(xy):
    R, x, y = xy
    assert (x + y) + (x - y) == R.constant(2) * x


def test_add_identity(xy):
    R, x, y = xy
    f = x**2 + R.constant(3) * y
    assert f + R.zero() == f


def test_add_disjoint_supports(xy):
    R, x, y = xy
    assert (x**2 + y**2) + x * y == x**2 + x * y + y**2


def test_mul_difference_of_squares(xy):
    R, x, y = xy
    assert (x + y) * (x - y) == x**2 - y**2


def test_mul_identity(xy):
    R, x, y = xy
    f = x * y - y**2
    assert f * R.constant(1) == f


def test_mul_segment_support(xy):
    # (x^2+y^2) * xy * y^2 has support on the segment (3,3)..(1,5)
    R, x, y = xy
    product = (x**2 + y**2) * (x * y) * y**2
    assert support(product) == {(3, 3), (1, 5)}


def test_ring_mismatch_rejected(xy):
    R, x, y = xy
    other = ring("x", "y", "z")
    with pytest.raises(ValueError, match="different rings"):
        x + other.variable("x")
    with pytest.raises(ValueError, match="different rings"):
        x - other.variable("x")
    with pytest.raises(ValueError, match="different rings"):
        x * other.variable("z")
    with pytest.raises(ValueError, match="different rings"):
        s_polynomial(x * y, other.variable("x"), TermOrder((1, 1)))


def test_initial_term_weighted(xy):
    R, x, y = xy
    f = x**2 + y**2
    assert initial_term(f, TermOrder((2, 1))) == ((2, 0), Fraction(1))


def test_initial_term_lex_tiebreak(xy):
    R, x, y = xy
    f = x**2 + y**2
    assert initial_term(f, TermOrder((1, 1)))[0] == (2, 0)


def test_initial_term_constant_never_leads(xy):
    R, x, y = xy
    f = R.constant(2) * x * y - R.constant(1)
    for weight in [(1, 1), (1, 0), (0, 1), (5, 3)]:
        assert initial_term(f, TermOrder(weight)) == ((1, 1), Fraction(2))


def test_initial_term_of_zero_rejected(xy):
    R, x, y = xy
    with pytest.raises(ValueError):
        initial_term(R.zero(), TermOrder((1, 1)))


def test_initial_form_symmetric_tie(xy):
    R, x, y = xy
    f = x**2 + y**2
    assert initial_form(f, (1, 1)) == f
    assert initial_form(f, (2, 1)) == x**2


def test_initial_form_weighted_three_vars():
    R = ring("x", "y", "z")
    x, y, z = (R.variable(v) for v in "xyz")
    f = x**5 + y**3 + z**2 - R.constant(1)
    # dot products: 60, 45, 54, 0
    assert initial_form(f, (12, 15, 27)) == x**5


def test_support(xy):
    R, x, y = xy
    assert support(x * y) == {(1, 1)}
    assert support(x**2 + y**2) == {(2, 0), (0, 2)}
    assert support(R.zero()) == frozenset()


def test_homogenize_with_t(xy):
    R, x, y = xy
    out = homogenize_with_t([R.constant(1), x])
    assert out[0].ring.variables == ("t", "x", "y")
    assert out[0].terms == {(1, 0, 0): 1}
    assert out[1].terms == {(1, 1, 0): 1}
    # every output monomial has t-degree exactly 1
    for f in homogenize_with_t([x**2 + y**2 - R.constant(1), x * y]):
        assert all(e[0] == 1 for e in f.terms)


def test_homogenize_name_collision():
    R = ring("t", "u")
    with pytest.raises(ValueError):
        homogenize_with_t([R.variable("u")])


def test_zero_coefficients_dropped(xy):
    R, x, y = xy
    f = Polynomial(R, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert f.terms == {(0, 1): Fraction(2)}


def test_negative_exponent_rejected(xy):
    R, x, y = xy
    with pytest.raises(ValueError):
        Polynomial(R, {(-1, 0): Fraction(1)})


def test_normalize_weight():
    assert normalize_weight((12, 15, 27)) == (4, 5, 9)
    assert normalize_weight((0, 3)) == (0, 1)
    with pytest.raises(ValueError):
        normalize_weight((0, 0))
    with pytest.raises(ValueError):
        normalize_weight((1, -1))


def test_term_order_rejects_bad_weights():
    with pytest.raises(ValueError):
        TermOrder((0, 0))
    with pytest.raises(ValueError):
        TermOrder((-1, 2))


def test_term_order_weight_must_fit_the_ring(xy):
    R, x, y = xy
    f = x + y**5
    with pytest.raises(ValueError, match="weight length"):
        initial_term(f, TermOrder((1,)))
    with pytest.raises(ValueError, match="weight length"):
        initial_term(f, TermOrder((0, 1, 5)))
    assert initial_term(f, TermOrder((1, 1))) == ((0, 5), Fraction(1))


def test_duplicate_variables_rejected():
    with pytest.raises(ValueError):
        PolynomialRing(("x", "x"))


def test_repr_is_deterministic(xy):
    R, x, y = xy
    f = (x * y).scale(Fraction(-1, 2)) - x**2 + R.constant(3)
    assert repr(f) == "-x^2 - 1/2*x*y + 3"
