"""Unit tests for polynomial arithmetic, term orders and initial parts."""

from fractions import Fraction

import pytest

from basisdetect import (
    ExponentMatrix,
    LatticePolytope,
    Polynomial,
    PolynomialRing,
    TermOrder,
    homogenize_with_t,
    initial_form,
    is_groebner_basis,
    ring,
    s_polynomial,
    solve_monomial_membership,
)

from basisdetect.polyring import check_generators, dot

from lp_oracle import normalize_weight


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
    assert set(product.terms) == {(3, 3), (1, 5)}


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
    assert TermOrder((2, 1)).leading_term(f) == ((2, 0), Fraction(1))


def test_initial_term_lex_tiebreak(xy):
    R, x, y = xy
    f = x**2 + y**2
    assert TermOrder((1, 1)).leading_term(f)[0] == (2, 0)


def test_initial_term_constant_never_leads(xy):
    R, x, y = xy
    f = R.constant(2) * x * y - R.constant(1)
    for weight in [(1, 1), (1, 0), (0, 1), (5, 3)]:
        assert TermOrder(weight).leading_term(f) == ((1, 1), Fraction(2))


def test_initial_term_of_zero_rejected(xy):
    R, x, y = xy
    with pytest.raises(ValueError):
        TermOrder((1, 1)).leading_term(R.zero())


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
    assert set((x * y).terms) == {(1, 1)}
    assert set((x**2 + y**2).terms) == {(2, 0), (0, 2)}
    assert set(R.zero().terms) == set()


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


def test_dot_and_key_are_exact_on_big_and_negative_integers():
    big = 2**80 + 1
    assert dot((big, -3, 0), (5, -(2**65), 7)) == 5 * big + 3 * 2**65
    assert dot((-big, 2), (big, -1)) == -(big**2) - 2
    assert dot((), ()) == 0
    order = TermOrder((big, 1))
    assert order.key((3, 2**70)) == (3 * big + 2**70, (3, 2**70))
    # equal weights: the exponents decide, x before y
    assert order.key((0, big)) < order.key((1, 0))


def test_generators_of_equal_rings_are_accepted():
    # two ring objects with the same variables are the same ring
    x = ring("x", "y").variable("x")
    y = ring("x", "y").variable("y")
    assert x.ring is not y.ring
    check_generators([x, y])
    assert is_groebner_basis([x, y], TermOrder((1, 1)))
    with pytest.raises(ValueError, match="different rings"):
        check_generators([x, ring("x", "z").variable("z")])
    with pytest.raises(ValueError, match="different rings"):
        check_generators([x, ring("y", "x").variable("y")])


def test_term_order_rejects_bad_weights():
    with pytest.raises(ValueError):
        TermOrder((0, 0))
    with pytest.raises(ValueError):
        TermOrder((-1, 2))


def test_term_order_weight_must_fit_the_ring(xy):
    R, x, y = xy
    f = x + y**5
    with pytest.raises(ValueError, match="weight length"):
        TermOrder((1,)).leading_term(f)
    with pytest.raises(ValueError, match="weight length"):
        TermOrder((0, 1, 5)).leading_term(f)
    assert TermOrder((1, 1)).leading_term(f) == ((0, 5), Fraction(1))


def test_initial_form_weight_must_fit_the_ring(xy):
    # a short weight was zipped away: (1,) gave x and (0, 1, 5) gave y^5
    R, x, y = xy
    f = x + y**5
    with pytest.raises(ValueError, match="weight length"):
        initial_form(f, (1,))
    with pytest.raises(ValueError, match="weight length"):
        initial_form(f, (0, 1, 5))
    assert initial_form(f, (5, 1)) == x + y**5


class _Two:
    """An integer type other than int, as NumPy's are: it defines only
    ``__index__``."""

    def __index__(self):
        return 2


def _x_squared_plus_y_cubed(weight):
    R = ring("x", "y")
    return initial_form(R.variable("x") ** 2 + R.variable("y") ** 3, weight)


# every input that takes a vector of integers, with one entry given
_INTEGER_VECTORS = {
    "TermOrder": lambda e: TermOrder((e, 1)),
    "initial_form": lambda e: _x_squared_plus_y_cubed((e, 0)),
    "Polynomial": lambda e: Polynomial(ring("x", "y"), {(e, 0): 1}),
    "ExponentMatrix": lambda e: ExponentMatrix([(e, 2)]),
    "LatticePolytope": lambda e: LatticePolytope([(0, 0), (e, 0), (0, e)]),
    "solve_monomial_membership": lambda e: solve_monomial_membership(
        ExponentMatrix([(1, 0), (0, 1)]), (e, 2)
    ),
}


@pytest.mark.parametrize(
    "entry", [1.5, Fraction(3, 2), "2"], ids=["float", "Fraction", "str"]
)
@pytest.mark.parametrize(
    "build", _INTEGER_VECTORS.values(), ids=_INTEGER_VECTORS.keys()
)
def test_integer_vectors_refuse_other_entries(build, entry):
    # a float or Fraction entry was truncated, and a string parsed
    with pytest.raises(ValueError):
        build(entry)


@pytest.mark.parametrize(
    "build", _INTEGER_VECTORS.values(), ids=_INTEGER_VECTORS.keys()
)
def test_integer_vectors_take_any_index_type(build):
    assert build(_Two()) == build(2)


def test_duplicate_variables_rejected():
    with pytest.raises(ValueError):
        PolynomialRing(("x", "x"))


def test_repr_is_deterministic(xy):
    R, x, y = xy
    f = (x * y).scale(Fraction(-1, 2)) - x**2 + R.constant(3)
    assert repr(f) == "-x^2 - 1/2*x*y + 3"
