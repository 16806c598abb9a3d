"""Tests for division, S-polynomials, the criterion and completion."""

from fractions import Fraction

import pytest

from basisdetect import (
    TermOrder,
    buchberger,
    extract_weight_vectors,
    is_groebner_basis,
    is_universal_gb,
    leading_tuple,
    normal_form,
    ring,
    s_polynomial,
    weight_vectors_realizing_gb,
)

from basisdetect.groebner import _primitive

import groebner_oracle
import systems


def _check_division(f, divisors, order):
    result = normal_form(f, divisors, order)
    recombined = result.remainder
    for q, g in zip(result.quotients, divisors):
        recombined = recombined + q * g
    assert recombined == f
    leads = [order.leading_exponent(g) for g in divisors]
    for exp in result.remainder.terms:
        assert not any(all(a <= b for a, b in zip(le, exp)) for le in leads)
    return result


def test_normal_form_exact_quotient():
    R = ring("x", "y")
    x = R.variable("x")
    result = _check_division(x**2, [x], TermOrder((1, 1)))
    assert result.remainder.is_zero()
    assert result.quotients[0] == x


def test_normal_form_rejects_divisors_of_another_ring():
    R = ring("x", "y")
    x, y = R.variable("x"), R.variable("y")
    divisor = ring("x", "y", "z").variable("x")
    with pytest.raises(ValueError, match="different rings"):
        normal_form(x * y, [divisor], TermOrder((1, 1)))


def test_normal_form_nothing_divisible():
    R = ring("x", "y")
    x, y = R.variable("x"), R.variable("y")
    f = x**2 + y**2
    result = _check_division(f, [x * y], TermOrder((2, 1)))
    assert result.remainder == f


def test_normal_form_gaussian_ci_reduction():
    F = systems.gaussian_ci()
    s13, relation = F
    R = s13.ring
    order = TermOrder((2, 3, 2, 3))
    # lead of the relation is s12*s23 by the lex tie-break
    assert order.leading_exponent(relation) == (1, 0, 0, 1)
    result = _check_division(relation, [s13], order)
    expected = R.variable("s12") * R.variable("s23")
    assert result.remainder == expected


def test_s_polynomial_of_monomials_vanishes():
    R = ring("x", "y")
    x, y = R.variable("x"), R.variable("y")
    assert s_polynomial(x**2, x * y, TermOrder((1, 1))).is_zero()


def test_s_polynomial_hand_example():
    R = ring("x", "y")
    x, y = R.variable("x"), R.variable("y")
    f = x**2 + y**2
    g = R.constant(2) * x * y - R.constant(1)
    order = TermOrder((2, 1))
    expected = y**3 + x.scale(Fraction(1, 2))
    assert s_polynomial(f, g, order) == expected


def test_s_polynomial_self_is_zero():
    F = systems.twisted_cubic()
    order = TermOrder((6, 4, 4, 6))
    assert s_polynomial(F[0], F[0], order).is_zero()


def test_is_groebner_twisted_cubic_weight():
    F = systems.twisted_cubic()
    assert is_groebner_basis(F, TermOrder((6, 4, 4, 6)))


def test_is_groebner_false_everywhere_for_circle_pair():
    F = systems.unit_circle_pair()
    for cls in extract_weight_vectors(F):
        assert not is_groebner_basis(F, TermOrder(cls.weight))


def test_single_polynomial_is_groebner():
    R = ring("x", "y")
    f = R.variable("x") ** 2 + R.variable("y")
    assert is_groebner_basis([f], TermOrder((1, 1)))


def test_buchberger_fixes_groebner_input():
    F = systems.twisted_cubic()
    order = TermOrder((6, 4, 4, 6))
    out = buchberger(F, order)
    assert {order.leading_exponent(g) for g in out} == {
        order.leading_exponent(f) for f in F
    }
    assert is_groebner_basis(out, order)


def test_buchberger_extends_circle_pair():
    F = systems.unit_circle_pair()
    order = TermOrder((2, 1))
    out = buchberger(F, order)
    assert is_groebner_basis(out, order)
    out_leads = {order.leading_exponent(g) for g in out}
    assert out_leads > {(2, 0), (1, 1)}
    # inter-reduced: no lead divides another lead
    for a in out_leads:
        for b in out_leads:
            if a != b:
                assert not all(x <= y for x, y in zip(a, b))


def test_weight_vectors_realizing_gb_twisted_cubic():
    F = systems.twisted_cubic()
    passing = weight_vectors_realizing_gb(F)
    assert len(passing) == 4
    for weight in [(6, 4, 4, 6), (6, 6, 3, 5), (5, 3, 6, 6), (3, 6, 6, 3)]:
        target = leading_tuple(F, TermOrder(weight))
        assert any(cls.leads == target for cls in passing)


def test_weight_vectors_realizing_gb_is_sublist_of_classes():
    F = systems.gaussian_ci()
    classes = extract_weight_vectors(F)
    passing = weight_vectors_realizing_gb(F)
    assert all(cls in classes for cls in passing)


def test_universal_gb_single_monomial():
    R = ring("x", "y")
    assert is_universal_gb([R.variable("x") * R.variable("y")])


def test_universal_gb_false_for_circle_pair():
    assert not is_universal_gb(systems.unit_circle_pair())


def test_class_invariance_of_criterion():
    # two certified weights with the same leading tuple agree on the verdict
    F = systems.twisted_cubic()
    classes = extract_weight_vectors(F)
    for cls in classes:
        verdict = is_groebner_basis(F, TermOrder(cls.weight))
        alternates = 0
        for w1 in range(3):
            for w2 in range(3):
                for w3 in range(3):
                    for w4 in range(3):
                        weight = (w1, w2, w3, w4)
                        if weight == (0, 0, 0, 0) or weight == cls.weight:
                            continue
                        try:
                            order = TermOrder(weight)
                        except ValueError:
                            continue
                        if leading_tuple(F, order) != cls.leads:
                            continue
                        # strict selection only
                        from basisdetect.polyring import dot

                        if not all(
                            dot(weight, lead) > dot(weight, u)
                            for f, lead in zip(F, cls.leads)
                            for u in f.terms
                            if u != lead
                        ):
                            continue
                        assert is_groebner_basis(F, order) == verdict
                        alternates += 1
        assert alternates > 0


def _sullivant_talaska_pair(second):
    def make():
        F = systems.sullivant_talaska_c4()
        return [F[0], F[second]]

    return make


ORACLE_SYSTEMS = {
    "minors_2x2_of_3x3": systems.minors_2x2_of_3x3,
    "grassmannian_2_4": systems.grassmannian_2_4,
    "three_surfaces": systems.three_surfaces,
    "sullivant_talaska_1_2": _sullivant_talaska_pair(1),
    "sullivant_talaska_1_3": _sullivant_talaska_pair(2),
}


@pytest.mark.parametrize("make", ORACLE_SYSTEMS.values(), ids=ORACLE_SYSTEMS.keys())
def test_criterion_matches_oracle_on_every_class(make):
    F = make()
    classes = extract_weight_vectors(F)
    assert classes
    for cls in classes:
        order = cls.order()
        assert is_groebner_basis(F, order) == groebner_oracle.is_groebner_basis(
            F, order
        ), cls


def test_criterion_checks_every_generator():
    R = ring("x", "y")
    x, y = R.variable("x"), R.variable("y")
    with pytest.raises(ValueError, match="weight length"):
        is_groebner_basis([x + y, x * y], TermOrder((1,)))
    with pytest.raises(ValueError, match="zero polynomial"):
        is_groebner_basis([x, R.zero()], TermOrder((1, 1)))


@pytest.mark.parametrize(
    "terms, lead, expected",
    [
        # rational coefficients: times 12, content 1
        ({(1, 0): Fraction(3, 4), (0, 1): Fraction(-1, 6)}, (1, 0), [9, -2]),
        # a negative lead coefficient: divided by minus the content
        ({(1, 0): Fraction(-3, 4), (0, 1): Fraction(3, 2)}, (1, 0), [1, -2]),
        ({(1, 0): Fraction(5), (0, 1): Fraction(-10, 3)}, (0, 1), [-3, 2]),
        # integer coefficients, as completion passes them
        ({(1, 0): -4, (0, 1): 6, (0, 0): -2}, (0, 0), [2, -3, 1]),
        ({(2, 0): Fraction(2**70, 3), (0, 0): Fraction(-(2**71), 5)}, (2, 0), [5, -6]),
    ],
)
def test_primitive_makes_coprime_integers_with_a_positive_lead(terms, lead, expected):
    got_lead, ints = _primitive(terms, lead)
    assert got_lead == lead and list(ints.values()) == expected
    assert all(type(c) is int for c in ints.values())
    ratio = Fraction(ints[lead]) / Fraction(terms[lead])
    assert all(ints[e] == ratio * c for e, c in terms.items())
