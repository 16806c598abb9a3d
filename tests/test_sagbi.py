"""Tests for subduction, both SAGBI criteria, detection and rankings."""

import warnings
from fractions import Fraction

import pytest

from basisdetect import (
    ExponentMatrix,
    HilbertBoundWarning,
    SubductionLimitError,
    TermOrder,
    extract_weight_vectors,
    hilbert_vector,
    is_sagbi_hilbert,
    is_sagbi_subduction,
    is_universal_sagbi,
    rank_orders,
    ring,
    subduction,
    toric_ideal_generators,
    verdicts,
    weight_vectors_realizing_sagbi,
)
from basisdetect import hilbert, sagbi
from basisdetect.orders import OrderClass
from basisdetect.polyring import dot
from basisdetect.rank import LatticePolytope, normalized_volume, polytope_dim
from basisdetect.sagbi import _power_product, _RelationSource, _sagbi_failure_witness
from basisdetect.toric import ToricBinomial, _lattice_key

import systems


def _classes_by_leads(polys):
    return {cls.leads: cls for cls in extract_weight_vectors(polys)}


def _green_red():
    F = systems.two_cone_example()
    classes = _classes_by_leads(F)
    green = classes[((2, 0), (1, 1), (0, 2))]
    red = classes[((0, 2), (1, 1), (0, 2))]
    return F, green, red


def _reconstructs(f, polys, result):
    total = result.remainder
    cache = {}
    for coeff, v in result.steps:
        total = total + _power_product(polys, v, cache).scale(coeff)
    return total == f


def test_subduction_green_cone_example():
    F, green, _ = _green_red()
    R = F[0].ring
    x, y = R.variable("x"), R.variable("y")
    f = x**3 * y**3 + x * y**5
    result = subduction(f, F, TermOrder(green.weight))
    assert result.remainder.is_zero()
    assert _reconstructs(f, F, result)


def test_subduction_of_generator():
    F, green, _ = _green_red()
    result = subduction(F[0], F, TermOrder(green.weight))
    assert result.remainder.is_zero()
    assert len(result.steps) == 1
    assert result.steps[0] == (Fraction(1), (1, 0, 0))


def test_subduction_immediate_failure():
    R = ring("x", "y")
    x = R.variable("x")
    result = subduction(x, [x**2], TermOrder((1, 1)))
    assert result.remainder == x
    assert result.steps == []


def test_subduction_of_a_high_power():
    # a power product is built in a loop, one generator at a time, so a
    # multiplicity far beyond the recursion limit is no error
    R = ring("x", "y")
    x, y = R.variable("x"), R.variable("y")
    result = subduction(x**1200, [x, y], TermOrder((1, 1)))
    assert result.remainder.is_zero()
    assert result.steps == [(Fraction(1), (1200, 0))]


def test_subduction_remainder_certificate():
    # when the remainder is nonzero its lead is outside the lead monoid
    from basisdetect import ExponentMatrix, solve_monomial_membership

    F, _, red = _green_red()
    order = TermOrder(red.weight)
    R = F[0].ring
    f = R.variable("x") ** 2
    result = subduction(f, F, order)
    assert not result.remainder.is_zero()
    matrix = ExponentMatrix(red.leads)
    assert (
        solve_monomial_membership(
            matrix, order.leading_exponent(result.remainder)
        )
        is None
    )


def _two_step_system():
    # the lift of y3 - y1^2 is y + 1, which subduces in two steps, y and 1,
    # for both classes
    R = ring("x", "y")
    x, y = R.variable("x"), R.variable("y")
    return [x, y, x**2 + y + R.constant(1)]


def test_subduction_step_cap(monkeypatch):
    F, green, _ = _green_red()
    R = F[0].ring
    x, y = R.variable("x"), R.variable("y")
    f = x**4 + y**6
    full = subduction(f, F, TermOrder(green.weight))
    assert len(full.steps) > 1
    monkeypatch.setattr(sagbi, "SUBDUCTION_CAP", 1)
    with pytest.raises(SubductionLimitError, match="within 1 steps"):
        subduction(f, F, TermOrder(green.weight))
    # a subduction that finishes in one step stays within a cap of one
    x = ring("x", "y").variable("x")
    assert subduction(x**2, [x], TermOrder((1, 1))).remainder.is_zero()


def test_subduction_cap_hit_in_detection(monkeypatch):
    F = _two_step_system()
    assert all(ok for _, ok in verdicts(F, "subduction"))
    monkeypatch.setattr(sagbi, "SUBDUCTION_CAP", 1)
    with pytest.raises(SubductionLimitError, match="within 1 steps"):
        list(verdicts(F, "subduction"))


def test_generating_set_only_after_low_relations(monkeypatch):
    # the red class fails on a relation of degree <= 3, so it never needs
    # the generating set; the green class needs it once
    F, green, red = _green_red()

    def refuse(matrix):
        raise AssertionError("generating set computed")

    monkeypatch.setattr("basisdetect.toric.toric_ideal_generators", refuse)
    assert not is_sagbi_subduction(F, red)

    calls = []

    def counting(matrix):
        calls.append(matrix)
        return toric_ideal_generators(matrix)

    monkeypatch.setattr("basisdetect.toric.toric_ideal_generators", counting)
    assert is_sagbi_subduction(F, green)
    assert calls == [ExponentMatrix(green.leads)]


def test_classes_of_one_lattice_share_their_relations(monkeypatch):
    # Gr(2,4) has 24 classes but 3 lattices ker A: the generating set is
    # computed once per lattice, and the run holds no list at its end
    F = systems.grassmannian_2_4()
    classes = extract_weight_vectors(F)
    keys = {_lattice_key(ExponentMatrix(cls.leads)) for cls in classes}
    assert (len(classes), len(keys)) == (24, 3)
    expected = [(cls, is_sagbi_subduction(F, cls)) for cls in classes]

    calls = []

    def counting(matrix):
        calls.append(_lattice_key(matrix))
        return toric_ideal_generators(matrix)

    sources = []

    def recording(classes):
        sources.append(_RelationSource(classes))
        return sources[-1]

    monkeypatch.setattr("basisdetect.toric.toric_ideal_generators", counting)
    monkeypatch.setattr("basisdetect.sagbi._RelationSource", recording)
    assert list(verdicts(F, "subduction")) == expected
    assert len(calls) == len(set(calls)) == 3
    assert len(sources) == 1
    assert sources[0]._lists == sources[0]._keys == {}
    # the source is pickled for the worker processes, which finds its class
    # by name, so the real class must be back in place
    monkeypatch.undo()
    assert list(verdicts(F, "subduction", jobs=2)) == expected


def test_shared_stream_is_checked_against_each_class():
    # relations stored for another lattice are refused
    F, green, _ = _green_red()
    shared = _RelationSource()
    shared._keys[green.leads] = "lattice"
    shared._lists["lattice"] = (2, [ToricBinomial((0, 1, 0), (0, 0, 1))], None)
    with pytest.raises(AssertionError, match="another lattice"):
        is_sagbi_subduction(F, green, shared=shared)


def test_is_sagbi_two_cones():
    F, green, red = _green_red()
    assert is_sagbi_subduction(F, green)
    assert not is_sagbi_subduction(F, red)


def test_is_sagbi_trio():
    F = systems.sagbi_trio()
    classes = extract_weight_vectors(F)
    verdicts = {cls.weight: is_sagbi_subduction(F, cls) for cls in classes}
    passing = [w for w, ok in verdicts.items() if ok]
    assert len(passing) == 1
    assert passing[0][1] > passing[0][0]


def test_is_sagbi_rejects_uncertified_class():
    F, green, _ = _green_red()
    bogus = OrderClass(green.leads, (0, 1))
    with pytest.raises(ValueError):
        is_sagbi_subduction(F, bogus)


def test_weight_vectors_realizing_sagbi_detects_only_green():
    F, green, _ = _green_red()
    result = weight_vectors_realizing_sagbi(F)
    assert [cls.leads for cls in result] == [green.leads]


def test_weight_vectors_realizing_sagbi_empty():
    assert weight_vectors_realizing_sagbi(systems.non_sagbi_trio()) == []


def test_detection_is_sublist_of_enumeration():
    F = systems.sagbi_trio()
    classes = extract_weight_vectors(F)
    assert all(cls in classes for cls in weight_vectors_realizing_sagbi(F))


def test_is_universal_sagbi():
    assert is_universal_sagbi(systems.elementary_symmetric())
    assert not is_universal_sagbi(systems.non_sagbi_trio())


# ---------------------------------------------------------------------------
# Hilbert criterion


def test_hilbert_vector_two_squares():
    R = ring("x", "y")
    F = [R.variable("x") ** 2, R.variable("y") ** 2]
    (cls,) = extract_weight_vectors(F)
    vec = hilbert_vector(F, cls, 4)
    assert vec == (0, 2, 0, 3)


def test_hilbert_vector_monomial_set_class_independent():
    R = ring("x", "y")
    F = [R.variable("x") * R.variable("y"), R.variable("y") ** 2]
    vectors = {
        hilbert_vector(F, cls, 6) for cls in extract_weight_vectors(F)
    }
    assert len(vectors) == 1


def test_hilbert_criterion_two_cones():
    F, green, red = _green_red()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HilbertBoundWarning)
        assert is_sagbi_hilbert(F, green, 6)
        assert not is_sagbi_hilbert(F, red, 6)


def test_hilbert_failure_degree_matches_vector_difference():
    F, green, red = _green_red()
    witness = _sagbi_failure_witness(F, red, _RelationSource())
    assert witness is not None
    degree = witness.total_degree()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HilbertBoundWarning)
        assert not is_sagbi_hilbert(F, red, degree)
        gvec = hilbert_vector(F, green, degree)
        rvec = hilbert_vector(F, red, degree)
    first_diff = next(t for t in range(degree) if gvec[t] != rvec[t])
    # the two vectors first differ at a degree where the red class fails
    assert gvec[first_diff] > rvec[first_diff]


def test_hilbert_requires_homogeneous():
    F = systems.unit_circle_pair()
    cls = extract_weight_vectors(F)[0]
    with pytest.raises(ValueError):
        is_sagbi_hilbert(F, cls)
    with pytest.raises(ValueError):
        weight_vectors_realizing_sagbi(F, method="hilbert")


@pytest.mark.parametrize("bound", [0, -3])
def test_hilbert_bound_below_one_rejected(bound):
    # x + y, x*y, x*y^2 is no SAGBI basis; a bound below 1 compared no
    # degree at all and reported every class as one
    F = systems.non_sagbi_trio()
    cls = extract_weight_vectors(F)[0]
    with pytest.raises(ValueError, match="at least 1"):
        is_sagbi_hilbert(F, cls, bound)
    with pytest.raises(ValueError, match="at least 1"):
        weight_vectors_realizing_sagbi(F, method="hilbert", bound=bound)
    with pytest.raises(ValueError, match="at least 1"):
        verdicts(F, "hilbert", bound=bound)
    with pytest.raises(ValueError, match="at least 1"):
        rank_orders(F, "preferable", bound)


@pytest.mark.parametrize("bound", [0, -3])
def test_hilbert_vector_bound_below_one_rejected(bound):
    # hilbert_vector takes a resolved bound; below 1 it returned an empty
    # vector, which compares equal to any other empty vector
    F = systems.non_sagbi_trio()
    cls = extract_weight_vectors(F)[0]
    with pytest.raises(ValueError, match="at least 1, got %d" % bound):
        hilbert_vector(F, cls, bound)
    assert len(hilbert_vector(F, cls, 1)) == 1


def test_hilbert_warns_when_cap_truncates():
    F = systems.elementary_symmetric()
    cls = extract_weight_vectors(F)[0]
    with pytest.warns(HilbertBoundWarning):
        assert is_sagbi_hilbert(F, cls)


def test_hilbert_detection_on_elementary_symmetric():
    F = systems.elementary_symmetric()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HilbertBoundWarning)
        found = weight_vectors_realizing_sagbi(F, method="hilbert", bound=8)
    assert len(found) == 6


def test_method_validation():
    with pytest.raises(ValueError):
        weight_vectors_realizing_sagbi(systems.two_cone_example(), method="x")


# ---------------------------------------------------------------------------
# rankings


def test_rank_orders_nicer_two_cones():
    F, green, red = _green_red()
    groups = rank_orders(F, "nicer")
    # green leads span a longer segment (degree 2 vs 1 in own lattice)
    flat = [cls.leads for group in groups for cls in group]
    assert set(flat) == {green.leads, red.leads}
    green_sig = (
        polytope_dim(LatticePolytope(green.leads)),
        normalized_volume(LatticePolytope(green.leads)),
    )
    red_sig = (
        polytope_dim(LatticePolytope(red.leads)),
        normalized_volume(LatticePolytope(red.leads)),
    )
    assert green_sig > red_sig
    assert groups[0][0].leads == green.leads
    assert [group.score for group in groups] == [green_sig, red_sig]


def test_rank_orders_preferable_puts_sagbi_class_first():
    F, green, _ = _green_red()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HilbertBoundWarning)
        groups = rank_orders(F, "preferable", bound=6)
    assert groups[0][0].leads == green.leads
    assert [group.score for group in groups] == [
        hilbert_vector(F, group[0], 6) for group in groups
    ]
    assert groups[0].score > groups[1].score


def test_preferable_ranking_builds_the_fixed_monoid_once(monkeypatch):
    """The leads of the four single-term principal minors are the same in
    every class; their monoid is built once per ranking, not per class."""
    F = systems.principal_minors_homogenized()
    builds, scored = [], []
    build, score = hilbert._monoid_layers, hilbert.hilbert_vector

    def counting_build(steps, bound):
        builds.append(steps)
        return build(steps, bound)

    def counting_score(polys, cls, bound):
        scored.append(cls)
        return score(polys, cls, bound)

    monkeypatch.setattr(hilbert, "_monoid_layers", counting_build)
    monkeypatch.setattr(hilbert, "hilbert_vector", counting_score)
    hilbert._shared_monoid.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HilbertBoundWarning)
        groups = rank_orders(F, "preferable")
    assert sum(map(len, groups)) == len(scored) == 14
    assert len(builds) == 1 and len(builds[0]) == 4


def test_rank_orders_single_class():
    R = ring("x", "y")
    F = [R.variable("x") * R.variable("y")]
    groups = rank_orders(F, "nicer")
    assert len(groups) == 1 and len(groups[0]) == 1
    assert groups[0].score == (0, 1)


def test_rank_orders_depends_only_on_leading_tuple():
    F = systems.elementary_symmetric()
    groups = rank_orders(F, "nicer")
    for group in groups:
        for cls in group:
            polytope = LatticePolytope(cls.leads)
            assert group.score == (
                polytope_dim(polytope),
                normalized_volume(polytope),
            )
    scores = [group.score for group in groups]
    assert scores == sorted(set(scores), reverse=True)
    # replace every certificate with an independently found small weight
    # selecting the same tuple; grouping must not change
    def regroup(alternates):
        remap = {cls.leads: alt for cls, alt in alternates.items()}
        return [
            [remap[cls.leads].leads for cls in group] for group in groups
        ]

    alternates = {}
    for group in groups:
        for cls in group:
            found = None
            for w1 in range(4):
                for w2 in range(4):
                    for w3 in range(4):
                        weight = (w1, w2, w3)
                        if weight == cls.weight or all(v == 0 for v in weight):
                            continue
                        strict = all(
                            dot(weight, lead) > dot(weight, u)
                            for f, lead in zip(F, cls.leads)
                            for u in f.terms
                            if u != lead
                        )
                        if strict:
                            found = OrderClass(cls.leads, weight)
                            break
                    if found:
                        break
                if found:
                    break
            assert found is not None
            alternates[cls] = found
    regrouped = [
        [cls.leads for cls in group]
        for group in rank_orders(F, "nicer")
    ]
    assert regroup(alternates) == regrouped


def test_rank_orders_criterion_validation():
    with pytest.raises(ValueError):
        rank_orders(systems.two_cone_example(), criterion="best")
