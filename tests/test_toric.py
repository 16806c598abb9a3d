"""Tests for the relation ideal and nonnegative integer membership."""

import gc
import random
import warnings
from fractions import Fraction

import pytest

from basisdetect import (
    ExponentMatrix,
    HilbertBoundWarning,
    TermOrder,
    ToricBinomial,
    buchberger,
    extract_weight_vectors,
    hilbert_vector,
    is_sagbi_hilbert,
    is_sagbi_subduction,
    normal_form,
    ring,
    solve_monomial_membership,
    toric_ideal_generators,
    verdicts,
)
from basisdetect.hilbert import _subalgebra_matcher
from basisdetect.toric import _lattice_key, relations_up_to_degree

import systems


def _substitution_vanishes(matrix, binomial):
    """y^u - y^v must vanish under y_i -> x^alpha_i."""
    return matrix.apply(binomial.u) == matrix.apply(binomial.v)


def test_quadric_relation():
    # leading monomials x^2, xy, y^2: single relation y1 y3 - y2^2
    A = ExponentMatrix([(2, 0), (1, 1), (0, 2)])
    gens = toric_ideal_generators(A)
    assert gens == [ToricBinomial((1, 0, 1), (0, 2, 0))]


def test_independent_monomials_no_relations():
    A = ExponentMatrix([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert toric_ideal_generators(A) == []


def test_equal_columns_give_linear_relation():
    A = ExponentMatrix([(0, 2), (1, 1), (0, 2)])
    gens = toric_ideal_generators(A)
    assert ToricBinomial((1, 0, 0), (0, 0, 1)) in gens


def test_constant_column():
    # a generator with leading exponent 0 forces y_i = 1
    A = ExponentMatrix([(0, 0), (1, 0)])
    gens = toric_ideal_generators(A)
    assert ToricBinomial((1, 0), (0, 0)) in gens


def test_generators_are_relations():
    A = ExponentMatrix([(2, 0), (1, 1), (0, 2), (3, 1)])
    for binomial in toric_ideal_generators(A):
        assert _substitution_vanishes(A, binomial)
        assert all(a == 0 or b == 0 for a, b in zip(binomial.u, binomial.v))


def test_relations_up_to_degree_sound():
    A = ExponentMatrix([(2, 0), (1, 1), (0, 2), (3, 1)])
    rels = relations_up_to_degree(A, 3)
    assert rels
    for binomial in rels:
        assert _substitution_vanishes(A, binomial)


def test_membership_box_example():
    A = ExponentMatrix([(2, 0), (1, 1), (0, 2)])
    v = solve_monomial_membership(A, (3, 3))
    assert v == (1, 1, 1)
    assert A.apply(v) == (3, 3)


def test_membership_zero_target():
    A = ExponentMatrix([(2, 0), (1, 1)])
    assert solve_monomial_membership(A, (0, 0)) == (0, 0)


def test_membership_parity_obstruction():
    A = ExponentMatrix([(2, 0), (0, 2)])
    assert solve_monomial_membership(A, (1, 1)) is None


def test_membership_zero_column_ignored():
    A = ExponentMatrix([(0, 0), (1, 1)])
    v = solve_monomial_membership(A, (2, 2))
    assert v is not None and A.apply(v) == (2, 2) and v[0] == 0


def test_membership_validates_target():
    A = ExponentMatrix([(1, 0)])
    with pytest.raises(ValueError):
        solve_monomial_membership(A, (1,))
    with pytest.raises(ValueError):
        solve_monomial_membership(A, (-1, 0))


def _brute_force_relations_to_degree(matrix, limit):
    """Oracle: all primitive relation pairs (u, v) with |u|, |v| <= limit."""
    import itertools

    s = matrix.ncols
    multisets = []
    for size in range(limit + 1):
        for combo in itertools.combinations_with_replacement(range(s), size):
            v = [0] * s
            for i in combo:
                v[i] += 1
            multisets.append(tuple(v))
    groups: dict = {}
    pairs = []
    for u in multisets:
        key = matrix.apply(u)
        for v in groups.get(key, ()):
            common = tuple(min(a, b) for a, b in zip(u, v))
            uu = tuple(a - c for a, c in zip(u, common))
            vv = tuple(b - c for b, c in zip(v, common))
            if uu != vv:
                pairs.append((uu, vv))
        groups.setdefault(key, []).append(u)
    return pairs


def test_generators_generate_low_degree_relations():
    # every degree-<=4 relation must reduce to zero modulo the returned set
    A = ExponentMatrix([(2, 0), (1, 1), (0, 2)])
    gens = toric_ideal_generators(A)
    s = A.ncols
    R = ring(*["y%d" % (i + 1) for i in range(s)])
    ygens = [
        R.monomial(b.u, 1) - R.monomial(b.v, 1) for b in gens
    ]
    order = TermOrder((1,) * s)
    basis = buchberger(ygens, order)
    for u, v in _brute_force_relations_to_degree(A, 4):
        rel = R.monomial(u, 1) - R.monomial(v, 1)
        if rel.is_zero():
            continue
        assert normal_form(rel, basis, order).remainder.is_zero()


# ---------------------------------------------------------------------------
# lattice key: the row space of A, which fixes ker A and so the relations


def _rref(rows):
    """The nonzero rows of the reduced row echelon form, over Q."""
    rows = [[Fraction(x) for x in row] for row in rows]
    out = []
    for k in range(len(rows[0]) if rows else 0):
        pivot = next((row for row in rows if row[k]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        pivot = [x / pivot[k] for x in pivot]
        rows = [[x - row[k] * p for x, p in zip(row, pivot)] for row in rows]
        out = [[x - row[k] * p for x, p in zip(row, pivot)] for row in out]
        out.append(pivot)
    return tuple(tuple(row) for row in out)


def _random_rows(rng, nrows, ncols, top):
    rows = [[rng.randint(0, top) for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.3:  # a zero column
        k = rng.randrange(ncols)
        for row in rows:
            row[k] = 0
    if rng.random() < 0.3:  # a zero row
        rows[rng.randrange(nrows)] = [0] * ncols
    if nrows > 1 and rng.random() < 0.3:  # rank deficient
        rows[-1] = [a + b for a, b in zip(rows[0], rows[-2])]
    return rows


def _matrix(rows):
    return ExponentMatrix(list(zip(*rows)))


def test_lattice_key_is_the_rref():
    rng = random.Random(20260419)
    for _ in range(300):
        rows = _random_rows(rng, rng.randint(1, 4), rng.randint(1, 5), 3)
        key = _lattice_key(_matrix(rows))
        assert key == (len(rows[0]), _rref(rows)), rows


def test_lattice_key_equal_exactly_when_rref_equal():
    rng = random.Random(20260420)
    equal = 0
    for _ in range(400):
        nrows, ncols = rng.randint(1, 3), rng.randint(2, 3)
        a, b = (_random_rows(rng, nrows, ncols, 1) for _ in range(2))
        same = _lattice_key(_matrix(a)) == _lattice_key(_matrix(b))
        assert same == (_rref(a) == _rref(b)), (a, b)
        equal += same
    assert equal >= 40


def test_same_row_space_same_key_and_relations():
    # permuted rows, a scaled row, an appended combination of rows: the row
    # space, ker A and so both relation lists stay the same
    rng = random.Random(20260421)
    nonempty = 0
    for _ in range(150):
        rows = _random_rows(rng, rng.randint(1, 3), rng.randint(1, 5), 2)
        other = [list(row) for row in rows]
        rng.shuffle(other)
        k = rng.randrange(len(other))
        factor = rng.randint(2, 4)
        other[k] = [factor * x for x in other[k]]
        weights = [rng.randint(0, 2) for _ in other]
        other.append([sum(w * x for w, x in zip(weights, col)) for col in zip(*other)])
        A, B = _matrix(rows), _matrix(other)
        assert _lattice_key(A) == _lattice_key(B), (rows, other)
        assert relations_up_to_degree(A, 3) == relations_up_to_degree(B, 3)
        gens = toric_ideal_generators(A)
        assert gens == toric_ideal_generators(B), (rows, other)
        nonempty += bool(gens)
    assert nonempty >= 50


def test_lattice_key_on_sullivant_talaska_classes():
    # lead matrices with zero rows (variables in no lead), repeated columns
    # and rows that reduce to zero
    classes = extract_weight_vectors(systems.sullivant_talaska_c4())
    for cls in classes:
        matrix = ExponentMatrix(cls.leads)
        rows = list(zip(*matrix.columns))
        assert _lattice_key(matrix) == (matrix.ncols, _rref(rows))


def _grassmannian_2_4_first_class():
    polys = systems.grassmannian_2_4()
    return polys, extract_weight_vectors(polys)[0]


def _hilbert_criterion_quietly():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HilbertBoundWarning)
        return is_sagbi_hilbert(*_grassmannian_2_4_first_class(), 4)


def _subduction_criterion_two_cones():
    # the red class stops the relation stream early, the green one runs it
    # through the generating set
    polys = systems.two_cone_example()
    verdicts = {
        cls.leads: is_sagbi_subduction(polys, cls)
        for cls in extract_weight_vectors(polys)
    }
    assert verdicts[((2, 0), (1, 1), (0, 2))]
    assert not verdicts[((0, 2), (1, 1), (0, 2))]


def _subalgebra_degree_walk():
    # every class of Gr(2,4) is a SAGBI class, so the matcher builds the
    # power products of each degree 1..6 and keeps its last layers
    polys, cls = _grassmannian_2_4_first_class()
    assert _subalgebra_matcher(polys)(hilbert_vector(polys, cls, 6))


_CYCLE_FREE_CALLS = {
    "graded_multiplicities": _subalgebra_degree_walk,
    "hilbert_vector": lambda: hilbert_vector(*_grassmannian_2_4_first_class(), 6),
    "is_sagbi_hilbert": _hilbert_criterion_quietly,
    "is_sagbi_subduction": _subduction_criterion_two_cones,
    "shared_relations": lambda: list(
        verdicts(systems.grassmannian_2_4(), "subduction")
    ),
    "relations_up_to_degree": lambda: relations_up_to_degree(
        ExponentMatrix([(2, 0), (1, 1), (0, 2), (3, 1)]), 3
    ),
    "membership_found": lambda: solve_monomial_membership(
        ExponentMatrix([(2, 0), (1, 1), (0, 2)]), (5, 5)
    ),
    "membership_refuted": lambda: solve_monomial_membership(
        ExponentMatrix([(2, 0), (0, 2)]), (3, 1)
    ),
    "toric_ideal_generators": lambda: toric_ideal_generators(
        ExponentMatrix([(2, 0), (1, 1), (0, 2), (3, 1)])
    ),
}


@pytest.mark.parametrize(
    "call", _CYCLE_FREE_CALLS.values(), ids=_CYCLE_FREE_CALLS.keys()
)
def test_results_freed_without_garbage_collector(call):
    # a call that leaves a reference cycle keeps its objects alive until
    # the next full collection; these must be freed by reference counting
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
