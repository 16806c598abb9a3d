"""The toric module against its reference implementations.

The binomial engine and the generic-Buchberger elimination both compute
the x-free part of the reduced Groebner basis of <y_i - x^alpha_i> under
the same block order.  That basis is unique, so ``toric_ideal_generators``
must return exactly the oracle's list, in the same order.  The low-degree
relations must match the depth-first multiset walk list for list.
"""

import random

import pytest

from basisdetect import ExponentMatrix, extract_weight_vectors, toric_ideal_generators
from basisdetect.toric import relations_up_to_degree

import systems
import toric_oracle


def assert_agrees(columns):
    matrix = ExponentMatrix(columns)
    got = toric_ideal_generators(matrix)
    assert got == toric_oracle.toric_ideal_generators(matrix), columns
    return got


EDGE_CASES = {
    "zero columns": [(0, 0), (1, 2), (0, 0), (2, 1)],
    "only zero columns": [(0, 0, 0), (0, 0, 0)],
    "repeated columns": [(1, 1), (2, 0), (1, 1), (1, 1)],
    "one row": [(3,), (1,), (2,), (0,), (5,)],
    "unit columns": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (0, 1, 0)],
    "single column": [(2, 3)],
    "single zero column": [(0, 0)],
    "twisted cubic": [(3, 0), (2, 1), (1, 2), (0, 3)],
}


@pytest.mark.parametrize("columns", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_edge_cases_match_oracle(columns):
    assert_agrees(columns)


def test_random_matrices_match_oracle():
    rng = random.Random(20260418)
    nonempty = 0
    for _ in range(120):
        nrows = rng.randint(1, 3)
        ncols = rng.randint(1, 5)
        columns = [
            tuple(rng.randint(0, 2) for _ in range(nrows)) for _ in range(ncols)
        ]
        nonempty += bool(assert_agrees(columns))
    assert nonempty >= 60


def _assert_classes_agree(system):
    classes = extract_weight_vectors(getattr(systems, system)())
    assert classes
    for cls in classes:
        assert_agrees(cls.leads)


def test_grassmannian_2_4_classes_match_oracle():
    _assert_classes_agree("grassmannian_2_4")


@pytest.mark.slow
def test_minors_2x2_of_3x3_classes_match_oracle():
    # 102 classes; the oracle alone needs about 0.25 s for each
    _assert_classes_agree("minors_2x2_of_3x3")


# ---------------------------------------------------------------------------
# relations of low degree


def assert_relations_agree(columns):
    matrix = ExponentMatrix(columns)
    found = 0
    for degree in (1, 2, 3):
        got = relations_up_to_degree(matrix, degree)
        expected = toric_oracle.relations_up_to_degree(matrix, degree)
        assert got == expected, (columns, degree)
        found += len(got)
    return found


def test_random_low_degree_relations_match_oracle():
    rng = random.Random(20261018)
    zero = repeated = nonempty = 0
    for _ in range(150):
        nrows = rng.randint(1, 3)
        ncols = rng.randint(1, 7)
        columns = [
            tuple(rng.randint(0, 2) for _ in range(nrows)) for _ in range(ncols)
        ]
        if rng.random() < 0.3:
            columns[rng.randrange(ncols)] = (0,) * nrows
        if rng.random() < 0.3:
            columns[rng.randrange(ncols)] = rng.choice(columns)
        zero += (0,) * nrows in columns
        repeated += len(set(columns)) < ncols
        nonempty += bool(assert_relations_agree(columns))
    assert zero >= 30 and repeated >= 30 and nonempty >= 100


def test_grassmannian_2_4_low_degree_relations_match_oracle():
    classes = extract_weight_vectors(systems.grassmannian_2_4())
    assert classes
    for cls in classes:
        assert_relations_agree(cls.leads)


def test_truncation_low_degree_relations_match_oracle():
    # the constant generator 1 gives every class a zero column
    classes = extract_weight_vectors(systems.truncation_variety_generators())
    for cls in classes[:20]:
        assert cls.leads[0] == (0,) * 10
        assert assert_relations_agree(cls.leads)
