"""The packed-layer Hilbert vector against the multiplicity walk.

``hilbert_vector`` counts the monomials of each degree of the algebra of
leading monomials from the lower degrees, on packed exponents;
``hilbert_oracle`` lists every multiplicity vector of the degree instead.
The counts must be equal, and ``is_sagbi_hilbert``, which compares them
with the subalgebra's Hilbert function computed once, must give the
verdict of the per-class comparison.
"""

import random
import warnings
from fractions import Fraction

import pytest

from basisdetect import (
    HilbertBoundWarning,
    Polynomial,
    extract_weight_vectors,
    hilbert_vector,
    is_sagbi_hilbert,
    ring,
)

import hilbert_oracle
import systems

RINGS = {n: ring(*["x%d" % i for i in range(1, n + 1)]) for n in (1, 2, 3, 4)}


def assert_agrees(polys, bound, verdict=True):
    """Compare every class with the oracle; returns the verdicts (or None
    per class when ``verdict`` is false)."""
    found = []
    for cls in extract_weight_vectors(polys):
        expected = hilbert_oracle.hilbert_vector(polys, cls, bound)
        assert hilbert_vector(polys, cls, bound) == expected, (polys, cls)
        ok = None
        if verdict:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", HilbertBoundWarning)
                ok = is_sagbi_hilbert(polys, cls, bound)
            assert ok == hilbert_oracle.is_sagbi_hilbert(polys, cls, bound), (
                polys,
                cls,
            )
        found.append(ok)
    return found


def random_homogeneous(rng, nvars, degree):
    R = RINGS[nvars]
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exp = [0] * nvars
        for _ in range(degree):
            exp[rng.randrange(nvars)] += 1
        terms[tuple(exp)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Polynomial(R, terms)


def test_random_homogeneous_systems_match_oracle():
    rng = random.Random(20261018)
    mixed = constants = 0
    found = []
    for _ in range(200):
        nvars = rng.randint(1, 4)
        degrees = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
        if not any(degrees):
            degrees[0] = 1
        polys = [random_homogeneous(rng, nvars, d) for d in degrees]
        mixed += len(set(d for d in degrees if d)) > 1
        constants += 0 in degrees
        found += assert_agrees(polys, rng.randint(1, 5))
        assert_agrees(polys, rng.randint(6, 9), verdict=False)
    assert mixed >= 60 and constants >= 40
    assert found.count(True) >= 100 and found.count(False) >= 30


def _monomials(nvars, *exponents):
    R = RINGS[nvars]
    return [R.monomial(e, 1) for e in exponents]


# Every monomial of degree t <= bound has exponents at most t, so a field of
# bound.bit_length() bits is just wide enough.  These cases reach its top
# value (bound = 2^k - 1), the first value past a boundary (bound = 2^k) or
# neither; with one bit fewer, different monomials of the same degree share
# a packed value in the first three odd-bound cases.
VARIABLES = _monomials(4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
FIELD_EDGES = {
    "variables, bound 5": (VARIABLES, 5),
    "variables, bound 7": (VARIABLES, 7),
    "variables, bound 8": (VARIABLES, 8),
    "pure powers, bound 7": (
        _monomials(3, (3, 0, 0), (0, 1, 0), (0, 0, 2), (1, 1, 1)),
        7,
    ),
    "mixed degrees, bound 9": (
        _monomials(4, (2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 3, 0), (1, 0, 0, 1)),
        9,
    ),
    "constant and powers, bound 4": (
        [RINGS[2].constant(5)] + _monomials(2, (4, 0), (0, 1)),
        4,
    ),
}


@pytest.mark.parametrize("polys, bound", FIELD_EDGES.values(), ids=FIELD_EDGES.keys())
def test_field_width_edges_match_oracle(polys, bound):
    assert len(assert_agrees(polys, bound, verdict=False)) == 1


def test_variables_count_all_monomials():
    # the algebra generated by x1..x4 has C(t + 3, 3) monomials in degree t
    (cls,) = extract_weight_vectors(VARIABLES)
    assert hilbert_vector(VARIABLES, cls, 8) == (
        4, 10, 20, 35, 56, 84, 120, 165,
    )


@pytest.mark.parametrize(
    "system, verdict_bound",
    [("grassmannian_2_4", 6), ("principal_minors_homogenized", 12)],
)
def test_system_classes_match_oracle(system, verdict_bound):
    polys = getattr(systems, system)()
    assert len(assert_agrees(polys, 12, verdict=False)) >= 14
    assert len(assert_agrees(polys, verdict_bound)) >= 14
