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
from math import comb

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


def random_exponent(rng, nvars, degree):
    exp = [0] * nvars
    for _ in range(degree):
        exp[rng.randrange(nvars)] += 1
    return tuple(exp)


def random_homogeneous(rng, nvars, degree):
    R = RINGS[nvars]
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[random_exponent(rng, nvars, degree)] = Fraction(
            rng.choice([-3, -2, -1, 1, 2, 3])
        )
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


def random_generator(rng, nvars, degree, single):
    """A homogeneous generator with one term when ``single``, else with two
    or three distinct terms, as many as there are monomials of the degree
    (so ``nvars`` >= 2 and ``degree`` >= 1)."""
    R = RINGS[nvars]
    count = 1 if single else min(rng.randint(2, 3), comb(nvars + degree - 1, degree))
    exponents = {random_exponent(rng, nvars, degree)}
    while len(exponents) < count:
        exponents.add(random_exponent(rng, nvars, degree))
    return Polynomial(
        R, {e: Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for e in exponents}
    )


def mixed_system(rng, split):
    """Generators of degree 1..3 in 2..4 variables: none, some or all with a
    single term (``split``), at times with a constant, a copy of a
    single-term generator, or a single term of a multi-term generator, so
    that a fixed lead may equal a lead some class chooses."""
    nvars = rng.randint(2, 4)
    count = rng.randint(2, 4)
    singles = {
        "none": [False] * count,
        "all": [True] * count,
        "some": [True, False] + [rng.random() < 0.5 for _ in range(count - 2)],
    }[split]
    polys = [
        random_generator(rng, nvars, rng.randint(1, 3), single)
        for single in singles
    ]
    extras = set()
    if rng.random() < 0.3:
        polys.append(RINGS[nvars].constant(rng.choice([-2, 1, 3])))
        extras.add("constant")
    monomials = [f for f in polys if len(f.terms) == 1 and f.total_degree()]
    if monomials and rng.random() < 0.4:
        f = rng.choice(monomials)
        polys.append(f * RINGS[nvars].constant(rng.choice([-1, 2])))
        extras.add("repeated")
    multi = [f for f in polys if len(f.terms) > 1]
    if multi and rng.random() < 0.4:
        term = rng.choice(list(rng.choice(multi).terms))
        polys.append(RINGS[nvars].monomial(term, 1))
        extras.add("possible lead")
    rng.shuffle(polys)
    return polys, extras


def test_fixed_and_varying_leads_match_oracle():
    """Single-term generators span the monoid every class shares; the
    other leads are added per class.  Every split of the leads must count
    as the oracle counts."""
    rng = random.Random(20261019)
    seen = {"constant": 0, "repeated": 0, "possible lead": 0}
    found = []
    for split in ("none", "some", "all"):
        for _ in range(60):
            polys, extras = mixed_system(rng, split)
            for extra in extras:
                seen[extra] += 1
            found += assert_agrees(polys, rng.randint(1, 5))
            assert_agrees(polys, rng.randint(6, 8), verdict=False)
    assert min(seen.values()) >= 30, seen
    assert found.count(True) >= 200 and found.count(False) >= 150


def test_shared_monoid_alternating_systems_and_bounds():
    """The monoid of the fixed leads is kept from one call to the next;
    calls that alternate two systems and two bounds must each count their
    own."""
    R = RINGS[3]
    x, y, z = (R.variable(v) for v in R.variables)
    first = [x * x, y * z, x * y - z * z, x + y]
    second = [x * y, z, x * x + y * z, y * y - x * z]
    runs = [(F, extract_weight_vectors(F)) for F in (first, second)]
    for k, bound in [(0, 5), (1, 5), (0, 7), (0, 5), (1, 7), (1, 7), (0, 7), (1, 5)]:
        polys, classes = runs[k]
        for cls in classes:
            expected = hilbert_oracle.hilbert_vector(polys, cls, bound)
            assert hilbert_vector(polys, cls, bound) == expected


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
