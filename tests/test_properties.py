"""Randomized property suites with fixed seeds.

Instance counts follow the acceptance checklist: 500 division identities,
200 subduction reconstructions, 100 toric vanishing checks, 50 toric
completeness checks, 50 enumeration completeness checks, plus the
agreement of the two SAGBI criteria on every homogeneous benchmark system
(a class that passes subduction passes the truncated Hilbert comparison),
and the constancy of the Groebner and SAGBI verdicts across several
weights of each class.
"""

import itertools
import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from basisdetect import (
    ExponentMatrix,
    HilbertBoundWarning,
    OrderClass,
    Polynomial,
    TermOrder,
    buchberger,
    extract_weight_vectors,
    homogenize_with_t,
    initial_form,
    is_groebner_basis,
    is_sagbi_subduction,
    leading_tuple,
    normal_form,
    ring,
    solve_monomial_membership,
    subduction,
    toric_ideal_generators,
    verdicts,
)
from basisdetect.cli import parse_system
from basisdetect.polyring import dot
from basisdetect.toric import relations_up_to_degree
from basisdetect.sagbi import _power_product, _relation_spoly

import groebner_oracle
import hilbert_oracle

SYSTEM_FILES = Path(__file__).resolve().parent.parent / "systems"

RINGS = {n: ring(*["x%d" % i for i in range(1, n + 1)]) for n in (1, 2, 3)}


def random_polynomial(rng, nvars, max_degree=3, max_terms=4, zero_ok=False):
    R = RINGS[nvars]
    terms = {}
    for _ in range(rng.randint(0 if zero_ok else 1, max_terms)):
        exp = tuple(rng.randint(0, max_degree) for _ in range(nvars))
        coeff = 0
        while coeff == 0:
            coeff = rng.randint(-5, 5)
        terms[exp] = terms.get(exp, 0) + coeff
    f = Polynomial(R, {e: Fraction(c) for e, c in terms.items() if c})
    if f.is_zero() and not zero_ok:
        return R.constant(rng.randint(1, 5))
    return f


def random_order(rng, nvars):
    weight = tuple(rng.randint(0, 6) for _ in range(nvars))
    if all(w == 0 for w in weight):
        weight = (1,) * nvars
    return TermOrder(weight)


def test_division_identity_500():
    rng = random.Random(20240901)
    for _ in range(500):
        nvars = rng.randint(1, 3)
        f = random_polynomial(rng, nvars, zero_ok=True)
        divisors = [
            random_polynomial(rng, nvars) for _ in range(rng.randint(1, 3))
        ]
        order = random_order(rng, nvars)
        result = normal_form(f, divisors, order)
        recombined = result.remainder
        for q, g in zip(result.quotients, divisors):
            recombined = recombined + q * g
        assert recombined == f
        leads = [order.leading_exponent(g) for g in divisors]
        for exp in result.remainder.terms:
            assert not any(
                all(a <= b for a, b in zip(lead, exp)) for lead in leads
            )


def test_subduction_reconstruction_and_decrease_200():
    rng = random.Random(20240902)
    for _ in range(200):
        nvars = rng.randint(1, 2)
        gens = [random_polynomial(rng, nvars) for _ in range(rng.randint(1, 3))]
        order = random_order(rng, nvars)
        # mix products of the generators with random noise
        cache = {}
        f = random_polynomial(rng, nvars, zero_ok=True)
        for _ in range(rng.randint(0, 2)):
            v = tuple(rng.randint(0, 2) for _ in gens)
            f = f + _power_product(gens, v, cache).scale(rng.randint(1, 3))
        if f.is_zero():
            continue
        result = subduction(f, gens, order)
        total = result.remainder
        for coeff, v in result.steps:
            total = total + _power_product(gens, v, cache).scale(coeff)
        assert total == f
        # replay the steps: the leading key must strictly decrease
        current = f
        for coeff, v in result.steps:
            before = order.key(order.leading_exponent(current))
            current = current - _power_product(gens, v, cache).scale(coeff)
            if current.is_zero():
                break
            assert order.key(order.leading_exponent(current)) < before
        # remainder certificate: lead not in the monoid of lead exponents
        if not result.remainder.is_zero():
            matrix = ExponentMatrix(
                [order.leading_exponent(g) for g in gens]
            )
            lead = order.leading_exponent(result.remainder)
            assert solve_monomial_membership(matrix, lead) is None


def test_power_product_table_200():
    # one shared table, vectors requested in random order: zero, repeats
    # and vectors that are prefixes of each other (the steps the table
    # itself takes) must all give prod(f ** k), taken without the table
    rng = random.Random(20240914)
    for _ in range(200):
        nvars = rng.randint(1, 3)
        gens = [
            random_polynomial(rng, nvars, max_degree=2, max_terms=3)
            for _ in range(rng.randint(1, 4))
        ]
        vectors = [tuple(rng.randint(0, 3) for _ in gens) for _ in range(6)]
        vectors.append((0,) * len(gens))
        # a vector on the way from another one down to zero
        base = rng.choice(vectors)
        cut = rng.randrange(len(gens))
        tail = (0,) * (len(gens) - cut - 1)
        vectors.append(base[:cut] + (rng.randint(0, base[cut]),) + tail)
        vectors += rng.sample(vectors, 3)
        rng.shuffle(vectors)
        cache = {}
        for v in vectors:
            expected = hilbert_oracle.power_product(gens, v)
            assert _power_product(gens, v, cache) == expected, (gens, v)


def random_matrix(rng, max_rows=3, max_cols=3, max_entry=3):
    n = rng.randint(1, max_rows)
    s = rng.randint(1, max_cols)
    cols = []
    for _ in range(s):
        cols.append(tuple(rng.randint(0, max_entry) for _ in range(n)))
    return ExponentMatrix(cols)


def test_toric_binomial_vanishing_100():
    rng = random.Random(20240903)
    for _ in range(100):
        matrix = random_matrix(rng, max_entry=4)
        for binomial in toric_ideal_generators(matrix):
            assert matrix.apply(binomial.u) == matrix.apply(binomial.v)
            assert binomial.u != binomial.v
            assert all(
                a == 0 or b == 0 for a, b in zip(binomial.u, binomial.v)
            )


def _all_relations_to_degree(matrix, limit):
    s = matrix.ncols
    groups: dict = {}
    pairs = []
    multisets = []
    for size in range(limit + 1):
        for combo in itertools.combinations_with_replacement(range(s), size):
            v = [0] * s
            for i in combo:
                v[i] += 1
            multisets.append(tuple(v))
    for u in multisets:
        key = matrix.apply(u)
        for v in groups.get(key, ()):
            if u != v:
                pairs.append((u, v))
        groups.setdefault(key, []).append(u)
    return pairs


def test_toric_generation_completeness_50():
    rng = random.Random(20240904)
    checked = 0
    while checked < 50:
        matrix = random_matrix(rng)
        gens = toric_ideal_generators(matrix)
        s = matrix.ncols
        R = RINGS.get(s) or ring(*["x%d" % i for i in range(1, s + 1)])
        relations = _all_relations_to_degree(matrix, 4)
        if gens:
            ygens = [R.monomial(b.u, 1) - R.monomial(b.v, 1) for b in gens]
            order = TermOrder((1,) * s)
            basis = buchberger(ygens, order)
            for u, v in relations:
                rel = R.monomial(u, 1) - R.monomial(v, 1)
                assert normal_form(rel, basis, order).remainder.is_zero()
        else:
            assert relations == []
        checked += 1


def test_membership_against_exhaustive_oracle():
    rng = random.Random(20240905)
    for _ in range(100):
        matrix = random_matrix(rng, max_entry=4)
        n = matrix.nrows
        b = tuple(rng.randint(0, 6) for _ in range(n))
        answer = solve_monomial_membership(matrix, b)
        # oracle: exhaustive scan over static per-column bounds, in the
        # documented search order (columns by decreasing total degree, then
        # by index; multiplicities from large to small), so that the first
        # solution listed is the one the search must return
        bounds = []
        for col in matrix.columns:
            positive = [b[r] // a for r, a in enumerate(col) if a]
            bounds.append(min(positive) if positive else 0)
        s = matrix.ncols
        order = sorted(range(s), key=lambda j: (-sum(matrix.columns[j]), j))
        first = None
        for values in itertools.product(*[range(bounds[j], -1, -1) for j in order]):
            v = [0] * s
            for j, x in zip(order, values):
                v[j] = x
            if matrix.apply(v) == b:
                first = tuple(v)
                break
        assert answer == first, (matrix, b)


@pytest.mark.parametrize("homogenize", [False, True], ids=["plain", "t"])
def test_subduction_pass_implies_hilbert_pass(homogenize):
    # A SAGBI basis has the Hilbert function of its subalgebra in every
    # degree, so each class that passes subduction passes the Hilbert
    # comparison at any bound.  Not the converse: a comparison truncated
    # below a missing relation may pass where subduction fails.
    homogeneous = []
    for path in sorted(SYSTEM_FILES.glob("*.sys")):
        polys = parse_system(path.read_text())
        if all(f.is_homogeneous() for f in polys):
            homogeneous.append((path.name, polys))
    assert len(homogeneous) == 8, [name for name, _ in homogeneous]
    for name, polys in homogeneous:
        if homogenize:
            polys = homogenize_with_t(polys)
        passing = {cls for cls, ok in verdicts(polys, "subduction") if ok}
        for bound in (4, 6):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", HilbertBoundWarning)
                hilbert = {
                    cls for cls, ok in verdicts(polys, "hilbert", bound=bound) if ok
                }
            assert passing <= hilbert, (name, bound, passing - hilbert)


def test_extract_weight_vectors_complete_50_systems():
    rng = random.Random(20240906)
    samples_per_system = 10_000
    for _ in range(50):
        nvars = rng.randint(1, 3)
        polys = [
            random_polynomial(rng, nvars, max_degree=3, max_terms=3)
            for _ in range(rng.randint(1, 3))
        ]
        enumerated = {cls.leads for cls in extract_weight_vectors(polys)}
        for _ in range(samples_per_system):
            weight = tuple(rng.randint(1, 40) for _ in range(nvars))
            observed = leading_tuple(polys, TermOrder(weight))
            assert observed in enumerated


def test_verdict_constant_on_each_class():
    # Per-class detection checks one weight per class; this is sound only
    # when every weight selecting the same leading tuple gets the same
    # Groebner and SAGBI (subduction) verdict.
    rng = random.Random(20240912)
    with_alternates = 0
    for _ in range(40):
        nvars = rng.randint(2, 3)
        polys = [
            random_polynomial(rng, nvars, max_degree=2, max_terms=3)
            for _ in range(rng.randint(2, 3))
        ]
        for cls in extract_weight_vectors(polys):
            selecting = [
                weight
                for weight in itertools.product(range(5), repeat=nvars)
                if any(weight)
                and all(
                    dot(weight, lead) > dot(weight, u)
                    for f, lead in zip(polys, cls.leads)
                    for u in f.terms
                    if u != lead
                )
            ]
            weights = [cls.weight] + rng.sample(selecting, min(3, len(selecting)))
            with_alternates += len(weights) > 1
            gb = {is_groebner_basis(polys, TermOrder(w)) for w in weights}
            sagbi = {
                is_sagbi_subduction(polys, OrderClass(cls.leads, w))
                for w in weights
            }
            assert len(gb) == 1 and len(sagbi) == 1, (polys, cls, weights)
    assert with_alternates >= 50


def _failing_relations(polys, cls, relations):
    """How many of the lifted relations do not subduce to zero."""
    order = cls.order()
    matrix = ExponentMatrix(cls.leads)
    cache = {}
    return sum(
        not subduction(
            _relation_spoly(polys, b.u, b.v, matrix.apply(b.u), cache),
            polys,
            order,
        ).remainder.is_zero()
        for b in relations
    )


@pytest.mark.parametrize("seed, max_degree", [(20240912, 2), (20240913, 3)])
def test_subduction_verdict_matches_full_generating_set(seed, max_degree):
    # The SAGBI witness search subduces the relations of degree <= 3 before
    # the generating set.  Its verdict must be that of the generating set
    # alone, also where only a relation of higher degree fails.
    rng = random.Random(seed)
    found = []
    past_prescan = 0
    for _ in range(160):
        nvars = rng.randint(2, 3)
        polys = [
            random_polynomial(rng, nvars, max_degree=max_degree, max_terms=3)
            for _ in range(rng.randint(2, 3))
        ]
        for cls in extract_weight_vectors(polys):
            matrix = ExponentMatrix(cls.leads)
            ok = is_sagbi_subduction(polys, cls)
            generators = toric_ideal_generators(matrix)
            assert ok == (not _failing_relations(polys, cls, generators)), (
                polys,
                cls,
            )
            found.append(ok)
            low = relations_up_to_degree(matrix, 3)
            past_prescan += not ok and not _failing_relations(polys, cls, low)
    assert found.count(True) >= 80 and found.count(False) >= 20
    assert past_prescan >= 5


def test_buchberger_output_passes_criterion_50():
    rng = random.Random(20240911)
    from basisdetect import is_groebner_basis

    for _ in range(50):
        nvars = rng.randint(1, 3)
        gens = [
            random_polynomial(rng, nvars, max_degree=3, max_terms=3)
            for _ in range(rng.randint(1, 3))
        ]
        order = random_order(rng, nvars)
        basis = buchberger(gens, order)
        assert is_groebner_basis(basis, order)
        # the production criterion shares the completion's integer kernel,
        # so the Fraction S-pair loop checks the output too
        assert groebner_oracle.is_groebner_basis(basis, order)
        # inputs reduce to zero against their own completion
        for f in gens:
            assert normal_form(f, basis, order).remainder.is_zero()


def test_buchberger_matches_oracle_200():
    # the integer completion against plain Fraction Buchberger: the reduced
    # basis is unique, so the two lists must be equal element by element
    rng = random.Random(20261020)
    for _ in range(200):
        nvars = rng.randint(1, 3)
        gens = [
            random_polynomial(rng, nvars, max_degree=3, max_terms=3)
            for _ in range(rng.randint(1, 3))
        ]
        order = random_order(rng, nvars)
        assert buchberger(gens, order) == groebner_oracle.buchberger(gens, order), (
            gens,
            order,
        )


def test_criterion_matches_oracle_on_random_systems():
    # the integer check that stops at the first irreducible lead against
    # the Fraction S-pair loop; half the systems are completed (scaled by
    # random rationals) so that both verdicts occur
    rng = random.Random(20240914)
    found = []
    for _ in range(200):
        nvars = rng.randint(1, 3)
        gens = [
            random_polynomial(rng, nvars, max_degree=2, max_terms=3)
            for _ in range(rng.randint(1, 3))
        ]
        order = random_order(rng, nvars)
        if rng.random() < 0.5:
            gens = [
                g.scale(Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)))
                for g in buchberger(gens, order)
            ]
            if rng.random() < 0.5:
                gens.append(random_polynomial(rng, nvars, max_degree=2, max_terms=3))
        ok = is_groebner_basis(gens, order)
        assert ok == groebner_oracle.is_groebner_basis(gens, order), (gens, order)
        found.append(ok)
    assert found.count(True) >= 50 and found.count(False) >= 50


def test_ring_axioms_randomized():
    rng = random.Random(20240907)
    for _ in range(100):
        nvars = rng.randint(1, 3)
        f = random_polynomial(rng, nvars, zero_ok=True)
        g = random_polynomial(rng, nvars, zero_ok=True)
        h = random_polynomial(rng, nvars, zero_ok=True)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) + h == f + (g + h)


def test_rational_arithmetic_is_exact():
    rng = random.Random(20240908)
    for _ in range(100):
        a, c = (rng.getrandbits(120) - (1 << 119) for _ in range(2))
        b, d = (rng.getrandbits(120) + 1 for _ in range(2))
        assert Fraction(a, b) + Fraction(c, d) == Fraction(a * d + c * b, b * d)


def test_initial_term_multiplicative():
    rng = random.Random(20240909)
    for _ in range(200):
        nvars = rng.randint(1, 3)
        f = random_polynomial(rng, nvars)
        g = random_polynomial(rng, nvars)
        order = random_order(rng, nvars)
        fe, fc = order.leading_term(f)
        ge, gc = order.leading_term(g)
        pe, pc = order.leading_term(f * g)
        assert pe == tuple(a + b for a, b in zip(fe, ge))
        assert pc == fc * gc


def test_initial_form_generic_weight_is_leading_monomial():
    rng = random.Random(20240910)
    for _ in range(200):
        nvars = rng.randint(1, 3)
        f = random_polynomial(rng, nvars)
        weight = tuple(rng.randint(1, 100) for _ in range(nvars))
        from basisdetect.polyring import dot

        values = [dot(weight, e) for e in f.terms]
        if len(set(values)) != len(values):
            continue  # not generic for f, skip
        form = initial_form(f, weight)
        exp, coeff = TermOrder(weight).leading_term(f)
        assert form.terms == {exp: coeff}
