"""Class enumeration against the product scan kept in ``enumeration_oracle``.

Both solve the same cone program for every tuple they certify, with the
rows in the same order, so they must list the same classes with the same
weights; a tuple skipped for a core it contains must therefore have an
empty cone.  The contradiction rule, ``orders._contradictions``, must
name exactly the contradictory pairs of leads, and the oracle must find
every tuple containing one empty.
"""

import itertools
import random
from pathlib import Path

import pytest

from basisdetect import Polynomial, PolynomialRing, extract_weight_vectors, lp
from basisdetect.cli import parse_system
from basisdetect.orders import _contradictions

import enumeration_oracle as oracle
import systems

SYSTEMS_DIR = Path(__file__).resolve().parent.parent / "systems"


def contradictory(polys, combo):
    """Whether two generators get leads a != b, b in the support of the
    first and a in that of the second."""
    return any(
        a != b and b in polys[i].terms and a in polys[k].terms
        for (i, a), (k, b) in itertools.combinations(enumerate(combo), 2)
    )


def assert_matches_oracle(polys):
    """Same classes and weights; the rule names the contradictory pairs,
    and every tuple containing one has an empty cone.  Returns how many
    tuples contain one."""
    assert extract_weight_vectors(polys) == oracle.extract_weight_vectors(polys)
    candidates = oracle.candidates(polys)
    pairs = {
        ((i, a), (k, b))
        for k in range(len(polys)) for i in range(k)
        for a in candidates[i] for b in candidates[k]
        if contradictory([polys[i], polys[k]], (a, b))
    }
    assert sorted(_contradictions(polys, candidates)) == sorted(pairs)
    skipped = [c for c in itertools.product(*candidates) if contradictory(polys, c)]
    for combo in skipped:
        assert oracle.cone_feasibility(polys, combo) is None, combo
    return len(skipped)


def assert_sample_matches_oracle(polys, rng, count):
    """For systems too large to scan whole: every candidate tuple in a
    seeded sample, classes and non-classes alike, gets the oracle's
    answer, and each class the oracle's weight."""
    candidates = oracle.candidates(polys)
    got = {c.leads: c.weight for c in extract_weight_vectors(polys)}
    classes = rng.sample(sorted(got), min(count, len(got)))
    others = [tuple(rng.choice(c) for c in candidates) for _ in range(count)]
    for combo in classes + others:
        assert got.get(combo) == oracle.cone_feasibility(polys, combo), combo


def system_file(name):
    return parse_system((SYSTEMS_DIR / (name + ".sys")).read_text())


CHEAP = [
    systems.two_cone_example,
    systems.unit_circle_pair,
    systems.sagbi_trio,
    systems.non_sagbi_trio,
    systems.twisted_cubic,
    systems.three_surfaces,
    systems.elementary_symmetric,
    systems.gaussian_ci,
    systems.grassmannian_2_4,
    systems.principal_minors_symmetric_3x3,
    systems.principal_minors_homogenized,
]
# A whole scan by the oracle takes 5 to 75 s for each of these.
LARGE = {
    **{
        make.__name__: make
        for make in (
            systems.grassmannian_2_5,
            systems.minors_2x2_of_3x3,
            systems.truncation_variety_generators,
            systems.truncation_variety_homogenized,
            systems.sullivant_talaska_c4,
        )
    },
    **{
        name + ".sys": (lambda name=name: system_file(name))
        for name in ("minors_2x2_of_3x3", "sullivant_talaska_c4", "truncation_variety")
    },
}


@pytest.mark.parametrize("make", CHEAP, ids=lambda f: f.__name__)
def test_constructions_match_oracle(make):
    assert_matches_oracle(make())


@pytest.mark.parametrize(
    "name",
    sorted(p.stem for p in SYSTEMS_DIR.glob("*.sys") if p.name not in LARGE),
)
def test_system_files_match_oracle(name):
    assert_matches_oracle(system_file(name))


@pytest.mark.parametrize("name", sorted(LARGE))
def test_large_systems_match_oracle_on_a_sample(name):
    assert_sample_matches_oracle(LARGE[name](), random.Random(name), 25)


def permuted(polys, perm):
    """The same polynomials with variable perm[j] moved to position j."""
    ring = PolynomialRing(tuple(polys[0].ring.variables[j] for j in perm))
    return [
        Polynomial(ring, {tuple(e[j] for j in perm): c for e, c in f.terms.items()})
        for f in polys
    ]


def benchmark_subsystems():
    """The subsystems the benchmark enumerates, each in the ring of its
    whole system."""
    st = systems.sullivant_talaska_c4()
    minors = system_file("minors_2x2_of_3x3")
    return {
        "st_c4_repeat": [st[0], st[2]],
        "st_c4_pair": [st[0], st[1]],
        "minors_first7": minors[:7],
        "gr25_first6": systems.grassmannian_2_5()[:6],
    }


@pytest.mark.parametrize("name", sorted(benchmark_subsystems()))
def test_benchmark_subsystems_match_oracle_under_permutations(name):
    polys = benchmark_subsystems()[name]
    rng = random.Random(name)
    n = polys[0].ring.nvars
    perms = [list(range(n))] + [rng.sample(range(n), n) for _ in range(3)]
    for perm in perms:
        assert_matches_oracle(permuted(polys, perm))


def random_system(rng):
    """A small system of the shapes the contradiction rule meets: repeated
    generators, scalar multiples, supports sharing monomials, single
    monomials and constants."""
    n = rng.randint(1, 3)
    ring = PolynomialRing(tuple("xyz"[:n]))
    pool = sorted({tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(6)})
    polys = []
    for _ in range(rng.randint(1, 4)):
        shape = rng.choice(("new", "new", "repeat", "multiple", "share", "monomial", "constant"))
        if shape in ("repeat", "multiple", "share") and not polys:
            shape = "new"
        if shape == "repeat":
            polys.append(rng.choice(polys))
        elif shape == "multiple":
            f = rng.choice(polys)
            c = rng.choice((-3, -1, 2, 5))
            polys.append(Polynomial(ring, {e: c * a for e, a in f.terms.items()}))
        elif shape == "constant":
            polys.append(Polynomial(ring, {(0,) * n: rng.choice((1, -2))}))
        else:
            if shape == "share":
                support = rng.sample(sorted(rng.choice(polys).terms), 1)
                support += rng.sample(pool, rng.randint(1, min(3, len(pool))))
            else:
                k = 1 if shape == "monomial" else rng.randint(2, 4)
                support = rng.sample(pool, min(k, len(pool)))
            terms = {e: rng.choice((-2, -1, 1, 3)) for e in support}
            polys.append(Polynomial(ring, terms))
    return polys


def test_random_systems_match_oracle():
    rng = random.Random(20261019)
    skipped = systems_skipping = 0
    for _ in range(250):
        count = assert_matches_oracle(random_system(rng))
        skipped += count
        systems_skipping += count > 0
    assert systems_skipping >= 20 and skipped >= 50


def count_lps(polys, monkeypatch):
    """Classes of the system and the number of cone programs solved."""
    calls = []
    cone_weight = lp.cone_weight

    def counting(rows, n):
        calls.append(len(rows))
        return cone_weight(rows, n)

    monkeypatch.setattr(lp, "cone_weight", counting)
    classes = extract_weight_vectors(polys)
    monkeypatch.undo()
    return len(classes), len(calls)


def test_repeated_generator_costs_one_lp_per_lead(monkeypatch):
    # the benchmark's st_c4_repeat: six candidate LPs for the one support
    # the two generators share, then one joint LP per shared lead instead
    # of one per tuple of the product
    st = systems.sullivant_talaska_c4()
    assert count_lps([st[0], st[2]], monkeypatch) == (6, 6 + 6)


@pytest.mark.parametrize(
    "make, classes, lps",
    [
        # 2 candidates for each binomial; the products have 64, 512, 1024
        # and 32768 tuples
        (systems.grassmannian_2_4, 24, 12 + 32),
        (systems.minors_2x2_of_3x3, 102, 18 + 116),
        (systems.grassmannian_2_5, 120, 20 + 140),
        (lambda: systems._pluecker_minors(6), 720, 30 + 760),
    ],
)
def test_cores_of_empty_cones_spare_their_tuples(make, classes, lps, monkeypatch):
    assert count_lps(make(), monkeypatch) == (classes, lps)
