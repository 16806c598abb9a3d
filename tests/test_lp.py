"""The fraction-free simplex against the dense ``Fraction`` tableau oracle.

Both use Bland's rule on the same exact data, so they make the same pivots
and must agree exactly: the same optimal value and point, or the same
error.  The integer cone entry ``cone_weight`` is checked against both
through the general program it stands for.
"""

import math
import operator
import random
from fractions import Fraction

import pytest

from basisdetect import extract_weight_vectors
from basisdetect import lp as lp_mod
from basisdetect.lp import UnboundedError, cone_weight, maximize

import lp_oracle
import systems


def outcome(solver, objective, rows, rhs):
    try:
        return solver(objective, rows, rhs)
    except (UnboundedError, ValueError) as exc:
        return type(exc)


def assert_agrees(objective, rows, rhs):
    expected = outcome(lp_oracle.maximize, objective, rows, rhs)
    got = outcome(maximize, objective, rows, rhs)
    assert got == expected, (objective, rows, rhs)
    if isinstance(expected, tuple):
        assert all(type(x) is Fraction for x in [got[0], *got[1]])
    return expected


def random_entry(rng, low=-3, high=3):
    value = Fraction(rng.randint(low, high), rng.choice((1, 1, 2, 3, 4)))
    return value if value.denominator > 1 else int(value)


def test_random_rational_lps_match_oracle():
    rng = random.Random(20240426)
    bounded = unbounded = 0
    for _ in range(600):
        nvars = rng.randint(1, 5)
        m = rng.randint(0, 6)
        rows = [[random_entry(rng) for _ in range(nvars)] for _ in range(m)]
        rhs = [random_entry(rng, 0, 4) for _ in range(m)]
        objective = [random_entry(rng) for _ in range(nvars)]
        if assert_agrees(objective, rows, rhs) is UnboundedError:
            unbounded += 1
        else:
            bounded += 1
    assert bounded >= 100 and unbounded >= 100


def test_degenerate_zero_rhs_lps_match_oracle():
    rng = random.Random(7)
    for _ in range(300):
        nvars = rng.randint(1, 5)
        m = rng.randint(1, 7)
        rows = [[random_entry(rng) for _ in range(nvars)] for _ in range(m)]
        # most right-hand sides zero: many ties in the ratio test
        rhs = [rng.choice((0, 0, 0, 1)) for _ in range(m)]
        objective = [random_entry(rng) for _ in range(nvars)]
        assert_agrees(objective, rows, rhs)


def cone_lp(rng, n):
    """max eps s.t. <w, u - lead> + eps <= 0, 0 <= w <= 1, as in orders."""
    rows = []
    for _ in range(rng.randint(1, 3)):
        support = set()
        while len(support) < 2:
            support = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(4)}
        support = sorted(support)
        lead = rng.choice(support)
        rows += [[u[j] - lead[j] for j in range(n)] + [1] for u in support if u != lead]
    rhs = [0] * len(rows)
    for j in range(n):
        rows.append([int(j == k) for k in range(n + 1)])
        rhs.append(1)
    return [0] * n + [1], rows, rhs


def test_cone_lps_with_zero_and_positive_optimum_match_oracle():
    rng = random.Random(3)
    zero = positive = 0
    for _ in range(400):
        objective, rows, rhs = cone_lp(rng, rng.randint(1, 4))
        value, point = assert_agrees(objective, rows, rhs)
        if value == 0:
            zero += 1
        else:
            positive += 1
    assert zero >= 50 and positive >= 50


def test_unbounded_lps_match_oracle():
    rng = random.Random(11)
    for _ in range(200):
        nvars = rng.randint(1, 4)
        m = rng.randint(0, 5)
        # the last variable never appears with a positive coefficient
        rows = [
            [random_entry(rng) for _ in range(nvars - 1)] + [rng.randint(-2, 0)]
            for _ in range(m)
        ]
        rhs = [rng.randint(0, 3) for _ in range(m)]
        objective = [random_entry(rng) for _ in range(nvars - 1)] + [1]
        assert assert_agrees(objective, rows, rhs) is UnboundedError


@pytest.mark.parametrize(
    "objective, rows, rhs",
    [
        ([1], [[1]], [-1]),
        ([1, 1], [[1, 0], [1]], [1, 1]),
        ([1], [[1], [2, 3]], [0, 0]),
    ],
)
def test_invalid_input_raises_like_oracle(objective, rows, rhs):
    with pytest.raises(ValueError):
        lp_oracle.maximize(objective, rows, rhs)
    with pytest.raises(ValueError):
        maximize(objective, rows, rhs)


def test_empty_programs_match_oracle():
    assert_agrees([], [], [])
    assert_agrees([0, -1], [], [])
    assert_agrees([1], [], [])


def general_program(rows, n):
    """The ``maximize`` program of ``cone_weight(rows, n)``: the cone rows
    without their right-hand side, then the box rows w_j <= 1."""
    cone = [list(r[: n + 1]) for r in rows]
    box = [[int(j == k) for k in range(n + 1)] for j in range(n)]
    return [0] * n + [1], cone + box, [0] * len(cone) + [1] * n


def weight_of(value, point, n):
    """What ``cone_weight`` must return for this optimum of the program."""
    if value <= 0:
        return None
    denom = math.lcm(*(x.denominator for x in point[:n]))
    return lp_oracle.normalize_weight(x * denom for x in point[:n])


def assert_cone_agrees(rows, n):
    """The cone entry matches the oracle and ``maximize`` on its program,
    and the core it gives for an empty cone is itself an empty cone for
    the oracle; returns the oracle's optimum and point."""
    assert all(len(r) == n + 2 and r[n:] == [1, 0] for r in rows)
    expected = assert_agrees(*general_program(rows, n))
    weight, core = cone_weight(rows, n)
    assert weight == weight_of(*expected, n), (rows, n)
    if weight is None:
        assert core and len(set(core)) == len(core) and max(core) < len(rows), core
        value, _ = lp_oracle.maximize(*general_program([rows[r] for r in core], n))
        assert value == 0, (rows, core)
    else:
        assert core is None
    return expected


def test_cone_weight_matches_maximize_on_random_cones():
    rng = random.Random(29)
    zero = positive = degenerate = 0
    for _ in range(500):
        n = rng.randint(1, 4)
        diffs = [
            [rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 5))
        ]
        diffs = [d for d in diffs if any(d)] or [[-1] * n]
        # repeated and scaled rows: several constraints tight at one vertex
        for _ in range(rng.randint(0, 2)):
            diffs.append([rng.randint(1, 2) * x for x in rng.choice(diffs)])
        rows = [d + [1, 0] for d in diffs]
        value, point = assert_cone_agrees(rows, n)
        if value == 0:
            zero += 1
            continue
        positive += 1
        tight = sum(sum(map(operator.mul, d, point)) + value == 0 for d in diffs)
        tight += sum(x == 0 or x == 1 for x in point[:n])
        degenerate += tight > n + 1
    assert zero >= 50 and positive >= 50 and degenerate >= 50


def enumeration_rows(rng, n):
    """The rows ``u - lead, 1, 0`` of one to three random supports in
    {0, 1, 2}^n, as enumeration joins them for a leading tuple."""
    rows = []
    for _ in range(rng.randint(1, 3)):
        support = set()
        while len(support) < 2:
            support = {
                tuple(rng.randint(0, 2) for _ in range(n))
                for _ in range(rng.randint(2, 5))
            }
        support = sorted(support)
        lead = rng.choice(support)
        rows += [[a - b for a, b in zip(u, lead)] + [1, 0] for u in support if u != lead]
    return rows


def test_cone_weight_matches_oracle_on_random_cones_up_to_ten_variables():
    # A positive optimum has some w_j at its bound 1 (the program is
    # homogeneous in w and eps), reached by a bound flip or a pivot on a
    # complement; the weights strictly inside the box are the ones a
    # complement row must get right with its right-hand side D - rhs.
    rng = random.Random(24)
    zero = at_bound = inside = 0
    for _ in range(300):
        n = rng.randint(2, 10)
        value, point = assert_cone_agrees(enumeration_rows(rng, n), n)
        zero += value == 0
        at_bound += 1 in point[:n]
        inside += any(0 < x < 1 for x in point[:n])
    assert zero >= 50 and at_bound >= 100 and inside >= 50


def test_cone_weight_without_rows_is_unbounded_like_maximize():
    # eps is then bounded by nothing; enumeration never asks
    assert assert_agrees(*general_program([], 3)) is UnboundedError
    with pytest.raises(UnboundedError):
        cone_weight([], 3)


def test_cone_weight_leaves_its_rows_unchanged():
    rows = [[1, -2, 1, 0], [-1, 0, 1, 0], [-2, 1, 1, 0]]
    copy = [list(r) for r in rows]
    value, point = assert_cone_agrees(rows, 2)
    assert value > 0 and rows == copy
    rows += [[1, 1, 1, 0]]
    copy = [list(r) for r in rows]
    value, point = assert_cone_agrees(rows, 2)
    assert value == 0 and rows == copy
    # eps enters on the first row; then no row limits w_0, so it flips to
    # its bound 1, which changes the first row's entry and right-hand
    # side.  That row is also the last one, as a repeated lead's block is
    # shared between generators.
    shared = [-1, -1, 1, 0]
    rows = [shared, [-1, 0, 1, 0], shared]
    value, point = assert_cone_agrees(rows, 2)
    assert point[:2] == [1, 0]
    assert rows == [[-1, -1, 1, 0], [-1, 0, 1, 0], [-1, -1, 1, 0]]


@pytest.mark.parametrize(
    "make",
    [
        systems.two_cone_example,
        systems.twisted_cubic,
        systems.three_surfaces,
        systems.gaussian_ci,
        systems.elementary_symmetric,
        # bench-sized programs on 8 to 10 variables and up to 20 rows;
        # between them they flip bounds, pivot on complement rows and
        # bring complements in
        systems.sullivant_talaska_c4,
        systems.minors_2x2_of_3x3,
        systems.grassmannian_2_4,
    ],
)
def test_every_enumeration_lp_matches_oracle(make, monkeypatch):
    seen = []

    def recording(rows, n):
        seen.append(([list(r) for r in rows], n))
        return cone_weight(rows, n)

    monkeypatch.setattr(lp_mod, "cone_weight", recording)
    extract_weight_vectors(make())
    assert seen
    for rows, n in seen:
        assert_cone_agrees(rows, n)
