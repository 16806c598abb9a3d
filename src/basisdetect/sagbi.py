"""Subduction and SAGBI-basis detection over term-order classes.

A set F is a SAGBI basis of the subalgebra it generates, for a term order,
exactly when every S-polynomial lifted from a generating relation among
the leading monomials subduces to zero.  This module implements that
criterion, an alternative Hilbert-function criterion for homogeneous
generators, and two rankings (preferable / nicer) of the classes when
detection fails.  The per-class detection loop is in
:mod:`basisdetect.detect`.

Both criteria rest on power products prod(F_i ** v_i) of the generators,
and each is built as a smaller product times one generator: subduction
and the lifted relations look them up in a table keyed by the
multiplicity vector v, and read the leading coefficients they scale by
off the products themselves.

The subduction criterion makes one pass per class: one matrix of leading
exponents and one product table serve every lift and every subduction
of the class.  Its relations come from one stream, those of degree <= 3
first and then the generating set of the relation ideal, which is
computed only once every low relation has subduced to zero.

The Hilbert criterion compares two functions of the degree.  The Hilbert
function of the algebra of leading monomials depends on the class:
``hilbert_vector`` builds its monomials degree by degree from the lower
degrees, as packed integers (one bit field per variable).  That of the
subalgebra does not depend on the term order (Robbiano & Sweedler 1990):
it is the rank of the power products of each degree, which are built the
same way, degree by degree from the lower degrees; it is computed once
and shared by every class it is compared with.
"""

from __future__ import annotations

import warnings
from collections import deque
from fractions import Fraction

from .orders import (
    LatticePolytope,
    OrderClass,
    extract_weight_vectors,
    leading_tuple,
    normalized_volume,
    polytope_dim,
)
from .polyring import (
    DEFAULT_SUBDUCTION_CAP,
    HilbertBoundWarning,
    MonomialOrder,
    Polynomial,
    SubductionLimitError,
    TermOrder,
    _add_multiple,
    _FrozenRecord,
    _Record,
    check_generators,
)
from .toric import (
    ExponentMatrix,
    relations_up_to_degree,
    solve_monomial_membership,
    toric_ideal_generators,
)

DEFAULT_HILBERT_BOUND = 12


class SubductionResult(_Record):
    """Remainder plus the subtracted steps (coefficient, multiplicities).

    The input reconstructs exactly as
    ``sum(c * prod(F_i ** v_i) for c, v in steps) + remainder``.
    """

    __slots__ = ("remainder", "steps")

    def __init__(
        self, remainder: Polynomial, steps: list[tuple[Fraction, tuple[int, ...]]]
    ):
        self.remainder = remainder
        self.steps = steps


def _power_product(
    polys: list[Polynomial], multiplicities, cache: dict
) -> Polynomial:
    """prod(F_i ** v_i), from ``cache``, a table of such products by their
    multiplicity vectors v.

    A product is a smaller product times one generator: v steps down its
    last nonzero entry until it reaches a vector in the table (or zero),
    and the product is multiplied back up, one generator per step, each
    new vector entered in the table.
    """
    v = tuple(multiplicities)
    missing = []
    while any(v) and v not in cache:
        i = max(j for j, k in enumerate(v) if k)
        missing.append((v, i))
        v = v[:i] + (v[i] - 1,) + v[i + 1 :]
    product = cache[v] if any(v) else polys[0].ring.constant(1)
    for v, i in reversed(missing):
        product = cache[v] = product * polys[i]
    return product


def _require_positive_steps(max_steps: int) -> None:
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1, got %d" % max_steps)


def subduction(
    f: Polynomial,
    polys: list[Polynomial],
    order: MonomialOrder,
    max_steps: int = DEFAULT_SUBDUCTION_CAP,
) -> SubductionResult:
    """Rewrite the leading term of f as a monomial in the leading terms of
    the generators, repeatedly, until that fails or f vanishes.

    Each step subtracts c * prod(F_i ** v_i) where A v matches the current
    leading exponent (A = leading exponents of the generators), so the
    leading term cancels exactly and strictly decreases in the order.
    A ``max_steps`` below 1 is a ValueError.
    """
    check_generators(polys)
    if f.ring != polys[0].ring:
        raise ValueError("polynomial ring differs from generator ring")
    _require_positive_steps(max_steps)
    matrix = ExponentMatrix([order.leading_exponent(g) for g in polys])
    return _subduce(f, polys, order, matrix, {}, max_steps)


def _subduce(f, polys, order, matrix, cache, max_steps) -> SubductionResult:
    """The subduction loop, given the generators' leading exponents as the
    columns of ``matrix`` and a table of their power products, ``cache``,
    that it extends."""
    steps: list[tuple[Fraction, tuple[int, ...]]] = []
    work = dict(f.terms)
    previous = None
    while work:
        if len(steps) >= max_steps:
            raise SubductionLimitError(
                "subduction did not finish within %d steps" % max_steps
            )
        lead = max(work, key=order.key)
        # each step cancels the leading term, so the leads strictly decrease
        assert previous is None or order.key(lead) < order.key(previous)
        v = solve_monomial_membership(matrix, lead)
        if v is None:
            break
        product = _power_product(polys, v, cache)
        scale = work[lead] / product.terms[lead]
        _add_multiple(work, -scale, None, product.terms)
        steps.append((scale, v))
        previous = lead
    return SubductionResult(Polynomial(f.ring, work), steps)


def _certified_order(polys: list[Polynomial], cls: OrderClass) -> TermOrder:
    order = cls.order()
    if leading_tuple(polys, order) != cls.leads:
        raise ValueError("order class is not certified for these polynomials")
    return order


def _relation_spoly(
    polys: list[Polynomial], u, v, lead, cache: dict
) -> Polynomial:
    """Lift y^u - y^v to generators, scaled so that their leading terms, at
    the exponent ``lead`` = A u = A v, cancel."""
    left = _power_product(polys, u, cache)
    right = _power_product(polys, v, cache)
    return left._plus(-left.terms[lead] / right.terms[lead], right)


def _relations(matrix: ExponentMatrix):
    """The relations whose lifts the criterion subduces: those of degree
    <= 3 first, then the generating-set binomials not among them.  The
    generating set is computed only when every low relation was taken."""
    low = relations_up_to_degree(matrix, 3)
    yield from low
    seen = set(low)
    for binomial in toric_ideal_generators(matrix):
        if binomial not in seen:
            yield binomial


def _sagbi_failure_witness(
    polys: list[Polynomial],
    cls: OrderClass,
    max_steps: int = DEFAULT_SUBDUCTION_CAP,
) -> Polynomial | None:
    """First lifted relation whose subduction remainder is nonzero, if any.

    A nonzero remainder for any single relation already disproves the
    basis property, so cheap low-degree relations are tried before the
    full elimination-based generating set is computed.  The class's
    leading exponents and one product table serve every lift and every
    subduction.
    """
    check_generators(polys)
    _require_positive_steps(max_steps)
    order = _certified_order(polys, cls)
    matrix = ExponentMatrix(cls.leads)
    cache: dict = {}
    for binomial in _relations(matrix):
        lead = matrix.apply(binomial.u)
        spoly = _relation_spoly(polys, binomial.u, binomial.v, lead, cache)
        result = _subduce(spoly, polys, order, matrix, cache, max_steps)
        if not result.remainder.is_zero():
            return spoly
    return None


def is_sagbi_subduction(
    polys: list[Polynomial],
    cls: OrderClass,
    max_steps: int = DEFAULT_SUBDUCTION_CAP,
) -> bool:
    """Subduction criterion: every lifted generating relation of the
    leading monomials must subduce to zero."""
    return _sagbi_failure_witness(polys, cls, max_steps) is None


# ---------------------------------------------------------------------------
# Hilbert-function criterion (homogeneous generators)


class HilbertVector(_FrozenRecord):
    """Dimensions of the graded pieces for degrees 1..bound."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]):
        self._set(values)


def _require_homogeneous(polys: list[Polynomial]) -> None:
    for i, f in enumerate(polys, 1):
        if not f.is_homogeneous():
            raise ValueError(
                "generator %d is not homogeneous; Hilbert functions need "
                "homogeneous generators" % i
            )


def _rank_of_polynomials(polys: list[Polynomial]) -> int:
    """Rank of the coefficient matrix, by exact Gaussian elimination."""
    pivots: dict = {}
    rank = 0
    for f in polys:
        row = dict(f.terms)
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = Fraction(1) / row[lead]
                pivots[lead] = {e: c * inv for e, c in row.items()}
                rank += 1
                break
            _add_multiple(row, -row[lead], None, pivot)
    return rank


def _positive_degree_parts(polys, leads=None):
    """Degrees of the generators, dropping degree-0 (constant) ones.

    Nonzero constants only contribute scalars to both the subalgebra and
    the algebra of leading monomials, so neither Hilbert function sees
    them.  Returns (generators, leading exponents, degrees) filtered.
    """
    kept_polys = []
    kept_leads = []
    degrees = []
    for i, f in enumerate(polys):
        d = f.total_degree()
        if d == 0:
            continue
        kept_polys.append(f)
        kept_leads.append(leads[i] if leads is not None else None)
        degrees.append(d)
    return kept_polys, kept_leads, degrees


def _require_positive_bound(bound: int) -> None:
    if bound < 1:
        raise ValueError("Hilbert bound must be at least 1, got %d" % bound)


def _resolve_hilbert_bound(polys: list[Polynomial], bound: int | None) -> int:
    """Degree limit of a Hilbert comparison of homogeneous generators.

    The exact criterion needs degree s^2 * d^(n+1); the limit is ``bound``
    (DEFAULT_HILBERT_BOUND when None) when that is lower, with a
    HilbertBoundWarning.  A bound below 1 is a ValueError.
    """
    if bound is not None:
        _require_positive_bound(bound)
    check_generators(polys)
    _require_homogeneous(polys)
    s = len(polys)
    n = polys[0].ring.nvars
    d = max(1, max(f.total_degree() for f in polys))
    exact = s * s * d ** (n + 1)
    cap = DEFAULT_HILBERT_BOUND if bound is None else bound
    limit = min(cap, exact)
    if limit < exact:
        warnings.warn(
            "Hilbert comparison truncated at degree %d (exact criterion "
            "needs degree %d); a positive verdict means 'true up to degree "
            "%d'" % (limit, exact, limit),
            HilbertBoundWarning,
            stacklevel=3,
        )
    return limit


def _initial_algebra_counts(leads, degrees, bound: int) -> tuple[int, ...]:
    """Number of distinct monomials in each degree 1..bound of the algebra
    generated by the monomials x^lead_i, of degrees d_i > 0.

    The monomials of degree t are S_t = union of (S_{t - d_i} + lead_i) over
    i, from S_0 = {1}.  Each monomial is one int with a bit field per
    variable (1 is 0), so a product is one addition; a monomial of degree t
    has no exponent above t <= bound, so fields of bound.bit_length() bits
    never carry into each other.  Only the last max(d_i) layers are kept.
    """
    width = bound.bit_length()
    steps = {
        (sum(e << (width * j) for j, e in enumerate(lead)), d)
        for lead, d in zip(leads, degrees)
    }
    window = deque([set()] * (max(degrees) - 1) + [{0}], maxlen=max(degrees))
    counts = []
    for t in range(1, bound + 1):
        layer: set = set()
        for packed, d in steps:
            layer.update(map(packed.__add__, window[-d]))
        counts.append(len(layer))
        window.append(layer)
    return tuple(counts)


def _subalgebra_matcher(polys: list[Polynomial]):
    """``matches(vector)``: whether the Hilbert function of the subalgebra
    generated by the homogeneous ``polys`` equals the HilbertVector
    ``vector`` in its degrees 1..bound; it stops at the first degree that
    differs.

    That Hilbert function does not depend on the term order, so one matcher
    serves every class: each degree's value, the rank of all power products
    of that degree, is computed the first time a comparison reaches it, and
    kept.  The power products of degree t are those of degree t - d_i times
    F_i, each multiset of generators built once, from the product with one
    copy of its last generator less; only the last max(d_i) layers are
    kept, each product with the index of its last generator.
    """
    kept, _, degrees = _positive_degree_parts(polys)
    steps = list(enumerate(zip(kept, degrees)))
    depth = max(degrees, default=1)
    one = [(0, polys[0].ring.constant(1))]
    window = deque([[]] * (depth - 1) + [one], maxlen=depth)
    known: list[int] = []

    def matches(vector: HilbertVector) -> bool:
        for t, value in enumerate(vector.values, 1):
            if t > len(known):
                layer = [
                    (i, p * f)
                    for i, (f, d) in steps
                    for j, p in window[-d]
                    if j <= i
                ]
                known.append(_rank_of_polynomials([p for _, p in layer]))
                window.append(layer)
            if value != known[t - 1]:
                return False
        return True

    return matches


def is_sagbi_hilbert(
    polys: list[Polynomial], cls: OrderClass, bound: int | None = None
) -> bool:
    """Hilbert criterion: the subalgebra and its candidate initial algebra
    must have equal Hilbert functions through the comparison bound.

    Exact up to degree s^2 * d^(n+1); with the default cap the verdict is
    'true up to the cap' and a HilbertBoundWarning is issued.
    """
    limit = _resolve_hilbert_bound(polys, bound)
    return _subalgebra_matcher(polys)(hilbert_vector(polys, cls, limit))


def hilbert_vector(
    polys: list[Polynomial], cls: OrderClass, bound: int
) -> HilbertVector:
    """Hilbert function of the leading-monomial algebra, degrees 1..bound.

    A bound below 1 is a ValueError.
    """
    _require_positive_bound(bound)
    check_generators(polys)
    _require_homogeneous(polys)
    _certified_order(polys, cls)
    _, kept_leads, degrees = _positive_degree_parts(polys, cls.leads)
    if not kept_leads:
        return HilbertVector((0,) * bound)
    return HilbertVector(_initial_algebra_counts(kept_leads, degrees, bound))


# ---------------------------------------------------------------------------
# rankings


class RankGroup(list):
    """Classes tied under a ranking criterion, with their shared score.

    ``score`` is the (dimension, normalized volume) pair for 'nicer' and
    the Hilbert vector values for 'preferable'.
    """

    def __init__(self, score, classes=()):
        super().__init__(classes)
        self.score = score


def rank_orders(
    polys: list[Polynomial],
    criterion: str = "nicer",
    bound: int | None = None,
) -> list[RankGroup]:
    """Rank all term-order classes, best first, as groups of ties.

    'nicer' compares (dimension, normalized volume) of the convex hull of
    the leading exponents; 'preferable' compares the Hilbert vectors of
    the leading-monomial algebras lexicographically (homogeneous input
    only).  Both scores depend only on the leading tuple of a class.
    """
    if criterion not in ("nicer", "preferable"):
        raise ValueError("criterion must be 'nicer' or 'preferable'")
    if criterion == "nicer":
        def score(cls: OrderClass):
            polytope = LatticePolytope(cls.leads)
            return (polytope_dim(polytope), normalized_volume(polytope))
    else:
        limit = _resolve_hilbert_bound(polys, bound)

        def score(cls: OrderClass):
            return hilbert_vector(polys, cls, limit).values

    scored = [(score(cls), cls) for cls in extract_weight_vectors(polys)]
    scored.sort(key=lambda item: item[0], reverse=True)
    groups: list[RankGroup] = []
    for value, cls in scored:
        if not groups or value != groups[-1].score:
            groups.append(RankGroup(value))
        groups[-1].append(cls)
    return groups
