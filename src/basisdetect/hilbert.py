"""The Hilbert-function criterion for homogeneous generators, and the
Hilbert vectors that the 'preferable' ranking compares.

A set F of homogeneous generators is a SAGBI basis for a term order
exactly when the subalgebra it generates and the algebra of its leading
monomials have the same Hilbert function.  The criterion compares the two
functions degree by degree, up to a degree limit (``_resolve_hilbert_bound``)
that is exact at s^2 * d^(n+1) and capped by default.  Only
``detect-sagbi --method hilbert`` and ``rank --criterion preferable`` load
this module.

The Hilbert function of the algebra of leading monomials depends on the
class: ``hilbert_vector`` builds its monomials degree by degree from the
lower degrees, as packed integers (one bit field per variable).  A
single-term generator has the same lead in every class, so the monoid B
those fixed leads generate is built once, its layers B_t kept for the
classes of a run; a class adds only the leads it chooses, as S_t = B_t
united with (S_{t - d_i} + lead_i) over its other leads.  The Hilbert
function of the subalgebra does not depend on the term order (Robbiano &
Sweedler 1990): it is the rank of the power products of each degree,
which are built the same way, degree by degree from the lower degrees, as
a smaller product times one generator; it is computed once and shared by
every class it is compared with.
"""

from __future__ import annotations

import warnings
from collections import deque
from fractions import Fraction
from functools import lru_cache

from .orders import OrderClass
from .polyring import HilbertBoundWarning, Polynomial, _add_multiple, check_generators

DEFAULT_HILBERT_BOUND = 12


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


def _layers(base, steps, bound: int):
    """The monomials of each degree t = 1..bound, one set per degree, of the
    monoid generated by a monoid whose layers 0..bound are ``base`` and the
    packed ``steps`` (monomial, degree d_i > 0).

    They are S_t = base_t united with (S_{t - d_i} + step_i) over the
    steps, from S_0 = base_0 = {1}: an element of S_t that uses no step
    lies in base_t, and any other is a step plus an element of
    S_{t - d_i}.  Only the last max(d_i) layers are kept.
    """
    depth = max((d for _, d in steps), default=1)
    window = deque([()] * (depth - 1) + [base[0]], maxlen=depth)
    for t in range(1, bound + 1):
        layer = set(base[t])
        for packed, d in steps:
            layer.update(map(packed.__add__, window[-d]))
        window.append(layer)
        yield layer


def _monoid_layers(steps, bound: int) -> tuple[tuple[int, ...], ...]:
    """The monomials of each degree 0..bound of the monoid generated by the
    packed ``steps``, one tuple per degree."""
    trivial = ((0,),) + ((),) * bound
    return trivial[:1] + tuple(map(tuple, _layers(trivial, steps, bound)))


@lru_cache(maxsize=1)
def _shared_monoid(fixed: frozenset, bound: int):
    """``_monoid_layers`` of the fixed steps of a run, built once for all of
    its classes: the last (steps, bound) asked for is kept."""
    return _monoid_layers(fixed, bound)


def _subalgebra_matcher(polys: list[Polynomial]):
    """``matches(vector)``: whether the Hilbert function of the subalgebra
    generated by the homogeneous ``polys`` equals the Hilbert vector
    ``vector`` (its values in degrees 1..bound, as ``hilbert_vector``
    returns them); it stops at the first degree that differs.

    That Hilbert function does not depend on the term order, so one matcher
    serves every class: each degree's value, the rank of all power products
    of that degree, is computed the first time a comparison reaches it, and
    kept.  The power products of degree t are those of degree t - d_i times
    F_i, each multiset of generators built once, from the product with one
    copy of its last generator less; only the last max(d_i) layers are
    kept, each product with the index of its last generator.
    """
    # constant generators add only scalars, which no degree >= 1 counts
    steps = [(i, f, d) for i, f in enumerate(polys) if (d := f.total_degree())]
    depth = max((d for _, _, d in steps), default=1)
    one = [(0, polys[0].ring.constant(1))]
    window = deque([[]] * (depth - 1) + [one], maxlen=depth)
    known: list[int] = []

    def matches(vector: tuple[int, ...]) -> bool:
        for t, value in enumerate(vector, 1):
            if t > len(known):
                layer = [
                    (i, p * f)
                    for i, f, d in steps
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
) -> tuple[int, ...]:
    """Hilbert function of the leading-monomial algebra, degrees 1..bound.

    A bound below 1 is a ValueError, as are generators that are not
    homogeneous and a class whose order does not select its leads.
    """
    _require_positive_bound(bound)
    check_generators(polys)
    _require_homogeneous(polys)
    cls.certified_order(polys)
    # each lead x^e becomes one int with a bit field per variable, and its
    # degree; a monomial of degree t <= bound has no exponent above bound,
    # so fields of bound.bit_length() bits never carry into each other
    width = bound.bit_length()
    fixed, varying = set(), set()
    for f, lead in zip(polys, cls.leads):
        # the leads of constant generators are 0 and add only scalars
        if any(lead):
            group = fixed if len(f.terms) == 1 else varying
            group.add((sum(e << (width * j) for j, e in enumerate(lead)), sum(lead)))
    base = _shared_monoid(frozenset(fixed), bound)
    return tuple(map(len, _layers(base, varying, bound)))
