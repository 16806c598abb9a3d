"""Subduction and the subduction criterion for SAGBI bases.

A set F is a SAGBI basis of the subalgebra it generates, for a term order,
exactly when every S-polynomial lifted from a generating relation among
the leading monomials subduces to zero.  This module implements that
criterion; the per-class detection loop is in :mod:`basisdetect.detect`.
The Hilbert-function criterion is in :mod:`basisdetect.hilbert` and the
rankings in :mod:`basisdetect.rank`, so a subduction run compiles
neither.  ``hilbert_vector`` and ``rank_orders`` are still read from this
module by the benchmark's tracer, so this module's ``__getattr__`` hands
out those two names from their modules, and loads them for nothing else.

Subduction and the lifted relations rest on power products
prod(F_i ** v_i) of the generators, each built as a smaller product times
one generator and kept in a table keyed by the multiplicity vector v;
the leading coefficients they scale by are read off the products
themselves.

The subduction criterion makes one pass per class: one matrix of leading
exponents and one product table serve every lift and every subduction
of the class.  Its relations come from one source, ``_RelationSource``,
which hands each class those of degree <= 3 first and then the
generating set of the relation ideal, computed only once every low
relation has subduced to zero.  The relations depend only on the
lattice ker A of the lead matrix A, so in one serial run of
``detect.verdicts`` the classes of one lattice share their lists.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from . import polyring, toric
from .orders import OrderClass
from .polyring import (
    Polynomial,
    SubductionLimitError,
    TermOrder,
    _add_multiple,
    _Record,
    check_generators,
)

# still public here, where it was defined before it moved to polyring
HilbertBoundWarning = polyring.HilbertBoundWarning
# steps of one subduction before SubductionLimitError (suspected
# non-termination); ``_subduce`` reads it when it runs
SUBDUCTION_CAP = 10_000


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


def subduction(
    f: Polynomial, polys: list[Polynomial], order: TermOrder
) -> SubductionResult:
    """Rewrite the leading term of f as a monomial in the leading terms of
    the generators, repeatedly, until that fails or f vanishes.

    Each step subtracts c * prod(F_i ** v_i) where A v matches the current
    leading exponent (A = leading exponents of the generators), so the
    leading term cancels exactly and strictly decreases in the order.
    More than SUBDUCTION_CAP steps is a SubductionLimitError.
    """
    check_generators(polys)
    if f.ring != polys[0].ring:
        raise ValueError("polynomial ring differs from generator ring")
    matrix = toric.ExponentMatrix([order.leading_exponent(g) for g in polys])
    return _subduce(f, polys, order, matrix, {})


def _subduce(f, polys, order, matrix, cache) -> SubductionResult:
    """The subduction loop, given the generators' leading exponents as the
    columns of ``matrix`` and a table of their power products, ``cache``,
    that it extends."""
    steps: list[tuple[Fraction, tuple[int, ...]]] = []
    work = dict(f.terms)
    previous = None
    while work:
        if len(steps) >= SUBDUCTION_CAP:
            raise SubductionLimitError(
                "subduction did not finish within %d steps" % SUBDUCTION_CAP
            )
        lead = max(work, key=order.key)
        # each step cancels the leading term, so the leads strictly decrease
        assert previous is None or order.key(lead) < order.key(previous)
        v = toric.solve_monomial_membership(matrix, lead)
        if v is None:
            break
        product = _power_product(polys, v, cache)
        scale = work[lead] / product.terms[lead]
        _add_multiple(work, -scale, None, product.terms)
        steps.append((scale, v))
        previous = lead
    return SubductionResult(Polynomial(f.ring, work), steps)


def _relation_spoly(
    polys: list[Polynomial], u, v, lead, cache: dict
) -> Polynomial:
    """Lift y^u - y^v to generators, scaled so that their leading terms, at
    the exponent ``lead`` = A u = A v, cancel."""
    left = _power_product(polys, u, cache)
    right = _power_product(polys, v, cache)
    return left._plus(-left.terms[lead] / right.terms[lead], right)


class _RelationSource:
    """The relations whose lifts the subduction criterion subduces, for the
    classes of one run.

    The relations of a lead matrix depend only on its lattice ker A (see
    ``toric._lattice_key``), so the lists of a lattice that two or more of
    the classes share are stored for the others, and dropped when the last
    of them takes them.  Each class's key is computed once, here, and kept
    only for the shared lattices; a source built over no classes shares
    nothing.
    """

    def __init__(self, classes=()):
        keys = {
            cls.leads: toric._lattice_key(toric.ExponentMatrix(cls.leads))
            for cls in classes
        }
        counts = Counter(keys.values())
        self._keys = {leads: k for leads, k in keys.items() if counts[k] > 1}
        # lattice -> (its classes still to come, low, rest), the two lists
        # None until computed
        self._lists = {k: (n, None, None) for k, n in counts.items() if n > 1}

    def of(self, matrix: toric.ExponentMatrix):
        """The relations of the one class whose lead matrix is ``matrix``:
        those of degree <= 3 first, then the generating-set binomials not
        among them, computed only once every low relation was taken."""
        key = self._keys.pop(matrix.columns, None)
        waiting, low, rest = self._lists.pop(key, (1, None, None))
        waiting -= 1  # the lists are kept only for a class still to come
        if low is None:
            low = toric.relations_up_to_degree(matrix, 3)
        if waiting:
            self._lists[key] = (waiting, low, rest)
        yield from low
        if rest is None:
            seen = set(low)
            rest = [b for b in toric.toric_ideal_generators(matrix) if b not in seen]
            if waiting:
                self._lists[key] = (waiting, low, rest)
        yield from rest


def _sagbi_failure_witness(
    polys: list[Polynomial], cls: OrderClass, relations: _RelationSource
) -> Polynomial | None:
    """First lifted relation whose subduction remainder is nonzero, if any.

    A nonzero remainder for any single relation already disproves the
    basis property, so cheap low-degree relations are tried before the
    full elimination-based generating set is computed.  The class's
    leading exponents and one product table serve every lift and every
    subduction; the relations come from ``relations``, which may have
    them from another class of the same lattice, so each is checked
    against this class's matrix.
    """
    check_generators(polys)
    order = cls.certified_order(polys)
    matrix = toric.ExponentMatrix(cls.leads)
    cache: dict = {}
    for binomial in relations.of(matrix):
        lead = matrix.apply(binomial.u)
        if matrix.apply(binomial.v) != lead:
            raise AssertionError("relation of another lattice")
        spoly = _relation_spoly(polys, binomial.u, binomial.v, lead, cache)
        result = _subduce(spoly, polys, order, matrix, cache)
        if not result.remainder.is_zero():
            return spoly
    return None


def is_sagbi_subduction(
    polys: list[Polynomial],
    cls: OrderClass,
    *,
    shared: _RelationSource | None = None,
) -> bool:
    """Subduction criterion: every lifted generating relation of the
    leading monomials must subduce to zero.  ``shared`` is the run's
    ``_RelationSource``, which ``detect.verdicts`` builds; without it the
    class takes an empty source, which shares nothing."""
    relations = _RelationSource() if shared is None else shared
    return _sagbi_failure_witness(polys, cls, relations) is None


def __getattr__(name: str):
    # the Hilbert and ranking names the benchmark's tracer reads from this
    # module
    if name == "hilbert_vector":
        from .hilbert import hilbert_vector

        return hilbert_vector
    if name == "rank_orders":
        from .rank import rank_orders

        return rank_orders
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
