"""Reference Hilbert functions, kept as a test oracle for ``hilbert_vector``
and ``is_sagbi_hilbert``.

The monomial algebra is counted the slow way: every multiplicity vector v
of each weighted degree is listed, and the distinct products A v are
counted.  The Hilbert criterion recomputes the subalgebra's ranks for the
class it checks, one degree after the other, and stops at the first degree
where the two functions differ.  Its power products are its own, each
prod(F_i ** v_i) taken with ``Polynomial.__pow__`` and ``*`` for every
listed v, so that no product comes from the code under test, and ranked
by its own ``Fraction`` elimination.  The oracle reads nothing private of
``basisdetect``: its input checks go through ``Polynomial.is_homogeneous``
and ``leading_tuple``.
"""

from __future__ import annotations

from fractions import Fraction

from basisdetect import ExponentMatrix, Polynomial, leading_tuple
from basisdetect.orders import OrderClass


def _checked_parts(polys: list[Polynomial], cls: OrderClass):
    """The generators of positive degree, their leads under the class
    order and their degrees; constants add only scalars, which no degree
    >= 1 counts.  Inhomogeneous generators, or a class that does not
    certify its leads, are a ValueError."""
    if not all(f.is_homogeneous() for f in polys):
        raise ValueError("Hilbert functions need homogeneous generators")
    if leading_tuple(polys, cls.order()) != cls.leads:
        raise ValueError("order class is not certified for these polynomials")
    parts = [(f, lead) for f, lead in zip(polys, cls.leads) if f.total_degree()]
    kept = [f for f, _ in parts]
    return kept, [lead for _, lead in parts], [f.total_degree() for f in kept]


def rank(polys: list[Polynomial]) -> int:
    """Rank of the coefficient matrix: each row is reduced at its smallest
    exponent by the pivot row kept for that exponent, until it vanishes or
    becomes the pivot of a new exponent."""
    pivots: dict = {}
    for f in polys:
        row = {e: Fraction(c) for e, c in f.terms.items()}
        while row:
            smallest = min(row)
            pivot = pivots.get(smallest)
            if pivot is None:
                pivots[smallest] = row
                break
            factor = row[smallest] / pivot[smallest]
            for e, c in pivot.items():
                value = row.get(e, 0) - factor * c
                if value:
                    row[e] = value
                else:
                    row.pop(e, None)
    return len(pivots)


def graded_multiplicities(degrees: list[int], total: int):
    """All nonnegative integer vectors v with sum(v_i * degrees_i) = total,
    in decreasing lexicographic order."""
    out: list[tuple[int, ...]] = []
    _walk(degrees, 0, total, [0] * len(degrees), out)
    return out


def _walk(degrees, i: int, rest: int, v: list, out: list) -> None:
    if i == len(degrees):
        if rest == 0:
            out.append(tuple(v))
        return
    d = degrees[i]
    for k in range(rest // d, -1, -1):
        v[i] = k
        _walk(degrees, i + 1, rest - k * d, v, out)
    v[i] = 0


def initial_algebra_hilbert(matrix: ExponentMatrix, degrees, total: int) -> int:
    """Hilbert function of the monomial algebra spanned by the columns."""
    seen = set()
    for v in graded_multiplicities(list(degrees), total):
        seen.add(matrix.apply(v))
    return len(seen)


def power_product(polys: list[Polynomial], v) -> Polynomial:
    product = polys[0].ring.constant(1)
    for f, k in zip(polys, v):
        product = product * f**k
    return product


def subalgebra_hilbert(polys: list[Polynomial], degrees, total: int) -> int:
    """Hilbert function of the generated subalgebra in one degree."""
    products = [
        power_product(polys, v)
        for v in graded_multiplicities(list(degrees), total)
    ]
    return rank(products)


def hilbert_vector(
    polys: list[Polynomial], cls: OrderClass, bound: int
) -> tuple[int, ...]:
    _, kept_leads, degrees = _checked_parts(polys, cls)
    if not kept_leads:
        return (0,) * bound
    matrix = ExponentMatrix(kept_leads)
    return tuple(
        initial_algebra_hilbert(matrix, degrees, t) for t in range(1, bound + 1)
    )


def is_sagbi_hilbert(polys: list[Polynomial], cls: OrderClass, limit: int) -> bool:
    kept, kept_leads, degrees = _checked_parts(polys, cls)
    if not kept:
        return True
    matrix = ExponentMatrix(kept_leads)
    for t in range(1, limit + 1):
        if initial_algebra_hilbert(matrix, degrees, t) != subalgebra_hilbert(
            kept, degrees, t
        ):
            return False
    return True
