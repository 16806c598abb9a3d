"""Reference elimination, kept as a test oracle for ``toric_ideal_generators``.

Runs the generic ``Fraction`` Buchberger (``basisdetect.buchberger``) on
<y_i - x^alpha_i> under an x-eliminating block order and keeps the basis
elements free of x-variables.  The reduced Groebner basis is unique, so the
production binomial engine must return exactly the same list.
"""

from __future__ import annotations

from basisdetect import Polynomial, PolynomialRing, ToricBinomial, buchberger
from basisdetect.polyring import MonomialOrder


class EliminationOrder(MonomialOrder):
    """Block order: x-block dominates y-block, graded-lex inside each."""

    def __init__(self, nx: int):
        self.nx = nx

    def key(self, exponent):
        x = exponent[: self.nx]
        y = exponent[self.nx :]
        return (sum(x), x, sum(y), y)


def _grlex_key(e) -> tuple:
    return (sum(e), e)


def toric_ideal_generators(matrix) -> list[ToricBinomial]:
    """The x-free part of the reduced Groebner basis of <y_i - x^alpha_i>,
    oriented with y^u the graded-lex lead and sorted by (u, v)."""
    n, s = matrix.nrows, matrix.ncols
    ring = PolynomialRing(
        tuple("x%d" % (i + 1) for i in range(n))
        + tuple("y%d" % (i + 1) for i in range(s))
    )
    gens = []
    for i, col in enumerate(matrix.columns):
        yexp = (0,) * n + tuple(1 if j == i else 0 for j in range(s))
        xexp = col + (0,) * s
        gens.append(Polynomial(ring, {yexp: 1, xexp: -1}))
    out = []
    for g in buchberger(gens, EliminationOrder(n)):
        exps = list(g.terms)
        if any(e[j] for e in exps for j in range(n)):
            continue
        if len(exps) != 2:
            raise AssertionError("non-binomial element in toric elimination")
        if sorted(g.terms.values()) != [-1, 1]:
            raise AssertionError("non-unimodular binomial coefficients")
        first, second = (e[n:] for e in sorted(exps, key=_grlex_key, reverse=True))
        common = tuple(min(a, b) for a, b in zip(first, second))
        u = tuple(a - c for a, c in zip(first, common))
        v = tuple(b - c for b, c in zip(second, common))
        if matrix.apply(u) != matrix.apply(v):
            raise AssertionError("elimination produced a non-relation")
        out.append(ToricBinomial(u, v))
    return sorted(set(out), key=lambda b: (_grlex_key(b.u), _grlex_key(b.v)))
