"""Reference code, kept as test oracles for ``basisdetect.toric``.

``toric_ideal_generators`` runs the generic Buchberger
(``basisdetect.buchberger``, on integer S-pairs) on <y_i - x^alpha_i>
under an x-eliminating block order and keeps the basis elements free of
x-variables.  The reduced Groebner basis is unique, so the production
binomial engine must return exactly the same list.

``relations_up_to_degree`` walks the column multisets depth first with an
explicit stack and keys each by ``matrix.apply``; the production version,
which builds each multiset from one of size one less, must return exactly
the same list.
"""

from __future__ import annotations

from basisdetect import Polynomial, PolynomialRing, ToricBinomial, buchberger


class EliminationOrder:
    """Block order: x-block dominates y-block, graded-lex inside each.

    It offers what ``buchberger`` reads of a ``TermOrder``: ``key``,
    ``leading_exponent`` and ``leading_term``.
    """

    def __init__(self, nx: int):
        self.nx = nx

    def key(self, exponent):
        x = exponent[: self.nx]
        y = exponent[self.nx :]
        return (sum(x), x, sum(y), y)

    def leading_exponent(self, f):
        return max(f.terms, key=self.key)

    def leading_term(self, f):
        exp = self.leading_exponent(f)
        return exp, f.terms[exp]


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


def relations_up_to_degree(matrix, max_degree: int) -> list[ToricBinomial]:
    """Binomial relations y^u - y^v with both sides of degree <= max_degree.

    Found by hashing column multisets on their exponent sums; generally NOT
    a generating set of the relation ideal, but every returned pair is a
    genuine relation, which makes this useful as a cheap failure witness
    scan before the full elimination.
    """
    s = matrix.ncols
    groups: dict = {}
    out = []
    # depth-first over multisets of size <= max_degree, each one extended
    # only at positions >= the last one it bumped
    stack = [((0,) * s, 0, 0)]
    while stack:
        u, start, size = stack.pop()
        if size < max_degree:
            for i in range(s - 1, start - 1, -1):
                bumped = list(u)
                bumped[i] += 1
                stack.append((tuple(bumped), i, size + 1))
        if not any(u):
            continue
        key = matrix.apply(u)
        for v in groups.get(key, ()):
            common = tuple(min(a, b) for a, b in zip(u, v))
            uu = tuple(a - c for a, c in zip(u, common))
            vv = tuple(b - c for b, c in zip(v, common))
            if uu != vv:
                first, second = sorted((uu, vv), key=_grlex_key, reverse=True)
                out.append(ToricBinomial(first, second))
        groups.setdefault(key, []).append(u)
    return sorted(set(out), key=lambda b: (_grlex_key(b.u), _grlex_key(b.v)))
