"""Toric ideal of relations among monomials, and monoid membership.

Given the leading exponents alpha_1..alpha_s (columns of a nonnegative
integer matrix A), the relation ideal consists of all polynomials P in
y_1..y_s with P(x^alpha_1, ..., x^alpha_s) = 0.  It is generated by
binomials y^u - y^v with A u = A v; a generating set is computed by
eliminating the x-variables from <y_i - x^alpha_i> with a block order
(Sturmfels, *Groebner Bases and Convex Polytopes*, ch. 4).  Every
polynomial in that computation is a binomial with coefficients 1 and -1,
so the Buchberger algorithm here works on pairs of exponent vectors only,
with the product and chain criteria to skip pairs.

``relations_up_to_degree`` lists the relations of low degree directly: the
column multisets up to that size, from ``combinations_with_replacement``,
grouped by the sum of their columns.

``solve_monomial_membership`` decides whether a monomial x^b lies in the
multiplicative monoid generated by the x^alpha_i, i.e. solves A v = b over
nonnegative integers by bounded depth-first search.
"""

from __future__ import annotations

import heapq
from itertools import combinations_with_replacement

from .polyring import Exponent, _divides, _FrozenRecord


class ExponentMatrix(_FrozenRecord):
    """Nonnegative integer matrix stored by columns (one per generator)."""

    __slots__ = ("columns",)

    def __init__(self, columns):
        cols = tuple(tuple(int(x) for x in c) for c in columns)
        if not cols:
            raise ValueError("matrix needs at least one column")
        if len({len(c) for c in cols}) != 1:
            raise ValueError("columns of mixed length")
        if any(x < 0 for c in cols for x in c):
            raise ValueError("entries must be nonnegative")
        self._set(cols)

    @property
    def nrows(self) -> int:
        return len(self.columns[0])

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def apply(self, v) -> Exponent:
        """The matrix-vector product A v as an exponent tuple."""
        out = [0] * self.nrows
        for vi, col in zip(v, self.columns):
            if vi:
                for r, a in enumerate(col):
                    out[r] += vi * a
        return tuple(out)


class ToricBinomial(_FrozenRecord):
    """A relation y^u - y^v with disjoint supports and A u = A v."""

    __slots__ = ("u", "v")

    def __init__(self, u: tuple[int, ...], v: tuple[int, ...]):
        self._set(u, v)


def _grlex_key(e) -> tuple:
    return (sum(e), e)


# The binomial engine below stores a monomial x^a y^b (n x-variables) as
# the flat tuple (|a|, a_1..a_n, |b|, b_1..b_s).  Plain tuple comparison is
# then the x-eliminating block order (graded-lex on x, then graded-lex on
# y), and a monomial divides another exactly when it is entrywise smaller.
# Shifts a - l + t keep both block degrees correct because they are linear;
# the lcm is not, so it recomputes them.


def _flat(x, y) -> tuple:
    return (sum(x), *x, sum(y), *y)


def _support(e) -> int:
    """Bit k set when entry k is nonzero: a monomial can divide another only
    when its support mask lies inside the other's."""
    mask = 0
    for k, p in enumerate(e):
        if p:
            mask |= 1 << k
    return mask


def _lcm(a, b, nx: int) -> tuple:
    m = [p if p >= q else q for p, q in zip(a, b)]
    m[0] = sum(m[1 : nx + 1])
    m[nx + 1] = sum(m[nx + 2 :])
    return tuple(m)


def _shift(a, lead, tail) -> tuple:
    """The monomial a / x^lead * x^tail (lead must divide a)."""
    return tuple(p - q + r for p, q, r in zip(a, lead, tail))


class _BinomialBasis:
    """A growing Groebner basis of binomials x^lead - x^tail, with the queue
    of its S-pairs that are still to be treated.

    Pairs are taken by total degree of the lcm, then smallest lcm, and
    skipped by the product criterion (coprime leads, never queued) and
    Buchberger's chain criterion.
    """

    def __init__(self, nx: int):
        self.nx = nx
        self.leads: list[tuple] = []
        self.tails: list[tuple] = []
        self.masks: list[int] = []
        self.queue: list = []
        self.pending: set = set()

    def add(self, lead, tail) -> None:
        """Append x^lead - x^tail and queue its pairs whose leads share a
        variable."""
        nx, leads, masks = self.nx, self.leads, self.masks
        j = len(leads)
        leads.append(lead)
        self.tails.append(tail)
        masks.append(_support(lead))
        variables = ~(1 | 1 << (nx + 1))  # all but the two degree entries
        for i in range(j):
            if masks[i] & masks[j] & variables:
                m = _lcm(leads[i], lead, nx)
                heapq.heappush(self.queue, (m[0] + m[nx + 1], m, i, j))
                self.pending.add((i, j))

    def redundant(self, i: int, j: int, m) -> bool:
        """Chain criterion: a third lead divides m = lcm(l_i, l_j) while its
        pairs with i and with j are no longer pending."""
        pending = self.pending
        outside = ~(self.masks[i] | self.masks[j])
        for k, mask in enumerate(self.masks):
            if (
                not mask & outside
                and k != i
                and k != j
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
                and _divides(self.leads[k], m)
            ):
                return True
        return False

    def reduce(self, a, b):
        """Top-reduce x^a - x^b until no basis lead divides its lead: the
        result as (lead, tail), or None when it becomes zero."""
        while a != b:
            if a < b:
                a, b = b, a
            ma = _support(a)
            for lead, tail, mask in zip(self.leads, self.tails, self.masks):
                if not mask & ~ma and _divides(lead, a):
                    a = _shift(a, lead, tail)
                    break
            else:
                return a, b
        return None


def _binomial_groebner(gens, nx: int) -> list[tuple[tuple, tuple]]:
    """The reduced Groebner basis elements free of x, as (lead, tail) pairs
    sorted by lead.

    Buchberger on binomials x^lead - x^tail, whose coefficients are 1 and
    -1 throughout: the S-pair of two elements is x^(m - l_j + t_j) -
    x^(m - l_i + t_i) with m the lcm of their leads, and reduction only
    shifts exponents.
    """
    basis = _BinomialBasis(nx)
    for lead, tail in gens:
        basis.add(lead, tail)
    while basis.queue:
        _, m, i, j = heapq.heappop(basis.queue)
        basis.pending.discard((i, j))
        if basis.redundant(i, j, m):
            continue
        reduced = basis.reduce(
            _shift(m, basis.leads[j], basis.tails[j]),
            _shift(m, basis.leads[i], basis.tails[i]),
        )
        if reduced is not None:
            basis.add(*reduced)
    return _interreduce_x_free(basis.leads, basis.tails)


def _interreduce_x_free(leads, tails) -> list[tuple[tuple, tuple]]:
    """Keep the x-free elements with minimal leads, then fully reduce each
    tail by the other leads.  An x-free lead has an x-free tail, because
    the order compares x-degrees first, so only these leads matter."""
    minimal: list[tuple] = []
    minimal_tails: list[tuple] = []
    for lead, tail in sorted(
        (lead, tail) for lead, tail in zip(leads, tails) if lead[0] == 0
    ):
        if not any(_divides(kept, lead) for kept in minimal):
            minimal.append(lead)
            minimal_tails.append(tail)
    out = []
    for lead, tail in zip(minimal, minimal_tails):
        while True:
            for other, other_tail in zip(minimal, minimal_tails):
                if _divides(other, tail):
                    tail = _shift(tail, other, other_tail)
                    break
            else:
                break
        out.append((lead, tail))
    return out


def toric_ideal_generators(matrix: ExponentMatrix) -> list[ToricBinomial]:
    """A finite binomial generating set of the relation ideal of A.

    The reduced Groebner basis of the relation ideal, obtained by
    eliminating the x-variables from <y_i - x^alpha_i> under a block order
    with a binomial Buchberger on exponent vectors (no coefficients).
    Binomials are oriented with y^u the graded-lex lead and sorted by u
    in graded-lex order (no two share a lead); every one carries the
    certificate A u = A v.
    """
    n, s = matrix.nrows, matrix.ncols
    zero_x = (0,) * n
    gens = []
    for i, col in enumerate(matrix.columns):
        y = _flat(zero_x, tuple(1 if j == i else 0 for j in range(s)))
        x = _flat(col, (0,) * s)
        gens.append((y, x) if y > x else (x, y))
    out = []
    for lead, tail in _binomial_groebner(gens, n):
        u, v = lead[n + 2 :], tail[n + 2 :]
        if matrix.apply(u) != matrix.apply(v):
            raise AssertionError("elimination produced a non-relation")
        out.append(ToricBinomial(u, v))
    return out


def relations_up_to_degree(matrix: ExponentMatrix, max_degree: int) -> list[ToricBinomial]:
    """Binomial relations y^u - y^v with both sides of degree <= max_degree.

    Found by hashing column multisets on their exponent sums; generally NOT
    a generating set of the relation ideal, but every returned pair is a
    genuine relation, which makes this useful as a cheap failure witness
    scan before the full elimination.
    """
    s, columns = matrix.ncols, matrix.columns
    groups: dict = {}
    out = set()
    for size in range(1, max_degree + 1):
        for combo in combinations_with_replacement(range(s), size):
            u = tuple(map(combo.count, range(s)))
            key = tuple(map(sum, zip(*map(columns.__getitem__, combo))))
            # two distinct multisets stay distinct without their common part
            for v in groups.get(key, ()):
                common = tuple(min(a, b) for a, b in zip(u, v))
                uu = tuple(a - c for a, c in zip(u, common))
                vv = tuple(b - c for b, c in zip(v, common))
                first, second = sorted((uu, vv), key=_grlex_key, reverse=True)
                out.add(ToricBinomial(first, second))
            groups.setdefault(key, []).append(u)
    return sorted(out, key=lambda b: (_grlex_key(b.u), _grlex_key(b.v)))


def solve_monomial_membership(matrix: ExponentMatrix, target) -> tuple[int, ...] | None:
    """Some v >= 0 with A v = target, or None when no solution exists.

    Depth-first search over the columns in decreasing total-degree order,
    trying large multiplicities first; branches whose residual goes
    negative, or whose positive residual rows cannot be covered by the
    remaining columns, are pruned.
    """
    b = tuple(int(x) for x in target)
    if len(b) != matrix.nrows:
        raise ValueError("target length differs from row count")
    if any(x < 0 for x in b):
        raise ValueError("target entries must be nonnegative")
    s = matrix.ncols
    cols = sorted(range(s), key=lambda j: (-sum(matrix.columns[j]), j))
    # rows that can still be decreased by columns from position k onward
    coverage = [0] * (s + 1)
    for k in range(s - 1, -1, -1):
        mask = coverage[k + 1]
        for r, a in enumerate(matrix.columns[cols[k]]):
            if a:
                mask |= 1 << r
        coverage[k] = mask

    solution = [0] * s
    if _search(matrix.columns, cols, coverage, solution, 0, b):
        return tuple(solution)
    return None


def _search(columns, cols, coverage, solution, k: int, residual) -> bool:
    """Assign multiplicities to the columns cols[k:] so that they sum to
    the residual, writing them into ``solution``; False when impossible.

    Module level rather than nested: a nested recursive helper refers to
    itself through its closure, a cycle that outlives every call.
    """
    if all(x == 0 for x in residual):
        return True
    if k == len(cols):
        return False
    mask = coverage[k]
    if any(x and not (mask >> r) & 1 for r, x in enumerate(residual)):
        return False
    col = columns[cols[k]]
    if all(a == 0 for a in col):
        return _search(columns, cols, coverage, solution, k + 1, residual)
    bound = min(x // a for x, a in zip(residual, col) if a)
    for value in range(bound, -1, -1):
        nxt = tuple(x - value * a for x, a in zip(residual, col))
        solution[cols[k]] = value
        if _search(columns, cols, coverage, solution, k + 1, nxt):
            return True
    solution[cols[k]] = 0
    return False
