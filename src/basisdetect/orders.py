"""Enumeration of term-order equivalence classes for a polynomial set.

Two nonnegative weight vectors are equivalent for a set F when they select
the same leading exponent in every member of F.  Each class corresponds to
a choice of one support exponent per polynomial (a leading tuple) whose
open selection cone meets the nonnegative orthant; we enumerate candidate
tuples and certify each with an exact LP that either produces an interior
integer weight or proves the cone empty.

The lattice-polytope geometry that ranks the classes is in
:mod:`basisdetect.rank`.  ``normalized_volume`` and ``polytope_dim`` are
still read from this module by the benchmark's tracer, so this module's
``__getattr__`` hands out those two names from ``rank``; it loads ``rank``
for nothing else, so enumeration never compiles the ranking geometry.
"""

from __future__ import annotations

from . import lp
from .polyring import Exponent, Polynomial, TermOrder, _FrozenRecord, check_generators

LeadingTuple = tuple[Exponent, ...]


class OrderClass(_FrozenRecord):
    """One equivalence class: chosen leading exponents plus a certificate.

    The weight strictly selects ``leads[i]`` over every other support
    exponent of the i-th polynomial, so the class semantics do not depend
    on the lex refinement.
    """

    __slots__ = ("leads", "weight")

    def __init__(self, leads: LeadingTuple, weight: tuple[int, ...]):
        self._set(leads, weight)

    def order(self) -> TermOrder:
        return TermOrder(self.weight)

    def certified_order(self, polys: list[Polynomial]) -> TermOrder:
        """``order()``, after checking that it selects this class's leads
        in ``polys``; a ValueError otherwise."""
        order = self.order()
        if leading_tuple(polys, order) != self.leads:
            raise ValueError("order class is not certified for these polynomials")
        return order


def _cone_rows(f: Polynomial, lead: Exponent) -> list[list[int]]:
    """The rows ``u - lead, 1, 0`` of ``lp.cone_weight``, u in ``f.terms``."""
    return [[a - b for a, b in zip(u, lead)] + [1, 0] for u in f.terms if u != lead]


def _cone(rows: list, n: int):
    """``lp.cone_weight(rows, n)``; without rows every weight qualifies,
    and ``lp`` is not loaded for it."""
    return lp.cone_weight(rows, n) if rows else ((1,) * n, None)


def cone_feasibility(polys: list[Polynomial], leads) -> tuple[int, ...] | None:
    """Integer weight strictly selecting the given leading tuple, or None.

    Solves max epsilon s.t. <w, lead_i - u> >= epsilon for every competing
    support exponent u, 0 <= w_j <= 1, with ``lp.cone_weight``.
    """
    check_generators(polys)
    leads = tuple(tuple(e) for e in leads)
    if len(leads) != len(polys):
        raise ValueError("leading tuple length differs from polynomial count")
    rows = []
    for f, lead in zip(polys, leads):
        if lead not in f.terms:
            raise ValueError("%r is not in the support of %r" % (lead, f))
        rows += _cone_rows(f, lead)
    return _cone(rows, polys[0].ring.nvars)[0]


def leading_tuple(polys: list[Polynomial], order: TermOrder) -> LeadingTuple:
    """Leading exponents of each polynomial under a refined total order."""
    return tuple(order.leading_exponent(f) for f in polys)


def _contradictions(polys: list[Polynomial], candidates) -> list:
    """Every pair ((i, a), (k, b)), i < k, of candidate leads a of f_i and
    b != a of f_k with b in the support of f_i and a in that of f_k: no
    weight has w.a > w.b > w.a."""
    return [
        ((i, a), (k, b))
        for k, f in enumerate(polys) for i in range(k)
        for a in candidates[i] if a in f.terms
        for b in candidates[k] if b != a and b in polys[i].terms
    ]


def extract_weight_vectors(polys: list[Polynomial]) -> list[OrderClass]:
    """All term-order equivalence classes of F, each with a certified weight.

    Per-polynomial choices that are never weight-maximal are pruned with a
    single-polynomial feasibility test, then the product of the candidates
    is walked depth first.  A tuple's program joins the rows of its leads,
    built once per candidate, in the order ``cone_feasibility`` uses.  No
    program is solved for a tuple that contains a core, leads that no
    weight gives together: two leads that rank two shared monomials both
    ways, or the leads whose rows carry the certificate of an empty cone.
    Output is sorted by leading tuple and duplicate-free.
    """
    check_generators(polys)
    n = polys[0].ring.nvars
    blocks = []
    for f in polys:
        rows = ((u, _cone_rows(f, u)) for u in sorted(f.terms))
        blocks.append({u: r for u, r in rows if _cone(r, n)[0]})
    cores = [[] for _ in polys]  # by their last generator
    for core in _contradictions(polys, blocks):
        cores[core[-1][0]].append(core)
    classes = []
    stack = [()]  # prefixes, popped in product order, so classes come sorted
    while stack:
        combo = stack.pop()
        k = len(combo)
        if k and any(all(combo[i] == u for i, u in c) for c in cores[k - 1]):
            continue
        if k < len(polys):
            stack += [combo + (u,) for u in reversed(blocks[k])]
            continue
        weight, core = _cone([r for b, u in zip(blocks, combo) for r in b[u]], n)
        if weight is not None:
            classes.append(OrderClass(combo, weight))
            continue
        owner = [i for i, u in enumerate(combo) for _ in blocks[i][u]]
        owners = sorted({owner[r] for r in core})
        cores[owners[-1]].append(tuple((i, combo[i]) for i in owners))
        # the prefixes stacked past the core's last generator all contain it
        while stack and len(stack[-1]) > owners[-1] + 1:
            stack.pop()
    return classes


def __getattr__(name: str):
    # the two ranking names the benchmark's tracer reads from this module
    if name in ("normalized_volume", "polytope_dim"):
        from . import rank

        return getattr(rank, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
