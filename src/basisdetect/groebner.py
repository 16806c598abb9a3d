"""Division, Buchberger's S-pair criterion and completion.

Detection over term-order classes (:mod:`basisdetect.detect`) runs the
criterion once per class, with the class certificate weight refined to a
total order.  The verdict is constant on each class, so any certificate
gives the class answer.
"""

from __future__ import annotations

import heapq

from .polyring import Exponent, MonomialOrder, Polynomial, _Record, check_generators
from .polyring import _add_multiple, _divides


class DivisionResult(_Record):
    __slots__ = ("quotients", "remainder")

    def __init__(self, quotients: list[Polynomial], remainder: Polynomial):
        self.quotients = quotients
        self.remainder = remainder


def _exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def _cofactor(a: Exponent, b: Exponent) -> Exponent:
    """The exponent of x^a / x^b (x^b must divide x^a)."""
    return tuple(x - y for x, y in zip(a, b))


def _coprime(a: Exponent, b: Exponent) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def normal_form(
    f: Polynomial, divisors: list[Polynomial], order: MonomialOrder
) -> DivisionResult:
    """Multivariate division of f by an ordered list of divisors.

    Deterministic: at each step the first divisor whose leading exponent
    divides the current leading exponent is used; otherwise the leading
    term moves to the remainder.  Satisfies f = sum(q_i g_i) + r with no
    remainder term divisible by any leading exponent of the divisors.
    Leading exponents strictly decrease, so each quotient term is written
    once.
    """
    ring = f.ring
    info = []
    for g in divisors:
        f._check_ring(g)
        if g.is_zero():
            raise ValueError("zero divisor")
        info.append(order.leading_term(g))
    quotients = [dict() for _ in divisors]
    remainder: dict = {}
    work = dict(f.terms)
    while work:
        lead = max(work, key=order.key)
        coeff = work[lead]
        for i, (gexp, gcoeff) in enumerate(info):
            if _divides(gexp, lead):
                shift = _cofactor(lead, gexp)
                factor = coeff / gcoeff
                quotients[i][shift] = factor
                _add_multiple(work, -factor, shift, divisors[i].terms)
                break
        else:
            remainder[lead] = coeff
            del work[lead]
    return DivisionResult(
        [Polynomial(ring, q) for q in quotients], Polynomial(ring, remainder)
    )


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """Classical S-pair: both polynomials are scaled so the lcm of their
    leading monomials cancels."""
    f._check_ring(g)
    fexp, fcoeff = order.leading_term(f)
    gexp, gcoeff = order.leading_term(g)
    lcm_exp = _exp_lcm(fexp, gexp)
    terms: dict = {}
    _add_multiple(terms, 1 / fcoeff, _cofactor(lcm_exp, fexp), f.terms)
    _add_multiple(terms, -1 / gcoeff, _cofactor(lcm_exp, gexp), g.terms)
    return Polynomial(f.ring, terms)


def is_groebner_basis(polys: list[Polynomial], order: MonomialOrder) -> bool:
    """Buchberger's S-pair criterion for a fixed total order.

    Pairs with coprime leading exponents are skipped (product criterion).
    """
    check_generators(polys)
    leads = [order.leading_exponent(f) for f in polys]
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if _coprime(leads[i], leads[j]):
                continue
            spoly = s_polynomial(polys[i], polys[j], order)
            if spoly.is_zero():
                continue
            if not normal_form(spoly, polys, order).remainder.is_zero():
                return False
    return True


def buchberger(polys: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    """A reduced Groebner basis of the ideal generated by the input.

    Plain Buchberger with the product (coprime-lead) criterion; the pair
    queue is keyed by lcm total degree then lcm, so output is deterministic.
    The final basis is inter-reduced and monic, sorted by leading exponent.
    """
    check_generators(polys)
    basis = list(polys)
    leads = [order.leading_exponent(f) for f in basis]
    queue: list = []
    for i in range(len(basis)):
        for j in range(i):
            _push_pair(queue, leads, j, i)
    while queue:
        _, _, i, j = heapq.heappop(queue)
        if _coprime(leads[i], leads[j]):
            continue
        spoly = s_polynomial(basis[i], basis[j], order)
        if spoly.is_zero():
            continue
        remainder = normal_form(spoly, basis, order).remainder
        if remainder.is_zero():
            continue
        remainder = remainder.scale(1 / order.leading_coefficient(remainder))
        basis.append(remainder)
        leads.append(order.leading_exponent(remainder))
        new = len(basis) - 1
        for k in range(new):
            _push_pair(queue, leads, k, new)
    return interreduce(basis, order)


def _push_pair(queue, leads, i, j):
    lcm_exp = _exp_lcm(leads[i], leads[j])
    heapq.heappush(queue, (sum(lcm_exp), lcm_exp, i, j))


def interreduce(polys: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    """Minimalize leading terms, then fully reduce tails; monic output."""
    items = sorted(
        ((order.leading_exponent(g), g) for g in polys),
        key=lambda t: order.key(t[0]),
    )
    minimal: list = []
    for exp, g in items:
        if not any(_divides(kept, exp) for kept, _ in minimal):
            minimal.append((exp, g))
    reduced = []
    polys_only = [g for _, g in minimal]
    for idx, (exp, g) in enumerate(minimal):
        others = polys_only[:idx] + polys_only[idx + 1 :]
        if others:
            g = normal_form(g, others, order).remainder
        g = g.scale(1 / order.leading_coefficient(g))
        reduced.append(g)
    reduced.sort(key=lambda g: order.key(order.leading_exponent(g)))
    return reduced
