"""Division and Buchberger completion.

``normal_form`` is the one division in ``Fraction`` arithmetic, and
``s_polynomial`` the classical S-pair.  ``buchberger`` completes a
generating set to its reduced Groebner basis on the integer kernel of
:mod:`basisdetect.groebner`: the generators made primitive over the
integers, their S-pairs from ``_s_pair`` and the top reduction
``_top_reduce``.  Detection never completes a basis, so no ``detect-*``
or ``universal-*`` run loads this module; the toric ideals of
:mod:`basisdetect.toric` have their own binomial completion.
"""

from __future__ import annotations

import heapq

from .groebner import _coprime, _exp_lcm, _primitive, _s_pair, _top_reduce
from .polyring import Polynomial, TermOrder, _add_multiple, _divides, _Record, _sub
from .polyring import check_generators


class DivisionResult(_Record):
    __slots__ = ("quotients", "remainder")

    def __init__(self, quotients: list[Polynomial], remainder: Polynomial):
        self.quotients = quotients
        self.remainder = remainder


def normal_form(
    f: Polynomial, divisors: list[Polynomial], order: TermOrder
) -> DivisionResult:
    """Multivariate division of f by an ordered list of divisors.

    Deterministic: at each step the first divisor whose leading exponent
    divides the current leading exponent is used; otherwise the leading
    term moves to the remainder.  Satisfies f = sum(q_i g_i) + r with no
    remainder term divisible by any leading exponent of the divisors.
    Leading exponents strictly decrease, so each quotient term is written
    once.
    """
    for g in divisors:
        f._check_ring(g)
        if g.is_zero():
            raise ValueError("zero divisor")
    leads = [order.leading_term(g) for g in divisors]
    quotients = [dict() for _ in divisors]
    remainder: dict = {}
    work = dict(f.terms)
    while work:
        lead = max(work, key=order.key)
        for (gexp, gcoeff), g, q in zip(leads, divisors, quotients):
            if _divides(gexp, lead):
                shift = _sub(lead, gexp)
                q[shift] = work[lead] / gcoeff
                _add_multiple(work, -q[shift], shift, g.terms)
                break
        else:
            remainder[lead] = work.pop(lead)
    return DivisionResult(
        [Polynomial(f.ring, q) for q in quotients], Polynomial(f.ring, remainder)
    )


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    """Classical S-pair: both polynomials are scaled so the lcm of their
    leading monomials cancels."""
    f._check_ring(g)
    fexp, fcoeff = order.leading_term(f)
    gexp, gcoeff = order.leading_term(g)
    lcm_exp = _exp_lcm(fexp, gexp)
    terms: dict = {}
    _add_multiple(terms, 1 / fcoeff, _sub(lcm_exp, fexp), f.terms)
    _add_multiple(terms, -1 / gcoeff, _sub(lcm_exp, gexp), g.terms)
    return Polynomial(f.ring, terms)


def buchberger(polys: list[Polynomial], order: TermOrder) -> list[Polynomial]:
    """A reduced Groebner basis of the ideal generated by the input.

    Plain Buchberger with the product (coprime-lead) and chain criteria;
    the pair queue is keyed by lcm total degree then lcm, so output is
    deterministic.  It runs on the integer kernel of ``is_groebner_basis``:
    an S-pair is only top-reduced, and what is left joins the basis made
    primitive.  The tails are reduced once, at the end: inter-reduction
    through ``normal_form`` gives the reduced basis, which is unique,
    monic and sorted by leading exponent.
    """
    check_generators(polys)
    divisors = [_primitive(f.terms, order.leading_exponent(f)) for f in polys]
    leads = [lead for lead, _ in divisors]
    queue: list = []
    pending: set = set()
    for i in range(len(divisors)):
        for j in range(i):
            _push_pair(queue, pending, leads, j, i)
    while queue:
        _, lcm_exp, i, j = heapq.heappop(queue)
        pending.discard((i, j))
        if _coprime(leads[i], leads[j]) or _chain(leads, pending, i, j, lcm_exp):
            continue
        rest = _top_reduce(_s_pair(divisors[i], divisors[j]), divisors, order.key)
        if not rest:
            continue
        divisors.append(_primitive(rest, max(rest, key=order.key)))
        leads.append(divisors[-1][0])
        new = len(divisors) - 1
        for k in range(new):
            _push_pair(queue, pending, leads, k, new)
    ring = polys[0].ring
    return _interreduce([Polynomial(ring, g) for _, g in divisors], order)


def _push_pair(queue, pending, leads, i, j):
    lcm_exp = _exp_lcm(leads[i], leads[j])
    heapq.heappush(queue, (sum(lcm_exp), lcm_exp, i, j))
    pending.add((i, j))


def _chain(leads, pending, i, j, lcm_exp) -> bool:
    """Buchberger's chain criterion: a third lead divides the lcm of the
    leads of i and j while its pairs with i and with j are no longer
    pending.  As in Gebauer and Moeller's criterion B, the third lead's
    lcm with each of the two must differ from that lcm (which also rules
    out i and j themselves): skipping the pairs that fail only this test
    sent the coefficients of one small random system to about 10^45000
    on the way to the same basis."""
    return any(
        _divides(lead, lcm_exp)
        and _exp_lcm(lead, leads[i]) != lcm_exp
        and _exp_lcm(lead, leads[j]) != lcm_exp
        and (min(i, k), max(i, k)) not in pending
        and (min(j, k), max(j, k)) not in pending
        for k, lead in enumerate(leads)
    )


def _interreduce(polys: list[Polynomial], order: TermOrder) -> list[Polynomial]:
    """Minimalize leading terms, then reduce each tail by the others with
    ``normal_form``; monic output, sorted by leading exponent."""
    items = sorted(
        ((order.leading_exponent(g), g) for g in polys),
        key=lambda t: order.key(t[0]),
    )
    minimal: list = []
    for exp, g in items:
        if not any(_divides(kept, exp) for kept, _ in minimal):
            minimal.append((exp, g))
    reduced = []
    for idx, (exp, g) in enumerate(minimal):
        others = [h for _, h in minimal[:idx] + minimal[idx + 1 :]]
        g = normal_form(g, others, order).remainder
        reduced.append(g.scale(1 / g.terms[exp]))
    return reduced
