"""Division, Buchberger's S-pair criterion and completion.

Detection over term-order classes (:mod:`basisdetect.detect`) runs the
criterion once per class, with the class certificate weight refined to a
total order.  The verdict is constant on each class, so any certificate
gives the class answer.
"""

from __future__ import annotations

import heapq
from math import gcd, lcm
from operator import mul

from .polyring import Exponent, Polynomial, TermOrder, _Record, check_generators
from .polyring import _add_multiple, _divides, _sub


class DivisionResult(_Record):
    __slots__ = ("quotients", "remainder")

    def __init__(self, quotients: list[Polynomial], remainder: Polynomial):
        self.quotients = quotients
        self.remainder = remainder


def _exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def _coprime(a: Exponent, b: Exponent) -> bool:
    return not any(map(mul, a, b))


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
    quotients = [dict() for _ in divisors]
    remainder = _remainder(f, [_divisor(g, order) for g in divisors], order, quotients)
    return DivisionResult([Polynomial(f.ring, q) for q in quotients], remainder)


def _divisor(g: Polynomial, order: TermOrder) -> tuple:
    """g as ``_remainder`` takes it: (lead exponent, lead coefficient,
    terms)."""
    return (*order.leading_term(g), g.terms)


def _remainder(f, divisors, order, quotients=None) -> Polynomial:
    """The remainder of ``normal_form`` by divisors given by ``_divisor``;
    the quotient terms are written to ``quotients`` (one dict per divisor)
    only when that is given."""
    remainder: dict = {}
    work = dict(f.terms)
    while work:
        lead = max(work, key=order.key)
        coeff = work[lead]
        for i, (gexp, gcoeff, g) in enumerate(divisors):
            if _divides(gexp, lead):
                shift = _sub(lead, gexp)
                factor = coeff / gcoeff
                if quotients is not None:
                    quotients[i][shift] = factor
                _add_multiple(work, -factor, shift, g)
                break
        else:
            remainder[lead] = coeff
            del work[lead]
    return Polynomial(f.ring, remainder)


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


def _primitive_terms(f: Polynomial, lead: Exponent) -> dict:
    """The terms of f times the rational number that makes them coprime
    integers with a positive coefficient at ``lead``."""
    scale = lcm(*(c.denominator for c in f.terms.values()))
    terms = {e: int(c * scale) for e, c in f.terms.items()}
    content = gcd(*terms.values()) if terms[lead] > 0 else -gcd(*terms.values())
    return {e: c // content for e, c in terms.items()}


def _reduces_to_zero(work: dict, divisors: list, key) -> bool:
    """Whether division of the integer term dict ``work`` by the primitive
    ``divisors`` ((lead, terms) pairs, positive leading coefficients) ends
    in remainder zero; ``work`` is consumed.

    Each step is work = a * work - b * x^s * g, divided by its content,
    with the first divisor g whose lead divides that of work.  Scaling by
    a nonzero integer changes no exponent, so the leads are those of
    ``normal_form``; they strictly decrease, so a lead that no divisor's
    lead divides would stay in the remainder, and the answer is False at
    once.
    """
    while work:
        lead = max(work, key=key)
        for glead, g in divisors:
            if _divides(glead, lead):
                break
        else:
            return False
        common = gcd(work[lead], g[glead])
        a, b = g[glead] // common, work[lead] // common
        for e in work:
            work[e] *= a
        _add_multiple(work, -b, _sub(lead, glead), g)
        content = gcd(*work.values())
        for e in work:
            work[e] //= content
    return True


def is_groebner_basis(polys: list[Polynomial], order: TermOrder) -> bool:
    """Buchberger's S-pair criterion for a fixed total order.

    Pairs with coprime leading exponents are skipped (product criterion).
    The S-pairs and their reductions are computed on the generators made
    primitive over the integers, and the check stops at the first S-pair
    that does not reduce to zero.
    """
    check_generators(polys)
    divisors = []
    for f in polys:
        lead = order.leading_exponent(f)
        divisors.append((lead, _primitive_terms(f, lead)))
    for i, (ilead, f) in enumerate(divisors):
        for jlead, g in divisors[i + 1 :]:
            if _coprime(ilead, jlead):
                continue
            m = _exp_lcm(ilead, jlead)
            common = gcd(f[ilead], g[jlead])
            spair: dict = {}
            _add_multiple(spair, g[jlead] // common, _sub(m, ilead), f)
            _add_multiple(spair, -(f[ilead] // common), _sub(m, jlead), g)
            if not _reduces_to_zero(spair, divisors, order.key):
                return False
    return True


def buchberger(polys: list[Polynomial], order: TermOrder) -> list[Polynomial]:
    """A reduced Groebner basis of the ideal generated by the input.

    Plain Buchberger with the product (coprime-lead) and chain criteria;
    the pair queue is keyed by lcm total degree then lcm, so output is
    deterministic.  The final basis is inter-reduced and monic, sorted by
    leading exponent.
    """
    check_generators(polys)
    basis = list(polys)
    divisors = [_divisor(f, order) for f in basis]
    leads = [d[0] for d in divisors]
    queue: list = []
    pending: set = set()
    for i in range(len(basis)):
        for j in range(i):
            _push_pair(queue, pending, leads, j, i)
    while queue:
        _, lcm_exp, i, j = heapq.heappop(queue)
        pending.discard((i, j))
        if _coprime(leads[i], leads[j]) or _chain(leads, pending, i, j, lcm_exp):
            continue
        spoly = s_polynomial(basis[i], basis[j], order)
        if spoly.is_zero():
            continue
        remainder = _remainder(spoly, divisors, order)
        if remainder.is_zero():
            continue
        remainder = remainder.scale(1 / order.leading_term(remainder)[1])
        basis.append(remainder)
        divisors.append(_divisor(remainder, order))
        leads.append(divisors[-1][0])
        new = len(basis) - 1
        for k in range(new):
            _push_pair(queue, pending, leads, k, new)
    return interreduce(basis, order)


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


def interreduce(polys: list[Polynomial], order: TermOrder) -> list[Polynomial]:
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
    divisors = [_divisor(g, order) for _, g in minimal]
    for idx, (exp, g) in enumerate(minimal):
        others = divisors[:idx] + divisors[idx + 1 :]
        if others:
            g = _remainder(g, others, order)
        g = g.scale(1 / order.leading_term(g)[1])
        reduced.append(g)
    reduced.sort(key=lambda g: order.key(order.leading_exponent(g)))
    return reduced
