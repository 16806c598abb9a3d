"""Buchberger's S-pair criterion, on an integer kernel.

Detection over term-order classes (:mod:`basisdetect.detect`) runs the
criterion once per class, with the class certificate weight refined to a
total order.  The verdict is constant on each class, so any certificate
gives the class answer.

The criterion and the completion of :mod:`basisdetect.completion` share
one integer kernel: the generators made primitive over the integers,
their S-pairs from ``_s_pair`` and the top reduction ``_top_reduce``.
The division ``normal_form``, ``s_polynomial`` and ``buchberger`` are in
:mod:`basisdetect.completion`, which detection never loads; they are
still read from this module by the benchmark's tracer, so this module's
``__getattr__`` hands out those three names from there, and loads it for
nothing else.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .polyring import Exponent, Polynomial, TermOrder, _add_multiple, _divides, _sub
from .polyring import check_generators


def _exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def _coprime(a: Exponent, b: Exponent) -> bool:
    return not any(map(mul, a, b))


def _primitive(terms: dict, lead: Exponent) -> tuple:
    """The divisor ``(lead, terms)`` of the kernel: ``terms`` (rational or
    integer coefficients) times the rational number that makes them
    coprime integers with a positive coefficient at ``lead``."""
    scale = lcm(*(c.denominator for c in terms.values()))
    ints = {e: int(c * scale) for e, c in terms.items()}
    content = gcd(*ints.values()) if ints[lead] > 0 else -gcd(*ints.values())
    return lead, {e: c // content for e, c in ints.items()}


def _s_pair(a: tuple, b: tuple) -> dict:
    """The integer S-pair of two primitive divisors ``(lead, terms)``: each
    is multiplied up to the lcm of the leads, by coprime integers chosen so
    that the lcm cancels."""
    (alead, f), (blead, g) = a, b
    m = _exp_lcm(alead, blead)
    common = gcd(f[alead], g[blead])
    spair: dict = {}
    _add_multiple(spair, g[blead] // common, _sub(m, alead), f)
    _add_multiple(spair, -(f[alead] // common), _sub(m, blead), g)
    return spair


def _top_reduce(work: dict, divisors: list, key) -> dict:
    """What is left of the integer term dict ``work`` after top reduction
    by the primitive ``divisors``: empty when it reduces to zero, otherwise
    the work whose lead no divisor's lead divides.  ``work`` is changed in
    place.

    Each step is work = a * work - b * x^s * g, divided by its content,
    with the first divisor g whose lead divides that of work.  Scaling by
    a nonzero integer changes no exponent, so the leads are those of
    ``completion.normal_form``; they strictly decrease, and the first lead
    that no divisor's lead divides is the lead of its remainder.
    """
    while work:
        lead = max(work, key=key)
        for glead, g in divisors:
            if _divides(glead, lead):
                break
        else:
            return work
        common = gcd(work[lead], g[glead])
        a, b = g[glead] // common, work[lead] // common
        for e in work:
            work[e] *= a
        _add_multiple(work, -b, _sub(lead, glead), g)
        content = gcd(*work.values())
        for e in work:
            work[e] //= content
    return work


def is_groebner_basis(polys: list[Polynomial], order: TermOrder) -> bool:
    """Buchberger's S-pair criterion for a fixed total order.

    Pairs with coprime leading exponents are skipped (product criterion).
    The S-pairs and their reductions are computed on the generators made
    primitive over the integers, and the check stops at the first S-pair
    that does not reduce to zero.
    """
    check_generators(polys)
    divisors = [_primitive(f.terms, order.leading_exponent(f)) for f in polys]
    for i, a in enumerate(divisors):
        for b in divisors[i + 1 :]:
            if not _coprime(a[0], b[0]) and _top_reduce(
                _s_pair(a, b), divisors, order.key
            ):
                return False
    return True


def __getattr__(name: str):
    # the completion names the benchmark's tracer reads from this module
    if name in ("normal_form", "s_polynomial", "buchberger"):
        from . import completion

        return getattr(completion, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
