"""Reference S-pair criterion and completion, kept as test oracles for
``basisdetect.is_groebner_basis`` and ``basisdetect.buchberger``.

Every S-polynomial is formed in ``Fraction`` arithmetic by the public
``s_polynomial`` and divided by the public ``normal_form``, which builds
the quotients and the whole remainder.  Pairs with coprime leading
exponents are skipped (product criterion), as in the production code.

``is_groebner_basis``: the input is a Groebner basis when every remainder
is zero.

``buchberger``: plain Buchberger, which adds every nonzero remainder
(made monic) to the basis and pairs it with all earlier elements, with
the product criterion only.  The result is then minimalized, each
element is reduced by the others with ``normal_form`` and made monic,
and the list is sorted by leading exponent: the reduced Groebner basis,
which is unique, so the production completion must return exactly the
same list.
"""

from __future__ import annotations

from basisdetect import normal_form, s_polynomial
from basisdetect.polyring import check_generators


def _coprime(a, b) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def is_groebner_basis(polys, order) -> bool:
    check_generators(polys)
    leads = [order.leading_exponent(f) for f in polys]
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if _coprime(leads[i], leads[j]):
                continue
            spoly = s_polynomial(polys[i], polys[j], order)
            if not normal_form(spoly, polys, order).remainder.is_zero():
                return False
    return True


def _monic(f, order):
    return f.scale(1 / order.leading_term(f)[1])


def buchberger(polys, order) -> list:
    check_generators(polys)
    basis = [_monic(f, order) for f in polys]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        if _coprime(order.leading_exponent(basis[i]), order.leading_exponent(basis[j])):
            continue
        spoly = s_polynomial(basis[i], basis[j], order)
        remainder = normal_form(spoly, basis, order).remainder
        if not remainder.is_zero():
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(_monic(remainder, order))
    basis.sort(key=lambda f: order.key(order.leading_exponent(f)))
    minimal = []
    for f in basis:
        lead = order.leading_exponent(f)
        if not any(
            all(a <= b for a, b in zip(order.leading_exponent(g), lead))
            for g in minimal
        ):
            minimal.append(f)
    return [
        _monic(normal_form(f, minimal[:k] + minimal[k + 1 :], order).remainder, order)
        for k, f in enumerate(minimal)
    ]
