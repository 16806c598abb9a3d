"""Reference S-pair criterion, kept as a test oracle for
``basisdetect.is_groebner_basis``.

Every S-polynomial is formed in ``Fraction`` arithmetic by the public
``s_polynomial`` and divided by the public ``normal_form``, which builds
the quotients and the whole remainder; the input is a Groebner basis when
every remainder is zero.  Pairs with coprime leading exponents are skipped
(product criterion), as in the production check.
"""

from __future__ import annotations

from basisdetect import normal_form, s_polynomial
from basisdetect.polyring import check_generators


def is_groebner_basis(polys, order) -> bool:
    check_generators(polys)
    leads = [order.leading_exponent(f) for f in polys]
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if all(a == 0 or b == 0 for a, b in zip(leads[i], leads[j])):
                continue
            spoly = s_polynomial(polys[i], polys[j], order)
            if not normal_form(spoly, polys, order).remainder.is_zero():
                return False
    return True
