"""Reference product scan, kept as a test oracle for class enumeration.

``extract_weight_vectors`` in ``basisdetect.orders`` builds each
generator's cone rows once per candidate lead, skips tuples whose leads
contradict each other, and solves integer cone programs.  This is the
earlier scan: every tuple of the candidate product gets its own program,
rebuilt from the polynomials, solved by the dense ``Fraction`` simplex of
``lp_oracle`` and cleared to a primitive integer weight.  The rows are in
the same order and Bland's rule picks the same pivots, so the classes and
their weights must be identical.
"""

from __future__ import annotations

import itertools
from math import lcm

from basisdetect.orders import OrderClass

import lp_oracle


def cone_feasibility(polys, leads) -> tuple[int, ...] | None:
    """Weight strictly selecting ``leads``: max eps s.t.
    <w, u - lead> + eps <= 0 for every other support exponent u, in
    ``f.terms`` order generator by generator, then 0 <= w_j <= 1."""
    n = polys[0].ring.nvars
    rows = []
    for f, lead in zip(polys, leads):
        for u in f.terms:
            if u != lead:
                rows.append([u[j] - lead[j] for j in range(n)] + [1])
    if not rows:
        return (1,) * n
    rhs = [0] * len(rows)
    for j in range(n):
        box = [0] * (n + 1)
        box[j] = 1
        rows.append(box)
        rhs.append(1)
    value, point = lp_oracle.maximize([0] * n + [1], rows, rhs)
    if value <= 0:
        return None
    denom = lcm(*(x.denominator for x in point[:n]))
    return lp_oracle.normalize_weight(int(x * denom) for x in point[:n])


def candidates(polys) -> list[list]:
    """Per polynomial, the sorted support exponents some weight selects."""
    return [
        [u for u in sorted(f.terms) if cone_feasibility([f], (u,)) is not None]
        for f in polys
    ]


def extract_weight_vectors(polys) -> list[OrderClass]:
    """Every tuple of the candidate product with a nonempty cone."""
    classes = []
    for combo in itertools.product(*candidates(polys)):
        weight = cone_feasibility(polys, combo)
        if weight is not None:
            classes.append(OrderClass(tuple(combo), weight))
    classes.sort(key=lambda c: c.leads)
    return classes
