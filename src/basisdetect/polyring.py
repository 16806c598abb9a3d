"""Exact multivariate polynomials over the rationals, with weight term orders.

Polynomials are sparse maps from exponent vectors to nonzero Fraction
coefficients, attached to a ring (an ordered tuple of variable names).
All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class PolynomialRing:
    """An ordered sequence of variable names fixing exponent-vector length."""

    variables: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names: %r" % (self.variables,))
        if not self.variables:
            raise ValueError("ring needs at least one variable")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def constant(self, c) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: Fraction(c)})

    def variable(self, name: str) -> "Polynomial":
        i = self.variables.index(name)
        exp = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {exp: Fraction(1)})

    def monomial(self, exponent, coefficient=1) -> "Polynomial":
        return Polynomial(self, {tuple(exponent): Fraction(coefficient)})

    def format_monomial(self, exponent: Exponent) -> str:
        parts = []
        for name, e in zip(self.variables, exponent):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts) if parts else "1"


def ring(*names: str) -> PolynomialRing:
    return PolynomialRing(tuple(names))


class Polynomial:
    """Sparse polynomial: exponent tuple -> nonzero rational coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolynomialRing, terms: dict):
        cleaned = {}
        n = ring.nvars
        for exp, coeff in terms.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            exp = tuple(exp)
            if len(exp) != n or any(e < 0 for e in exp):
                raise ValueError("bad exponent %r for ring %r" % (exp, ring.variables))
            cleaned[exp] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return (Polynomial, (self.ring, self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> frozenset:
        return frozenset(self.terms)

    def total_degree(self) -> int:
        """Max total degree over terms; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def coefficient(self, exponent) -> Fraction:
        return self.terms.get(tuple(exponent), Fraction(0))

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError("polynomials belong to different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        res = dict(self.terms)
        for exp, coeff in other.terms.items():
            acc = res.get(exp, Fraction(0)) + coeff
            if acc:
                res[exp] = acc
            else:
                res.pop(exp, None)
        return Polynomial(self.ring, res)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        res: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                acc = res.get(exp, Fraction(0)) + c1 * c2
                if acc:
                    res[exp] = acc
                else:
                    del res[exp]
        return Polynomial(self.ring, res)

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(self.ring, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, k: int) -> "Polynomial":
        """Repeated multiplication by ``self``: the largest product is
        f^(k-1) * f, at most C(m+k-2, k-1) * m term pairs for m terms, a
        bound the system parser checks before it takes a power."""
        if k < 0:
            raise ValueError("negative power")
        result = self.ring.constant(1)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        # descending lex over exponents for reproducible printing
        for exp in sorted(self.terms, reverse=True):
            coeff = self.terms[exp]
            mono = self.ring.format_monomial(exp)
            if mono == "1":
                piece = str(coeff)
            elif coeff == 1:
                piece = mono
            elif coeff == -1:
                piece = "-" + mono
            else:
                piece = "%s*%s" % (coeff, mono)
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
        return out


def normalize_weight(entries) -> tuple[int, ...]:
    """Reduce an integer weight vector to its primitive representative.

    Entries must be nonnegative integers, not all zero.
    """
    w = tuple(int(e) for e in entries)
    if any(e < 0 for e in w):
        raise ValueError("weight entries must be nonnegative: %r" % (w,))
    g = 0
    for e in w:
        g = gcd(g, e)
    if g == 0:
        raise ValueError("the all-zero weight vector is not allowed")
    return tuple(e // g for e in w)


class MonomialOrder:
    """Base for total monomial orders; subclasses supply ``key``.

    ``key`` maps an exponent tuple to a sortable value, larger key meaning
    larger monomial.
    """

    def key(self, exponent: Exponent):
        raise NotImplementedError

    def leading_exponent(self, f: Polynomial) -> Exponent:
        if f.is_zero():
            raise ValueError("the zero polynomial has no leading term")
        return max(f.terms, key=self.key)

    def leading_term(self, f: Polynomial) -> tuple[Exponent, Fraction]:
        exp = self.leading_exponent(f)
        return exp, f.terms[exp]

    def leading_coefficient(self, f: Polynomial) -> Fraction:
        return f.terms[self.leading_exponent(f)]


class TermOrder(MonomialOrder):
    """Total order on monomials: weight comparison refined by lex.

    Compares x^a against x^b by <weight, a> vs <weight, b>, breaking ties
    lexicographically on the ring's declared variable sequence (first
    variable most significant).  With a nonnegative weight this is a genuine
    term order: 1 is the minimum and the order respects multiplication.
    """

    __slots__ = ("weight",)

    def __init__(self, weight):
        w = tuple(int(e) for e in weight)
        if not w or any(e < 0 for e in w):
            raise ValueError("weight must be a nonempty nonnegative vector")
        if all(e == 0 for e in w):
            raise ValueError("the all-zero weight vector is not allowed")
        object.__setattr__(self, "weight", w)

    def __setattr__(self, name, value):
        raise AttributeError("TermOrder is immutable")

    def __reduce__(self):
        return (TermOrder, (self.weight,))

    def key(self, exponent: Exponent):
        return (dot(self.weight, exponent), exponent)

    def __repr__(self) -> str:
        return "TermOrder(%r)" % (self.weight,)

    def __eq__(self, other) -> bool:
        return isinstance(other, TermOrder) and self.weight == other.weight

    def __hash__(self) -> int:
        return hash(("TermOrder", self.weight))


def dot(w, e) -> int:
    return sum(a * b for a, b in zip(w, e))


def initial_term(f: Polynomial, order: TermOrder) -> tuple[Exponent, Fraction]:
    """The unique order-maximal term of a nonzero polynomial."""
    return order.leading_term(f)


def initial_form(f: Polynomial, weight) -> Polynomial:
    """Sum of all terms of f whose weight dot product is maximal.

    Unlike ``initial_term`` this uses the weight alone (no lex refinement),
    so the result need not be a monomial.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no initial form")
    w = tuple(int(e) for e in weight)
    best = max(dot(w, e) for e in f.terms)
    return Polynomial(
        f.ring, {e: c for e, c in f.terms.items() if dot(w, e) == best}
    )


def support(f: Polynomial) -> frozenset:
    return f.support()


def check_generators(polys: list[Polynomial]) -> None:
    """Reject an empty generator list, mixed rings and zero generators."""
    if not polys:
        raise ValueError("empty generator list")
    base = polys[0].ring
    for f in polys:
        if f.ring != base:
            raise ValueError("polynomials belong to different rings")
        if f.is_zero():
            raise ValueError("zero polynomial in generator set")


def homogenize_with_t(polys: list[Polynomial]) -> list[Polynomial]:
    """Adjoin a new first variable t and return t*f for every input f.

    Every monomial of the output has t-degree exactly one, so the outputs
    generate a subalgebra graded by t-degree.
    """
    check_generators(polys)
    base = polys[0].ring
    if "t" in base.variables:
        raise ValueError("ring already has a variable named 't'")
    extended = PolynomialRing(("t",) + base.variables)
    out = []
    for f in polys:
        out.append(
            Polynomial(extended, {(1,) + exp: c for exp, c in f.terms.items()})
        )
    return out
