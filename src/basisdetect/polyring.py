"""Exact multivariate polynomials over the rationals, with weight term orders.

Polynomials are sparse maps from exponent vectors to nonzero Fraction
coefficients, attached to a ring (an ordered tuple of variable names).
All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, index, le, mul, sub

Exponent = tuple[int, ...]


class SubductionLimitError(RuntimeError):
    """Subduction exceeded its iteration cap (suspected non-termination)."""


class HilbertBoundWarning(UserWarning):
    """The degree cap truncated the exact Hilbert comparison bound."""


def _integers(entries) -> tuple[int, ...]:
    """``entries`` as a tuple of ints, each through ``operator.index``: an
    int, a bool or any other integer type (one that defines ``__index__``,
    as NumPy's do) passes, and a float, a ``Fraction`` or a string is a
    ValueError, never truncated or parsed."""
    try:
        return tuple(map(index, entries))
    except TypeError:
        raise ValueError("not a vector of integers: %r" % (entries,)) from None


class _Record:
    """Equality, ``repr`` and pickling derived from the field names in
    ``__slots__``, as ``dataclasses`` generates them; that module is not
    imported, because loading it (with ``inspect``) is a large share of the
    command line's start-up.  A subclass lists its fields in ``__slots__``
    and sets them in its own ``__init__``.  Defining ``__eq__`` leaves a
    record unhashable, as a mutable dataclass is."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__
        )
        return "%s(%s)" % (type(self).__qualname__, fields)

    def __reduce__(self):
        return (type(self), self._values())


class _FrozenRecord(_Record):
    """A record that hashes by its fields and refuses assignment; its
    ``__init__`` sets the fields, in ``__slots__`` order, with ``_set``."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class PolynomialRing(_FrozenRecord):
    """An ordered sequence of variable names fixing exponent-vector length."""

    __slots__ = ("variables",)

    def __init__(self, variables: tuple[str, ...]):
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names: %r" % (variables,))
        if not variables:
            raise ValueError("ring needs at least one variable")
        self._set(variables)

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


class Polynomial(_FrozenRecord):
    """Sparse polynomial: exponent tuple -> nonzero rational coefficient.

    A frozen record hashed by its ring and term set, since the ``terms``
    dict cannot be hashed; ``__init__`` stores the fields directly, as
    every sum and product passes through it.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolynomialRing, terms: dict):
        cleaned = {}
        n = ring.nvars
        for exp, coeff in terms.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            exp = _integers(exp)
            if len(exp) != n or min(exp) < 0:
                raise ValueError("bad exponent %r for ring %r" % (exp, ring.variables))
            cleaned[exp] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", cleaned)

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max total degree over terms; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def _check_ring(self, other: "Polynomial"):
        # identity first: the field comparison of two equal rings costs more
        # than a division step's arithmetic
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError("polynomials belong to different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(1, other)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(-1, other)

    def _plus(self, factor, other: "Polynomial") -> "Polynomial":
        """self + factor * other."""
        self._check_ring(other)
        terms = dict(self.terms)
        _add_multiple(terms, factor, None, other.terms)
        return Polynomial(self.ring, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        terms: dict = {}
        for exp, coeff in self.terms.items():
            _add_multiple(terms, coeff, exp, other.terms)
        return Polynomial(self.ring, terms)

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


def _add_multiple(terms: dict, factor, shift, other: dict) -> None:
    """terms += factor * x^shift * other, in place, dropping the terms that
    cancel; a ``shift`` of None stands for x^0.

    This is the one accumulation loop of the package: sums, differences and
    products of polynomials, S-polynomials, division and subduction steps
    and the rank elimination all update a term dict through it, and build
    a ``Polynomial`` only from the finished dict.
    """
    for exp, coeff in other.items():
        if shift is not None:
            exp = tuple(map(add, exp, shift))
        acc = terms.get(exp)
        if acc is None:
            terms[exp] = factor * coeff
        elif acc := acc + factor * coeff:
            terms[exp] = acc
        else:
            del terms[exp]


def _divides(a: Exponent, b: Exponent) -> bool:
    """Whether the monomial x^a divides x^b."""
    return all(map(le, a, b))


def _sub(a: Exponent, b: Exponent) -> Exponent:
    """a - b componentwise: the exponent of x^a / x^b when x^b divides x^a."""
    return tuple(map(sub, a, b))


class TermOrder(_FrozenRecord):
    """Total order on monomials: weight comparison refined by lex.

    Compares x^a against x^b by <weight, a> vs <weight, b>, breaking ties
    lexicographically on the ring's declared variable sequence (first
    variable most significant).  With a nonnegative weight this is a genuine
    term order: 1 is the minimum and the order respects multiplication.
    ``key`` maps an exponent tuple to a sortable value, larger key meaning
    larger monomial.
    """

    __slots__ = ("weight",)

    def __init__(self, weight):
        w = _integers(weight)
        if not w or any(e < 0 for e in w):
            raise ValueError("weight must be a nonempty nonnegative vector")
        if all(e == 0 for e in w):
            raise ValueError("the all-zero weight vector is not allowed")
        self._set(w)

    def key(self, exponent: Exponent):
        return (dot(self.weight, exponent), exponent)

    def leading_exponent(self, f: Polynomial) -> Exponent:
        if len(self.weight) != f.ring.nvars:
            raise ValueError("weight length differs from the number of variables")
        if f.is_zero():
            raise ValueError("the zero polynomial has no leading term")
        return max(f.terms, key=self.key)

    def leading_term(self, f: Polynomial) -> tuple[Exponent, Fraction]:
        exp = self.leading_exponent(f)
        return exp, f.terms[exp]


def dot(w, e) -> int:
    return sum(map(mul, w, e))


def initial_form(f: Polynomial, weight) -> Polynomial:
    """Sum of all terms of f whose weight dot product is maximal.

    Unlike ``TermOrder.leading_term`` this uses the weight alone (no lex
    refinement), so the result need not be a monomial.  The weight needs
    one entry per variable, as in ``TermOrder``.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no initial form")
    w = _integers(weight)
    if len(w) != f.ring.nvars:
        raise ValueError("weight length differs from the number of variables")
    best = max(dot(w, e) for e in f.terms)
    return Polynomial(
        f.ring, {e: c for e, c in f.terms.items() if dot(w, e) == best}
    )


def check_generators(polys: list[Polynomial]) -> None:
    """Reject an empty generator list, mixed rings and zero generators."""
    if not polys:
        raise ValueError("empty generator list")
    base = polys[0].ring
    for f in polys:
        if f.ring is not base and f.ring != base:
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
