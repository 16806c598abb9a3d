"""Value semantics of the record classes, and the lazy package namespace.

The records behave as dataclasses would: constructors taking
positional or keyword fields, equality by fields, a hash of the field
tuple for the frozen ones (unhashable otherwise), no assignment to a
frozen one, the same ``repr``, and pickling, which ``--jobs`` needs to
send classes and polynomials to worker processes.
"""

import pickle
from fractions import Fraction

import pytest

import basisdetect
from basisdetect import (
    DivisionResult,
    ExponentMatrix,
    HilbertVector,
    LatticePolytope,
    OrderClass,
    PolynomialRing,
    SubductionResult,
    ToricBinomial,
)
from basisdetect.cli import SystemFile

R = PolynomialRing(("x", "y"))
X = R.variable("x")

# (record, an equal record built with keywords, a different record, repr)
FROZEN = [
    (
        PolynomialRing(("x", "y")),
        PolynomialRing(variables=("x", "y")),
        PolynomialRing(("y", "x")),
        "PolynomialRing(variables=('x', 'y'))",
    ),
    (
        OrderClass(((1, 0),), (1, 0)),
        OrderClass(leads=((1, 0),), weight=(1, 0)),
        OrderClass(((1, 0),), (2, 1)),
        "OrderClass(leads=((1, 0),), weight=(1, 0))",
    ),
    (
        LatticePolytope([(1, 0), (0, 1), (1, 0)]),
        LatticePolytope(points=[(0, 1), (1, 0)]),
        LatticePolytope([(0, 1)]),
        "LatticePolytope(points=((0, 1), (1, 0)))",
    ),
    (
        HilbertVector((1, 2, 3)),
        HilbertVector(values=(1, 2, 3)),
        HilbertVector((1, 2, 4)),
        "HilbertVector(values=(1, 2, 3))",
    ),
    (
        ExponentMatrix([(1, 0), (0, 1)]),
        ExponentMatrix(columns=((1, 0), (0, 1))),
        ExponentMatrix([(0, 1), (1, 0)]),
        "ExponentMatrix(columns=((1, 0), (0, 1)))",
    ),
    (
        ToricBinomial((1, 0), (0, 1)),
        ToricBinomial(u=(1, 0), v=(0, 1)),
        ToricBinomial((0, 1), (1, 0)),
        "ToricBinomial(u=(1, 0), v=(0, 1))",
    ),
]

MUTABLE = [
    (
        DivisionResult([X], R.zero()),
        DivisionResult(quotients=[X], remainder=R.zero()),
        DivisionResult([X], X),
        "DivisionResult(quotients=[x], remainder=0)",
    ),
    (
        SubductionResult(X, [(Fraction(1, 2), (1, 0))]),
        SubductionResult(remainder=X, steps=[(Fraction(1, 2), (1, 0))]),
        SubductionResult(X, []),
        "SubductionResult(remainder=x, steps=[(Fraction(1, 2), (1, 0))])",
    ),
    (
        SystemFile(["x"], ["x^2"]),
        SystemFile(variables=["x"], polynomials=["x^2"], options={}),
        SystemFile(["x"], ["x^2"], {"k": "v"}),
        "SystemFile(variables=['x'], polynomials=['x^2'], options={})",
    ),
]

RECORDS = FROZEN + MUTABLE


def _names(cases):
    return [type(case[0]).__name__ for case in cases]


@pytest.mark.parametrize("record, same, other, text", RECORDS, ids=_names(RECORDS))
def test_equality_by_fields(record, same, other, text):
    assert record == same
    assert not record != same
    assert record != other
    assert record != text
    assert repr(record) == text


@pytest.mark.parametrize("record, same, other, text", RECORDS, ids=_names(RECORDS))
def test_pickle_round_trip(record, same, other, text):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record
    assert repr(copy) == text


@pytest.mark.parametrize("record, same, other, text", FROZEN, ids=_names(FROZEN))
def test_frozen_records_hash_their_fields_and_refuse_assignment(
    record, same, other, text
):
    fields = type(record).__slots__
    # the hash of the field tuple, as a frozen dataclass has: sets of
    # records iterate in the same order as before
    assert hash(record) == hash(tuple(getattr(record, f) for f in fields))
    assert hash(record) == hash(same)
    assert len({record, same, other}) == 2
    with pytest.raises(AttributeError):
        setattr(record, fields[0], getattr(other, fields[0]))
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == same


@pytest.mark.parametrize("record, same, other, text", MUTABLE, ids=_names(MUTABLE))
def test_mutable_records_are_unhashable_and_assignable(record, same, other, text):
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
    fields = type(record).__slots__
    copy = pickle.loads(pickle.dumps(record))
    setattr(copy, fields[-1], getattr(other, fields[-1]))
    assert copy != record


def test_constructor_arity_errors():
    with pytest.raises(TypeError):
        OrderClass(((1, 0),))
    with pytest.raises(TypeError):
        OrderClass(((1, 0),), (1, 0), (1, 0))
    with pytest.raises(TypeError):
        ToricBinomial((1, 0), w=(0, 1))
    with pytest.raises(ValueError, match="duplicate"):
        PolynomialRing(("x", "x"))


# ---------------------------------------------------------------------------
# the lazy package namespace


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from basisdetect import *", namespace)
    assert set(basisdetect.__all__) <= set(namespace)
    for name in basisdetect.__all__:
        assert namespace[name] is getattr(basisdetect, name)


def test_public_names_come_from_their_layer_modules():
    from basisdetect import groebner, orders, sagbi

    assert basisdetect.is_groebner_basis is groebner.is_groebner_basis
    assert basisdetect.OrderClass is orders.OrderClass
    assert basisdetect.rank_orders is sagbi.rank_orders
    # moved to polyring, still exported by sagbi
    for name in ("SubductionLimitError", "HilbertBoundWarning", "DEFAULT_SUBDUCTION_CAP"):
        assert getattr(sagbi, name) is getattr(basisdetect.polyring, name)


def test_dir_lists_every_public_name():
    listed = dir(basisdetect)
    assert set(basisdetect.__all__) <= set(listed)
    assert listed == sorted(listed)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        basisdetect.no_such_name
    assert not hasattr(basisdetect, "no_such_name")
    with pytest.raises(ImportError):
        exec("from basisdetect import no_such_name", {})
