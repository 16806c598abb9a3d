"""Value semantics of the record classes, and the lazy package namespace.

The records behave as dataclasses would: constructors taking
positional or keyword fields, equality by fields, a hash of the field
tuple for the frozen ones (unhashable otherwise), no assignment to a
frozen one, the same ``repr``, and pickling, which ``--jobs`` needs to
send classes and polynomials to worker processes.
"""

import importlib
import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest

import basisdetect
from basisdetect import (
    DivisionResult,
    ExponentMatrix,
    LatticePolytope,
    OrderClass,
    Polynomial,
    PolynomialRing,
    SubductionResult,
    TermOrder,
    ToricBinomial,
)

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
        TermOrder((1, 0)),
        TermOrder(weight=(1, 0)),
        TermOrder((0, 1)),
        "TermOrder(weight=(1, 0))",
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


def test_polynomial_is_a_frozen_record_with_its_own_hash_and_repr():
    # the terms dict is unhashable, so a polynomial hashes its term set
    f = X + R.variable("y")
    same = Polynomial(ring=R, terms={(0, 1): 1, (1, 0): 1})
    assert f == same
    assert f != X
    assert f != "x + y"
    assert hash(f) == hash(same)
    copy = pickle.loads(pickle.dumps(f))
    assert type(copy) is Polynomial
    assert copy == f
    assert repr(copy) == "x + y"
    for field in Polynomial.__slots__:
        with pytest.raises(AttributeError):
            setattr(f, field, getattr(X, field))
        with pytest.raises(AttributeError):
            delattr(f, field)
    assert f == same


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
    for name in ("SubductionLimitError", "HilbertBoundWarning"):
        assert getattr(sagbi, name) is getattr(basisdetect.polyring, name)


# (old module, new module, name) for the names the benchmark's tracer
# still reads from the module they moved out of
MOVED_TRACED_NAMES = [
    ("orders", "rank", "normalized_volume"),
    ("orders", "rank", "polytope_dim"),
    ("sagbi", "hilbert", "hilbert_vector"),
    ("sagbi", "rank", "rank_orders"),
    ("groebner", "completion", "normal_form"),
    ("groebner", "completion", "s_polynomial"),
    ("groebner", "completion", "buchberger"),
]


def test_old_modules_forward_the_traced_names():
    for old, new, name in MOVED_TRACED_NAMES:
        old_module = importlib.import_module("basisdetect." + old)
        new_module = importlib.import_module("basisdetect." + new)
        assert getattr(old_module, name) is getattr(new_module, name), name


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


def test_readme_key_operations_resolve():
    # every backticked name in the README's table of key operations is an
    # attribute (or a dotted path of attributes) of its row's module
    readme = Path(__file__).resolve().parent.parent / "README.md"
    table = readme.read_text().split("Key operations, by module:", 1)[1]
    rows = re.findall(r"^\| `(\w+)` +\|(.*)\|$", table, re.M)
    assert len(rows) == 10
    for module_name, contents in rows:
        module = importlib.import_module("basisdetect." + module_name)
        for name in re.findall(r"`([A-Za-z_][\w.]*)`", contents):
            value = module
            for part in name.split("."):
                assert hasattr(value, part), (module_name, name)
                value = getattr(value, part)
