"""The value records: equal fields give equal records with equal hashes,
fields can be neither assigned nor deleted, repr is `Name(field=value, ...)`
(verify's fail detail prints it), and a record that checks its fields has no
constructor that skips the check.  Every slots value class, `MultiPoly` and
`TruncSeries` too, is a `poly.FrozenRecord`."""

import copy
import inspect
import pickle
from fractions import Fraction as Q
from importlib import import_module
from pkgutil import iter_modules

import numpy as np
import pytest

import tuttekit
from conftest import assert_refused
from tuttekit.errors import StructureError
from tuttekit.genfun import GenFunRequest, expand_genfun
from tuttekit.invariants import derive_all
from tuttekit.lattice import LatticeBasis, SubsetStats
from tuttekit.poly import FrozenRecord, MultiPoly
from tuttekit.root_systems import RootSystemSpec, build_config
from tuttekit.tables import TableFixture
from tuttekit.tutte import (
    CoboundaryPolynomial,
    TuttePolynomial,
    arithmetic_tutte_bruteforce,
    coboundary_from_tutte,
)
from tuttekit.verify import CheckResult

B2_WEIGHT = RootSystemSpec("B", 2, "weight")


def b2_tutte():
    return arithmetic_tutte_bruteforce(build_config(B2_WEIGHT))


def coboundary(rank=1):
    return CoboundaryPolynomial(MultiPoly(("X", "Y"), {(1, 0): 1}), rank)


# Each record: a fresh build on every call, and the fields that its repr,
# equality and hash read, in order.
RECORDS = {
    "LatticeBasis": (lambda: LatticeBasis(((1, 0), (Q(1, 2), Q(1, 2)))), ("basis",)),
    "VectorConfig": (
        lambda: build_config(B2_WEIGHT),
        ("vectors", "lattice", "coord_matrix"),
    ),
    "SubsetStats": (lambda: SubsetStats(2, 3), ("rank", "multiplicity")),
    "TuttePolynomial": (b2_tutte, ("poly", "rank", "ambient_rank", "flavor")),
    "CoboundaryPolynomial": (coboundary, ("poly", "rank")),
    "RootSystemSpec": (lambda: RootSystemSpec("C", 3, "root"), ("family", "n", "lattice_kind")),
    "GenFunRequest": (
        lambda: GenFunRequest("D", "classical", 4),
        ("family", "lattice_kind", "order"),
    ),
    "InvariantReport": (
        lambda: derive_all(b2_tutte()),
        (
            "characteristic",
            "ehrhart",
            "poincare",
            "volume",
            "lattice_points",
            "interior_points",
            "toric_regions",
            "dm_dimension",
            "dpv_dimension",
        ),
    ),
    "TableFixture": (
        lambda: TableFixture("B2", "3+4 x+x^2+4 y+2 y^2", ("x", "y")),
        ("row", "printed", "variables", "note"),
    ),
    "CheckResult": (
        lambda: CheckResult("genfun-vs-bruteforce", "fail", "polynomials differ"),
        ("name", "status", "detail"),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_value_record_contract(name):
    build, fields = RECORDS[name]
    a, b = build(), build()
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert copy.copy(a) == a
    values = ", ".join(f"{field}={getattr(a, field)!r}" for field in fields)
    assert repr(a) == f"{name}({values})"
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b


# Each checked record: a good build, a bad one and its refusal.  The record
# must have no `_make` or `_replace` (a NamedTuple's build around `__new__`),
# no `__replace__` (copy.replace) and no `__dict__` to patch.
CHECKED = {
    "RootSystemSpec": (
        lambda: RootSystemSpec("B", 2, "integer"),
        lambda: RootSystemSpec("B", 0, "integer"),
        "B requires n >= 1",
    ),
    "GenFunRequest": (
        lambda: GenFunRequest("B", "integer", 2),
        lambda: GenFunRequest("B", "spin", 2),
        "unknown lattice kind 'spin'",
    ),
    "TuttePolynomial": (
        b2_tutte,
        lambda: TuttePolynomial(b2_tutte().poly, 3, 2, "arithmetic"),
        "rank 3 outside 0..2",
    ),
    "CoboundaryPolynomial": (coboundary, lambda: coboundary(-1), "rank -1 is negative"),
}


@pytest.mark.parametrize("name", CHECKED)
def test_checked_records_have_no_unchecked_constructor(name):
    build, bad, message = CHECKED[name]
    assert_refused(bad, StructureError, message)
    record = build()
    for way in ("_make", "_replace", "__replace__", "__dict__"):
        assert not hasattr(record, way), way
    assert copy.copy(record) == record


def b2_integer_tutte():
    return arithmetic_tutte_bruteforce(build_config(RootSystemSpec("B", 2, "integer")))


# Values that hold a MultiPoly: each copy is rebuilt through the checked
# constructors, so `__setattr__`'s refusal never meets the restored state.
COPYABLE = {
    "MultiPoly": lambda: MultiPoly(("x", "y"), {(1, 0): Q(1, 2), (0, 2): -3}),
    "TruncSeries": lambda: expand_genfun(GenFunRequest("B", "integer", 4)),
    "TuttePolynomial": b2_integer_tutte,
    "CoboundaryPolynomial": lambda: coboundary_from_tutte(b2_integer_tutte()),
    "InvariantReport": lambda: derive_all(b2_integer_tutte()),
}
COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("way", COPIES)
@pytest.mark.parametrize("name", COPYABLE)
def test_copies_and_pickles_are_equal(name, way):
    value = COPYABLE[name]()
    twin = COPIES[way](value)
    assert type(twin) is type(value) and twin == value


def test_every_slots_value_class_is_a_frozen_record():
    modules = [import_module(f"tuttekit.{m.name}") for m in iter_modules(tuttekit.__path__)]
    slots_classes = {
        cls
        for module in modules
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__
        and "__slots__" in vars(cls)
        and not issubclass(cls, tuple)  # a NamedTuple declares empty slots
        and cls is not FrozenRecord
    }
    assert sorted(cls.__name__ for cls in slots_classes) == [
        "CoboundaryPolynomial", "GenFunRequest", "LatticeBasis", "MultiPoly",
        "RootSystemSpec", "TruncSeries", "TuttePolynomial", "VectorConfig",
    ]
    assert all(issubclass(cls, FrozenRecord) for cls in slots_classes)


# The two ring values: their repr is their own, but like the records they are
# equal by value with equal hashes, and no slot can be assigned or deleted.
RING_VALUES = {name: COPYABLE[name] for name in ("MultiPoly", "TruncSeries")}


@pytest.mark.parametrize("name", RING_VALUES)
def test_ring_values_are_frozen(name):
    a, b = RING_VALUES[name](), RING_VALUES[name]()
    assert a is not b and a == b and hash(a) == hash(b)
    for slot in type(a).__slots__:
        with pytest.raises(AttributeError):
            setattr(a, slot, getattr(b, slot))
        with pytest.raises(AttributeError):
            delattr(a, slot)
    assert a == b


# Each was taken before: 0.1 as 3602879701896397/36028797018963968, True as
# 1, "1/2" parsed as a Fraction and a numpy int as the int it holds.
NOT_SCALARS = {"float": 0.1, "bool": True, "string": "1/2", "numpy int": np.int64(3)}


@pytest.mark.parametrize("kind", NOT_SCALARS)
def test_multipoly_takes_only_int_and_fraction_coefficients(kind):
    bad = NOT_SCALARS[kind]
    message = f"coefficient {bad!r} is neither an int nor a Fraction"
    x = MultiPoly.var(("x",), "x")
    assert_refused(lambda: MultiPoly(("x",), {(1,): bad}), StructureError, message)
    assert_refused(lambda: x * bad, StructureError, message)
    assert (x * 3).terms == {(1,): 3} and (x * Q(1, 2)).terms == {(1,): Q(1, 2)}
