"""The package's immutable records: construction by position and by keyword,
normalisation, equality and hashing over the fields, the repr, and
refusal of every assignment."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

import pytest

from mpp.degeneration import DegenerationPair, FaceMap
from mpp.family import Parameter, Partition
from mpp.geometry import Cone, Constraint, Face, FaceLattice, HRep, VRep
from mpp.lattice import EhrhartData
from mpp.poset import MarkedPoset, PosetError, SaturatedChain
from mpp.records import Frozen, cached_property
from mpp.tropical import SubdivisionCell, TropicalArrangement, TropicalForm

ZERO, ONE, HALF = Fraction(0), Fraction(1), Fraction(1, 2)
EMPTY = Face(frozenset(), frozenset({0, 1}), -1)
POINT = Face(frozenset({0}), frozenset({0}), 0)
SEGMENT = Face(frozenset({0, 1}), frozenset(), 1)
LATTICE = FaceLattice(((1, 0), (1, 1)), (EMPTY, POINT, SEGMENT))
FORM = TropicalForm((("p", ZERO), ("q", ZERO)))

# each record type with the fields of one instance, in order
CASES = [
    (Constraint, {"coeffs": (ONE, -HALF), "rhs": Fraction(3), "origin": ("chain", "p")}),
    (HRep, {"coords": ("x", "y"), "scaled_equations": (((-1, 2, 0), 2, ("x",)),),
            "scaled_inequalities": (((0, 1, -1), 1, ("chain", "x", "y")),),
            "int_equations": ((-1, 2, 0),), "int_inequalities": ((0, 1, -1),)}),
    (VRep, {"coords": ("x", "y"), "rows": ((1, 0, 0), (2, 1, 0)), "rays": ()}),
    (Cone, {"coords": ("x",), "lines": [], "rays": [((1, 0), 1)], "span_dim": 2,
            "rows": ((-1, 0),)}),
    (Face, {"vertex_ids": frozenset({0, 1}), "tight": frozenset({2}), "dim": 1}),
    (FaceLattice, {"rows": ((1, 0), (1, 1)), "faces": (EMPTY, POINT, SEGMENT)}),
    (SaturatedChain, {"below": ("0", "p"), "target": "r"}),
    (MarkedPoset, {"elements": ("a", "b"), "covers": frozenset({("a", "b")}),
                   "marking": {"a": 0, "b": "3/2"}}),
    (Parameter, {"values": {"p": HALF, "q": 0}}),
    (Partition, {"C": frozenset({"p"}), "O": frozenset({"q"})}),
    (TropicalForm, {"coeffs": (("p", ZERO), ("q", ZERO))}),
    (TropicalArrangement, {"hyperplanes": (("r", FORM),)}),
    (SubdivisionCell, {"vertices": ((ONE, ZERO),), "dim": 0, "covector": (("r", ("p",)),),
                       "tight": frozenset({0}), "origin": ("tropical",)}),
    (DegenerationPair, {"source": Parameter({"p": HALF, "q": 0}),
                        "target": Parameter({"p": 1, "q": 0})}),
    (FaceMap, {"source": LATTICE, "target": LATTICE,
               "mapping": {f: f for f in LATTICE.faces}}),
    (EhrhartData, {"counts": ((0, 1), (1, 2)), "coefficients": (ONE, ONE)}),
]
# records holding a list or a dict are not hashable, as their fields are not
UNHASHABLE = {Cone, FaceMap}


@pytest.mark.parametrize("cls, fields", CASES, ids=[cls.__name__ for cls, _ in CASES])
def test_record_semantics(cls, fields):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(by_keyword)
    else:
        assert hash(by_keyword) == hash(by_position)
        assert len({by_keyword, by_position}) == 1
    stored = {name: getattr(by_keyword, name) for name in fields}
    assert repr(by_keyword) == (f"{cls.__name__}("
                                + ", ".join(f"{k}={v!r}" for k, v in stored.items()) + ")")
    for name in [*fields, "no_such_field"]:
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, None)
        with pytest.raises(AttributeError):
            delattr(by_keyword, name)
    assert {name: getattr(by_keyword, name) for name in fields} == stored


def test_constraint_origin_defaults_to_plumbing():
    assert Constraint((ONE,), ZERO).origin == ("plumbing",)
    assert Constraint((ONE,), ZERO) == Constraint(coeffs=(ONE,), rhs=ZERO, origin=("plumbing",))


def test_cached_values_are_read_only():
    poset = MarkedPoset(("a", "p", "b"), [("a", "p"), ("p", "b")], {"a": 0, "b": 1})
    assert poset.unmarked is poset.unmarked == ("p",)
    assert LATTICE.by_tight is LATTICE.by_tight
    for record, name in [(poset, "unmarked"), (LATTICE, "by_tight"),
                         (Parameter({"p": HALF}), "is_interior"),
                         (VRep(("x",), ((1, 0),), ()), "vertices"),
                         (HRep(("x",)), "equations"), (HRep(("x",)), "inequalities")]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


class Counted(Frozen, namedtuple("Counted", "x")):
    calls = []

    @cached_property
    def double(self):
        """Twice x."""
        self.calls.append(self.x)
        return 2 * self.x


def test_cached_property_runs_once_per_instance():
    Counted.calls.clear()
    a, b = Counted(1), Counted(2)
    assert a.double == a.double == 2 and b.double == b.double == 4
    assert Counted.calls == [1, 2]


def test_cached_property_stores_in_the_instance_dict():
    a = Counted(3)
    assert a.__dict__ == {}
    assert a.double == 6 and a.__dict__ == {"double": 6}
    # the __dict__ that Cone.vrep fills with the cone, next to cached values
    from conftest import make_ex52
    from mpp.family import hrep_general, zero_parameter
    from mpp.geometry import vertices
    v = vertices(hrep_general(make_ex52(), zero_parameter(make_ex52())))
    assert set(v.__dict__) == {"_cone"}
    assert v.vertices is v.vertices and set(v.__dict__) == {"_cone", "vertices"}


def test_cached_property_values_stay_frozen():
    a = Counted(1)
    for _ in range(2):  # before the first read and after it
        with pytest.raises(AttributeError):
            a.double = 0
        with pytest.raises(AttributeError):
            del a.double
        assert a.double == 2


def test_cached_property_on_the_class_is_the_descriptor():
    prop = Counted.__dict__["double"]
    assert Counted.double is prop and isinstance(prop, cached_property)
    assert prop.func.__name__ == "double" and prop.__doc__ == "Twice x."
    problems = MarkedPoset.problems  # what tests/test_compute_once.py wraps
    assert problems.func.__name__ == "problems" and problems.__doc__ == problems.func.__doc__


def test_marked_poset_and_parameter_normalise_and_hash_sorted_items():
    poset = MarkedPoset(elements=["a", "b"], covers=[["a", "b"]], marking={"b": "3/2", "a": 0})
    assert poset.elements == ("a", "b") and poset.covers == frozenset({("a", "b")})
    assert dict(poset.marking) == {"a": ZERO, "b": Fraction(3, 2)}
    with pytest.raises(TypeError):
        poset.marking["a"] = ONE
    assert poset == MarkedPoset(("a", "b"), {("a", "b")}, {"a": ZERO, "b": Fraction(3, 2)})
    assert hash(poset) == hash((("a", "b"), frozenset({("a", "b")}),
                                (("a", ZERO), ("b", Fraction(3, 2)))))
    with pytest.raises(PosetError):
        MarkedPoset(("a", "a"), [], {})
    t = Parameter({"q": 0, "p": "1/2"})
    assert t["p"] == HALF and t.values["q"] == ZERO
    assert hash(t) == hash((("p", HALF), ("q", ZERO)))
    with pytest.raises(TypeError):
        t.values["p"] = ONE
    with pytest.raises(ValueError):
        Parameter({"p": 2})


def test_partition_normalises_and_rejects_overlap():
    part = Partition(C=["p"], O={"q", "r"})
    assert part == Partition(frozenset({"p"}), frozenset({"q", "r"}))
    assert type(part.C) is frozenset and type(part.O) is frozenset
    with pytest.raises(ValueError):
        Partition({"p"}, {"p", "q"})


def test_degeneration_pair_rejects_a_non_degeneration():
    u = Parameter({"p": 0, "q": HALF})
    DegenerationPair(u, Parameter({"p": 0, "q": 1}))
    with pytest.raises(ValueError):
        DegenerationPair(u, Parameter({"p": 1, "q": 1}))
    with pytest.raises(ValueError):
        DegenerationPair(source=u, target=Parameter({"p": HALF, "q": HALF}))


def test_hreps_are_equal_exactly_when_coords_rows_and_origins_agree():
    # the key under which a command shares one polytope between parameters
    from conftest import make_ex52
    from mpp.family import hrep_general
    ex52 = make_ex52()
    third = Fraction(1, 3)
    a = hrep_general(ex52, Parameter({"p": HALF, "q": third, "r": HALF}))
    b = hrep_general(ex52, Parameter({"p": ZERO, "q": ONE, "r": HALF}))
    c = hrep_general(ex52, Parameter({"p": HALF, "q": third, "r": ZERO}))
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != c and a.coords == c.coords
    # equal rows under other origins differ
    renamed = HRep(a.coords).with_rows(
        a.scaled_equations, [(row, s, ("other",) + origin)
                             for row, s, origin in a.scaled_inequalities])
    assert renamed.int_inequalities == a.int_inequalities
    assert renamed != a and {a: 1}.get(renamed) is None
