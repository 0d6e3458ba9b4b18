import pytest
from fractions import Fraction

from conftest import make_ex52
from mpp.family import generic_parameter, iota, project, transfer_phi
from mpp.geometry import make_hrep
from mpp.rationals import rat, rat_str
from mpp.tropical import arrangement, covector


def test_parse_forms():
    assert rat("3") == 3
    assert rat("-1/2") == Fraction(-1, 2)
    assert rat(7) == 7
    assert rat(Fraction(2, 4)) == Fraction(1, 2)


# "\u0661" and "\u0663/\u0664" are Arabic-Indic digits, which int() would
# read; "1_0" is an int() literal with an underscore
@pytest.mark.parametrize("bad", ["1/0", "1.5", "a", "1/-2", "", "0x3",
                                 "\u0661", "\u0663/\u0664", "1_0"])
def test_rejects_garbage(bad):
    with pytest.raises(ValueError):
        rat(bad)


def test_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)


def test_round_trip():
    for s in ["0", "17", "-3", "5/7", "-22/7"]:
        assert rat_str(rat(s)) == s


@pytest.mark.parametrize("bad", [True, False])
def test_rejects_booleans(bad):
    # bool is an int subclass, but JSON true/false are not rationals
    with pytest.raises(TypeError):
        rat(bad)


def test_rat_str_of_an_int():
    assert [rat_str(3), rat_str(-2), rat_str(0)] == ["3", "-2", "0"]


def _entry_points():
    """Each library function that reads a caller's rational, called with one
    value v in place of a rational."""
    poset = make_ex52()
    t = generic_parameter(poset)

    def at(v):  # a point of R^P whose p-coordinate is v
        return {**dict.fromkeys(poset.elements, Fraction(1)), "p": v}

    return {
        "make_hrep": lambda v: make_hrep(("x",), [], [((1,), 2, ()), ((-1,), v, ())]),
        "transfer_phi": lambda v: transfer_phi(poset, t, at(v)),
        "iota": lambda v: iota(poset, at(v)),
        "project": lambda v: project(poset, at(v)),
        "covector": lambda v: covector(arrangement(poset), at(v)),
    }


@pytest.mark.parametrize("entry", sorted(_entry_points()))
@pytest.mark.parametrize("bad, error", [(True, TypeError), (0.1, TypeError),
                                        ("0.5", ValueError)], ids=["bool", "float", "decimal"])
def test_library_entry_points_read_rationals_through_rat(entry, bad, error):
    # a bool or float would be read as the rational it happens to hold, and a
    # decimal string is outside rat's grammar
    with pytest.raises(error):
        _entry_points()[entry](bad)
