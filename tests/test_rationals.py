import pytest
from fractions import Fraction

from mpp.rationals import rat, rat_str


def test_parse_forms():
    assert rat("3") == 3
    assert rat("-1/2") == Fraction(-1, 2)
    assert rat(7) == 7
    assert rat(Fraction(2, 4)) == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["1/0", "1.5", "a", "1/-2", "", "0x3"])
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
