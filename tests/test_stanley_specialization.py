"""Classical specialization: marking a global bottom with 0 and a global top
with 1 turns the marked order/chain polytopes into the classical order and
chain polytopes of the inner poset.  For the V-shaped inner poset (p, q < r):

- vertices and lattice points of the order polytope are indicator vectors of
  the 5 filters: {}, {r}, {p,r}, {q,r}, {p,q,r};
- vertices and lattice points of the chain polytope are indicator vectors of
  the 5 antichains: {}, {p}, {q}, {r}, {p,q}.
"""

from fractions import Fraction

from conftest import is_ranked
from mpp.family import (hrep_general, is_tame, one_parameter, zero_parameter)
from mpp.geometry import vertices
from mpp.lattice import ehrhart, lattice_points
from mpp.poset import MarkedPoset, is_regular, validate


def v_poset() -> MarkedPoset:
    return MarkedPoset(
        elements=("bot", "p", "q", "r", "top"),
        covers=frozenset([("bot", "p"), ("bot", "q"), ("p", "r"), ("q", "r"),
                          ("r", "top")]),
        marking={"bot": 0, "top": 1},
    )


FILTERS = [set(), {"r"}, {"p", "r"}, {"q", "r"}, {"p", "q", "r"}]
ANTICHAINS = [set(), {"p"}, {"q"}, {"r"}, {"p", "q"}]


def indicator(subset, coords):
    return tuple(Fraction(1 if c in subset else 0) for c in coords)


def test_poset_sanity():
    poset = v_poset()
    assert validate(poset) == []
    assert is_regular(poset) and is_ranked(poset) and is_tame(poset)


def test_order_polytope_vertices_are_filters():
    poset = v_poset()
    h = hrep_general(poset, zero_parameter(poset))
    v = vertices(h)
    expected = {indicator(f, h.coords) for f in FILTERS}
    assert set(v.vertices) == expected
    assert {tuple(map(Fraction, p)) for p in lattice_points(h)} == expected


def test_chain_polytope_vertices_are_antichains():
    poset = v_poset()
    h = hrep_general(poset, one_parameter(poset))
    v = vertices(h)
    expected = {indicator(a, h.coords) for a in ANTICHAINS}
    assert set(v.vertices) == expected
    assert {tuple(map(Fraction, p)) for p in lattice_points(h)} == expected


def test_order_chain_ehrhart_agree():
    poset = v_poset()
    d0 = ehrhart(hrep_general(poset, zero_parameter(poset)), 4)
    d1 = ehrhart(hrep_general(poset, one_parameter(poset)), 4)
    assert d0.coefficients == d1.coefficients
    assert d0.counts[1][1] == 5
