"""Integration fixture: the 3-row triangular interlacing poset.

Its marked order polytope is the classical pattern polytope for the top row
(2, 1, 0): three marked values and unmarked x11, x12, x21 with
2 >= x11 >= 1 >= x12 >= 0 and x11 >= x21 >= x12.  Integer patterns can be
counted by nested loops, giving an oracle that is independent of the whole
polyhedral kernel.
"""

import itertools
from fractions import Fraction

from conftest import is_ranked
from mpp.family import (Partition, hrep_chain_order, hrep_general,
                        generic_parameter, hypercube_vertices,
                        partition_of_parameter, zero_parameter)
from mpp.geometry import vertices
from mpp.lattice import ehrhart, is_integrally_closed, lattice_points
from mpp.poset import MarkedPoset, is_regular, validate
from mpp.family import is_tame
from mpp.tropical import check_vertex_degeneration_conjecture, generic_vertices


def interlacing_poset() -> MarkedPoset:
    return MarkedPoset(
        elements=("c", "b", "a", "x12", "x21", "x11"),
        covers=frozenset([("c", "x12"), ("x12", "b"), ("x12", "x21"),
                          ("x21", "x11"), ("b", "x11"), ("x11", "a")]),
        marking={"c": 0, "b": 1, "a": 2},
    )


def count_patterns(k: int) -> int:
    """Integer points with 2k >= x11 >= k >= x12 >= 0, x11 >= x21 >= x12."""
    total = 0
    for x11 in range(k, 2 * k + 1):
        for x12 in range(0, k + 1):
            total += x11 - x12 + 1
    return total


def test_poset_is_valid_ranked_regular_tame():
    poset = interlacing_poset()
    assert validate(poset) == []
    assert is_ranked(poset) and is_regular(poset)
    assert is_tame(poset)


def test_lattice_points_match_pattern_enumeration():
    poset = interlacing_poset()
    h = hrep_general(poset, zero_parameter(poset))
    pts = lattice_points(h)
    assert len(pts) == count_patterns(1) == 8
    idx = {c: i for i, c in enumerate(h.coords)}
    expected = {(x11, x12, x21)
                for x11 in range(1, 3) for x12 in range(0, 2)
                for x21 in range(x12, x11 + 1)}
    got = {(p[idx["x11"]], p[idx["x12"]], p[idx["x21"]]) for p in pts}
    assert got == expected


def test_ehrhart_is_cubed_binomial():
    # the pattern count for top row (2k, k, 0) works out to (k+1)^3
    poset = interlacing_poset()
    data = ehrhart(hrep_general(poset, zero_parameter(poset)), 4)
    assert [c for _, c in data.counts] == [count_patterns(k) for k in range(5)]
    assert [c for _, c in data.counts] == [(k + 1) ** 3 for k in range(5)]
    assert data.coefficients == (Fraction(1), Fraction(3), Fraction(3), Fraction(1))


def test_all_chain_order_members_equivalent_and_closed():
    poset = interlacing_poset()
    polys = set()
    for t in hypercube_vertices(poset):
        part = partition_of_parameter(poset, t)
        h = hrep_chain_order(poset, part)
        polys.add(ehrhart(h, 3).coefficients)
        assert is_integrally_closed(h, dilations=(2,))
    assert len(polys) == 1


def test_generic_vertices_and_conjecture():
    poset = interlacing_poset()
    t = generic_parameter(poset)
    gv = generic_vertices(poset, t)  # internally cross-checks both paths
    order_count = len(vertices(hrep_general(poset, zero_parameter(poset))).vertices)
    assert len(gv) >= order_count
    assert check_vertex_degeneration_conjecture(poset, t)["pass"]
