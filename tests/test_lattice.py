import importlib.util
import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (det, dilate, make_chain_poset, make_double_star, make_ex52,
                      make_grid, random_hrep, random_marked_poset, random_rat)
from mpp.family import (Partition, hrep_chain_order, hrep_general,
                        hypercube_vertices, one_parameter, partition_of_parameter,
                        zero_parameter)
from mpp import lattice
from mpp.geometry import (EmptyPolyhedron, NonLatticeVertices, TooLarge,
                          make_hrep, vertices)
from mpp.jsonio import poset_to_json
from mpp.lattice import ehrhart, is_integrally_closed, lattice_points
from mpp.linalg import homogenized
from mpp.poset import MarkedPoset
from mpp.tropical import compatible_ideal_chains


def F(n, d=1):
    return Fraction(n, d)


def test_chain_poset_order_polytope_count():
    poset = make_chain_poset()
    h = hrep_general(poset, zero_parameter(poset))
    pts = lattice_points(h)
    assert len(pts) == 6
    assert set(pts) == {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)}


def test_chain_poset_chain_polytope_count():
    poset = make_chain_poset()
    h = hrep_general(poset, one_parameter(poset))
    pts = lattice_points(h)
    assert len(pts) == 6
    assert set(pts) == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}


def test_empty_polytope_no_points():
    h = make_hrep(("x",), [], [((F(1),), F(0), ()), ((F(-1),), F(-1), ())])
    assert lattice_points(h) == []


def test_unit_segment_ehrhart():
    h = make_hrep(("x",), [], [((F(1),), F(1), ()), ((F(-1),), F(0), ())])
    data = ehrhart(h, 3)
    assert [c for _, c in data.counts] == [1, 2, 3, 4]
    assert data.coefficients == (F(1), F(1))  # k + 1


def test_chain_poset_ehrhart_equivalence():
    poset = make_chain_poset()
    h0 = hrep_general(poset, zero_parameter(poset))
    h1 = hrep_general(poset, one_parameter(poset))
    d0, d1 = ehrhart(h0, 4), ehrhart(h1, 4)
    assert d0.coefficients == d1.coefficients == (F(1), F(3), F(2))  # (k+1)(2k+1)
    assert [c for _, c in d0.counts] == [1, 6, 15, 28, 45]


def test_ex52_ehrhart_equivalent_across_hypercube():
    poset = make_ex52()
    polys = set()
    for t in hypercube_vertices(poset):
        data = ehrhart(hrep_general(poset, t), 3)
        polys.add(data.coefficients)
    assert len(polys) == 1


def test_ehrhart_leading_coefficient_positive_volume():
    poset = make_ex52()
    data = ehrhart(hrep_general(poset, zero_parameter(poset)), 3)
    dim = len(data.coefficients) - 1
    lead = data.coefficients[-1]
    fact = 1
    for i in range(2, dim + 1):
        fact *= i
    assert lead * fact > 0 and (lead * fact).denominator == 1


def test_ehrhart_rejects_non_lattice():
    h = make_hrep(("x",), [], [((F(2),), F(1), ()), ((F(-1),), F(0), ())])
    with pytest.raises(NonLatticeVertices):
        ehrhart(h, 2)


def unit_cube():
    return make_hrep(
        ("x", "y", "z"), [],
        [((F(1), F(0), F(0)), F(1), ()), ((F(-1), F(0), F(0)), F(0), ()),
         ((F(0), F(1), F(0)), F(1), ()), ((F(0), F(-1), F(0)), F(0), ()),
         ((F(0), F(0), F(1)), F(1), ()), ((F(0), F(0), F(-1)), F(0), ())])


def test_unit_cube_integrally_closed():
    assert is_integrally_closed(unit_cube())


def non_idp_simplex():
    """conv{0, e1, e2, e1+e2+3e3}: (1,1,1) in 2Q is not a sum of two points."""
    return make_hrep(
        ("x", "y", "z"), [],
        [((F(0), F(0), F(-1)), F(0), ()),
         ((F(-3), F(0), F(1)), F(0), ()),
         ((F(0), F(-3), F(1)), F(0), ()),
         ((F(3), F(3), F(-1)), F(3), ())])


def test_non_idp_simplex_fixture():
    from mpp.geometry import vertices
    h = non_idp_simplex()
    v = vertices(h)
    assert set(v.vertices) == {(F(0), F(0), F(0)), (F(1), F(0), F(0)),
                               (F(0), F(1), F(0)), (F(1), F(1), F(3))}
    assert not is_integrally_closed(h, dilations=(2,))


def test_integral_closure_holds_at_dilations_0_and_1():
    poset = make_ex52()
    for h in (hrep_general(poset, zero_parameter(poset)), unit_cube(), non_idp_simplex()):
        for dilations in ((0,), (1,), (0, 1), (1, 1)):
            assert is_integrally_closed(h, dilations)
    assert is_integrally_closed(hrep_general(poset, zero_parameter(poset)), (1, 2))
    assert is_integrally_closed(unit_cube(), (1, 2))
    assert not is_integrally_closed(non_idp_simplex(), (1, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        is_integrally_closed(unit_cube(), (2, -1))


def lattice_tetrahedron(vs):
    """The H-rep of conv(vs), four affinely independent integer points in
    R^3: per vertex, the plane through the other three, oriented away."""
    ineqs = []
    for i, v in enumerate(vs):
        a, b, c = [w for j, w in enumerate(vs) if j != i]
        u, w = [x - y for x, y in zip(b, a)], [x - y for x, y in zip(c, a)]
        n = (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])
        sign = 1 if sum(x * y for x, y in zip(n, v)) < sum(x * y for x, y in zip(n, a)) else -1
        ineqs.append((tuple(F(sign * x) for x in n), F(sign * sum(x * y for x, y in zip(n, a))),
                      ()))
    return make_hrep(("x", "y", "z"), [], ineqs)


def closed_by_k_fold_sums(h, k) -> bool:
    """Reference: every lattice point of k * h is a sum of k lattice points
    of h, by listing every multiset of k of them."""
    sums = {tuple(map(sum, zip(*combo)))
            for combo in itertools.combinations_with_replacement(lattice_points(h), k)}
    return sums.issuperset(lattice_points(dilate(h, k)))


def test_integral_closure_matches_k_fold_sums():
    rnd = random.Random(53)
    outcomes = set()
    tried = 0
    while tried < 12:
        vs = [tuple(rnd.randint(0, 3) for _ in range(3)) for _ in range(4)]
        if det([[F(x - y) for x, y in zip(v, vs[0])] for v in vs[1:]]) == 0:
            continue
        h = lattice_tetrahedron(vs)
        closed = {k: closed_by_k_fold_sums(h, k) for k in (2, 3)}
        assert is_integrally_closed(h, (2, 3)) == (closed[2] and closed[3])
        assert is_integrally_closed(h, (3,)) == closed[3]
        outcomes.add((closed[2], closed[3]))
        tried += 1
    assert len(outcomes) >= 2  # not vacuous: some tetrahedra are not closed


def test_ex52_chain_order_polytopes_integrally_closed():
    poset = make_ex52()
    unmarked = frozenset(poset.unmarked)
    for C in ({"p"}, {"p", "q", "r"}, set()):
        part = Partition(frozenset(C), unmarked - frozenset(C))
        h = hrep_chain_order(poset, part)
        assert is_integrally_closed(h)


def test_integral_closure_gates_each_fold_of_the_sumset(monkeypatch):
    # a fold adds each of Q's points to each sum so far: on the grid2x4
    # order polytope 5040 x 5040 pairs at fold 2, refused before the fold;
    # grid2x3 takes at most 3641 x 371 = 1,350,811 pairs, at fold 3
    def order_polytope(grid):
        return hrep_general(grid, zero_parameter(grid), projected=False)

    with pytest.raises(TooLarge, match="2-fold sumset takes 25401600 pairs"):
        is_integrally_closed(order_polytope(make_grid(2, 4)), (2, 3))
    assert is_integrally_closed(order_polytope(make_grid(2, 3)), (2, 3))
    # the unit cube's folds take 8, 64 and 27 x 8 = 216 pairs
    monkeypatch.setattr(lattice, "BOX_GATE", 216)
    assert is_integrally_closed(unit_cube(), (2, 3))
    monkeypatch.setattr(lattice, "BOX_GATE", 215)
    with pytest.raises(TooLarge, match=r"3-fold sumset takes 216 pairs \(gate 215\)"):
        is_integrally_closed(unit_cube(), (2, 3))


def test_ehrhart_gates_largest_dilation_before_any_scan(monkeypatch):
    # a 2x3 grid, all unmarked, with a bottom marked 0 and a top marked 5:
    # dilation 1 holds 6^6 box candidates but dilation 6 holds 31^6
    grid = [f"x{i}{j}" for i in range(2) for j in range(3)]
    covers = [(f"x0{j}", f"x1{j}") for j in range(3)]
    covers += [(f"x{i}{j}", f"x{i}{j + 1}") for i in range(2) for j in range(2)]
    covers += [("bot", "x00"), ("x12", "top")]
    poset = MarkedPoset(("bot", *grid, "top"), frozenset(covers), {"bot": 0, "top": 5})
    h = hrep_general(poset, zero_parameter(poset), projected=False)
    scan, scanned = lattice._scan, []

    def counted(*args, **kwargs):
        scanned.append(kwargs)
        return scan(*args, **kwargs)

    monkeypatch.setattr(lattice, "_scan", counted)
    with pytest.raises(TooLarge, match="dilation 6"):
        ehrhart(h)
    assert scanned == []
    # the same intercept sees every count when no box is too large
    segment = make_hrep(("x",), [], [((F(1),), F(1), ()), ((F(-1),), F(0), ())])
    assert [c for _, c in ehrhart(segment, 3).counts] == [1, 2, 3, 4]
    assert scanned == [{"k": k, "count": True} for k in (1, 2, 3)]


# -- the enumerator against a box-scan oracle -----------------------------------

def box_scan(h, lows, highs):
    """Oracle: every point of the box, checked against every integer-cleared
    row (the scan lattice_points ran before it enumerated depth-first)."""
    rows = []
    for group, is_eq in ((h.equations, True), (h.inequalities, False)):
        for c in group:
            m = math.lcm(*[x.denominator for x in c.coeffs + (c.rhs,)])
            rows.append(([int(x * m) for x in c.coeffs], int(c.rhs * m), is_eq))
    out = []
    for pt in itertools.product(*[range(lo, hi + 1) for lo, hi in zip(lows, highs)]):
        ok = True
        for coeffs, rhs, is_eq in rows:
            s = sum(a * x for a, x in zip(coeffs, pt))
            if (s != rhs) if is_eq else (s > rhs):
                ok = False
                break
        if ok:
            out.append(pt)
    return out


@pytest.mark.parametrize("seed", range(50))
def test_enumerator_matches_box_scan(seed):
    rnd = random.Random(seed)
    h = random_hrep(rnd, rnd.randint(1, 4))
    try:
        verts = vertices(h).vertices
    except EmptyPolyhedron:
        assert lattice_points(h) == []
    else:
        assert lattice_points(h) == box_scan(h, *lattice._box(lattice._extremes(homogenized(verts))))
        for k in (1, 2, 3):
            box = lattice._box(lattice._extremes(homogenized(verts)), k)
            expected = box_scan(dilate(h, k), *box)
            assert lattice._scan(h, *box, k=k) == expected
            assert lattice._scan(h, *box, k=k, count=True) == len(expected)
    # a box not fitted to the polytope, wider on some sides, cut on others
    box = ([rnd.randint(-3, 1) for _ in h.coords], [rnd.randint(0, 4) for _ in h.coords])
    expected = box_scan(h, *box)
    assert lattice._scan(h, *box) == expected
    assert lattice._scan(h, *box, count=True) == len(expected)


@pytest.mark.parametrize("poset", [make_grid(2, 3), make_double_star()],
                         ids=["grid2x3", "dstar"])
def test_memoized_search_matches_box_scan_at_every_corner(poset):
    # the chain-order polytopes at the hypercube's corners, where the search
    # meets the same residual subproblem below many prefixes
    text = ("[", ", ", "]")
    for t in hypercube_vertices(poset):
        h = hrep_general(poset, t)
        extremes = lattice._extremes(lattice._lattice_polytope(h, "a listing").rows)
        for k in (1, 2):
            box = lattice._box(extremes, k)
            expected = box_scan(dilate(h, k), *box)
            assert lattice._scan(h, *box, k=k) == expected
            assert lattice._scan(h, *box, k=k, text=text) == [
                "[" + ", ".join(map(str, p)) + "]" for p in expected]
            assert lattice._scan(h, *box, k=k, count=True) == len(expected)


def test_grid3x3_order_polytope_count():
    poset = make_grid(3, 3)
    h = hrep_general(poset, zero_parameter(poset), projected=False)
    box = lattice._box(lattice._extremes(homogenized(vertices(h).vertices)))
    assert math.prod(hi - lo + 1 for lo, hi in zip(*box)) == 7 ** 7
    assert len(lattice_points(h)) == 17472


# -- a listing is budgeted by its search, not by its box ------------------------

def grid_hrep(m, n):
    poset = make_grid(m, n)
    return hrep_general(poset, zero_parameter(poset), projected=False)


def test_grid2x5_lists_past_the_box_gate():
    # its bounding box holds 8^8 = 16,777,216 candidates, more than BOX_GATE,
    # but the search lists Stanley's 67,320 points
    h = grid_hrep(2, 5)
    extremes = lattice._extremes(homogenized(vertices(h).vertices))
    with pytest.raises(TooLarge, match="16777216 candidates"):
        lattice._box(extremes)
    assert math.prod(hi - lo + 1 for lo, hi in zip(*lattice._box(extremes, gated=False))) \
        == 8 ** 8
    assert len(lattice_points(h)) == 67320


def test_listing_stops_at_its_point_budget(monkeypatch):
    h = grid_hrep(2, 4)  # 5,040 points
    monkeypatch.setattr(lattice, "POINT_BUDGET", 5040)
    assert len(lattice_points(h)) == 5040
    monkeypatch.setattr(lattice, "POINT_BUDGET", 5039)
    with pytest.raises(TooLarge, match=r"listed \d+ points before it ended \(budget 5039\)"):
        lattice_points(h)


def test_listing_stops_at_its_node_budget(monkeypatch):
    # 4 free coordinates, each taking the values 0..5: the memoized search
    # visits at most 4 * 16 nodes, against 6^4 = 1,296 box candidates
    h = grid_hrep(2, 3)
    monkeypatch.setattr(lattice, "NODE_BUDGET", 16)
    assert len(lattice_points(h)) == 371
    monkeypatch.setattr(lattice, "NODE_BUDGET", 15)
    with pytest.raises(TooLarge, match=r"visited \d+ nodes over 4 free coordinates "
                                       r"\(budget 15 per coordinate\)"):
        lattice_points(h)


def test_point_budget_counts_a_memo_replay(monkeypatch):
    # grid2x4 pins x00 = 0 and x13 = 6.  With x01 = x02 = 0, every x03 leaves
    # the same 84 chains x10 <= x11 <= x12 in 0..6: the first are listed, the
    # next 84 are a replay from the memo, refused as one block
    h = grid_hrep(2, 4)
    monkeypatch.setattr(lattice, "POINT_BUDGET", 167)
    with pytest.raises(TooLarge, match=r"listed 168 points before it ended \(budget 167\)"):
        lattice_points(h)
    monkeypatch.setattr(lattice, "POINT_BUDGET", 168)
    with pytest.raises(TooLarge, match=r"listed 252 points before it ended \(budget 168\)"):
        lattice_points(h)


def test_listing_refuses_a_coordinate_wider_than_the_node_budget(monkeypatch):
    # a < p < b with marks 0 and 10: p takes the 11 values 0..10
    poset = MarkedPoset(("a", "p", "b"), frozenset({("a", "p"), ("p", "b")}),
                        {"a": 0, "b": 10})
    h = hrep_general(poset, zero_parameter(poset), projected=False)
    monkeypatch.setattr(lattice, "NODE_BUDGET", 11)
    assert len(lattice_points(h)) == 11
    monkeypatch.setattr(lattice, "NODE_BUDGET", 10)
    with pytest.raises(TooLarge, match="coordinate p takes 11 values"):
        lattice_points(h)


@pytest.mark.parametrize("seed", range(50))
def test_text_points_are_the_tuple_points_joined(seed):
    rnd = random.Random(seed)
    h = random_hrep(rnd, rnd.randint(1, 4))
    text = ("<", "|", ">")
    expected = ["<" + "|".join(map(str, p)) + ">" for p in lattice_points(h)]
    assert lattice_points(h, text) == expected
    box = ([rnd.randint(-3, 1) for _ in h.coords], [rnd.randint(0, 4) for _ in h.coords])
    assert lattice._scan(h, *box, text=text) == [
        "<" + "|".join(map(str, p)) + ">" for p in lattice._scan(h, *box)]


# -- pinned coordinates: a box of one value is folded into the right-hand sides

def pinned_hrep():
    """a - b + c = 1, every coordinate >= 0, a + b + c + d <= 5, a - 2d <= 1."""
    ineqs = [(tuple(F(-int(i == j)) for j in range(4)), F(0), ()) for i in range(4)]
    ineqs += [((F(1), F(1), F(1), F(1)), F(5), ()), ((F(1), F(0), F(0), F(-2)), F(1), ())]
    return make_hrep(("a", "b", "c", "d"), [((F(1), F(-1), F(1), F(0)), F(1), ())], ineqs)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("pinned", [(0,), (1,), (3,), (0, 3), (0, 1, 2, 3)],
                         ids=["first", "middle", "last", "ends", "everywhere"])
def test_enumerator_folds_pinned_coordinates(pinned, k):
    h = pinned_hrep()
    lows, highs = [-1] * 4, [5 * k] * 4
    for j in pinned:
        lows[j] = highs[j] = 1
    expected = box_scan(dilate(h, k), lows, highs)
    # (1, 1, 1, 1) is the one point of the all-pinned box at k = 1 only
    assert expected or (len(pinned) == 4 and k == 2)
    assert lattice._scan(h, lows, highs, k=k) == expected
    assert lattice._scan(h, lows, highs, k=k, count=True) == len(expected)


@pytest.mark.parametrize("box,found", [
    (([-1, -1, -1, -1], [5, 5, -1, 5]), False),  # c pinned to -1 violates c >= 0
    (([0, 0, 0, 3], [5, 5, 5, 3]), True),        # d pinned to 3 in a row with free a
    (([0, 0, 0, 0], [5, 5, 5, 5]), True),
    (([0, 3, 0, 0], [5, 2, 5, 5]), False),       # an empty box: lo > hi on b
    (([0, 0, 0, 0], [0, 0, 0, 0]), False),       # the origin violates the equation
], ids=["violating-pin", "pinned-last", "unpinned", "empty-box", "all-pinned-off"])
def test_enumerator_pinned_edge_cases(box, found):
    h = pinned_hrep()
    expected = box_scan(h, *box)
    assert bool(expected) == found
    assert lattice._scan(h, *box) == expected
    assert lattice._scan(h, *box, count=True) == len(expected)


def test_all_pinned_box_is_one_point_or_none():
    h = pinned_hrep()
    assert lattice._scan(h, [1, 1, 1, 1], [1, 1, 1, 1]) == [(1, 1, 1, 1)]
    assert lattice._scan(h, [1, 1, 1, 1], [1, 1, 1, 1], count=True) == 1
    assert lattice._scan(h, [2, 1, 0, 0], [2, 1, 0, 0]) == []  # a - 2d <= 1 fails


# -- Ehrhart interpolation in integers against Lagrange in Fractions -----------

def lagrange(points):
    """Oracle: the interpolating polynomial through (x, y) points, expanded in
    Fractions, lowest degree first (what ehrhart ran before it interpolated
    in integers)."""
    coeffs = [F(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        poly, denom = [F(1)], F(1)  # prod_{j != i} (x - xj), expanded
        for j, (xj, _) in enumerate(points):
            if j != i:
                poly = [F(0)] + poly
                for d in range(len(poly) - 1):
                    poly[d] -= xj * poly[d + 1]
                denom *= xi - xj
        for d, c in enumerate(poly):
            coeffs[d] += yi * c / denom
    return coeffs


@pytest.mark.parametrize("seed", range(20))
def test_interpolation_matches_lagrange(seed):
    rnd = random.Random(seed)
    n = rnd.randint(1, 9)
    if seed % 2:  # values of a polynomial of lower degree: top coefficients 0
        poly = [random_rat(rnd, -5, 5) for _ in range(rnd.randint(1, n))]
        values = [sum(c * k ** i for i, c in enumerate(poly)) for k in range(n)]
        values = [int(v * math.lcm(*(c.denominator for c in poly))) for v in values]
    else:
        values = [rnd.randint(-10 ** 6, 10 ** 6) for _ in range(n)]
    coeffs, den = lattice._interpolate(values)
    assert [F(a, den) for a in coeffs] == lagrange(list(enumerate(values)))


def test_box_rounds_rational_extremes_inwards():
    # k * conv of (1/3, -1/2) and (5/2, 7/3) at k = 2: x in [2/3, 5], y in [-1, 14/3]
    extremes = lattice._extremes(homogenized([(F(1, 3), F(-1, 2)), (F(5, 2), F(7, 3))]))
    assert lattice._box(extremes) == ([1, 0], [2, 2])
    assert lattice._box(extremes, 2) == ([1, -1], [5, 4])


# -- Ehrhart: dim + 1 counts fix the polynomial, the others check it -----------

def test_ehrhart_interpolates_through_dim_plus_one_counts(monkeypatch):
    poset = make_ex52()
    h = hrep_general(poset, zero_parameter(poset))
    default = ehrhart(h)
    interpolate, seen = lattice._interpolate, []

    def recorded(values):
        seen.append(list(values))
        return interpolate(values)

    monkeypatch.setattr(lattice, "_interpolate", recorded)
    data = ehrhart(h, 3 + 50)  # ex52 is 3-dimensional
    assert seen == [[c for _, c in default.counts]] and len(seen[0]) == 4
    assert data.coefficients == default.coefficients
    assert [k for k, _ in data.counts] == list(range(54))


def test_ehrhart_refuses_a_count_off_its_polynomial(monkeypatch):
    poset = make_ex52()
    h = hrep_general(poset, zero_parameter(poset))
    scan = lattice._scan

    def corrupted(*args, k, **kwargs):
        return scan(*args, k=k, **kwargs) + (k == 5)

    monkeypatch.setattr(lattice, "_scan", corrupted)
    assert ehrhart(h, 4).coefficients == ehrhart(h).coefficients  # 5 is not counted
    with pytest.raises(AssertionError, match="failed to reproduce a count"):
        ehrhart(h, 5)


@pytest.mark.parametrize("poset", [make_ex52(), make_grid(2, 3)], ids=["ex52", "grid2x3"])
def test_ehrhart_polynomial_evaluates_to_every_count(poset):
    data = ehrhart(hrep_general(poset, zero_parameter(poset)), 8)
    assert len(data.counts) == 9
    for k, count in data.counts:
        assert data.evaluate(k) == count


# -- Ehrhart counts of O_0 over the order ideals --------------------------------

def _scan_counts(poset, dilations):
    """The enumeration's counts of k * O_0, in boxes that no gate refuses."""
    h = hrep_general(poset, zero_parameter(poset), projected=False)
    extremes = lattice._extremes(lattice._lattice_polytope(h, "Ehrhart counting").rows)
    return [lattice._scan(h, *lattice._box(extremes, k, gated=False), k=k, count=True)
            for k in dilations]


def _ideal_counts(poset, dilations):
    data = lattice.ideal_ehrhart(poset, max(*dilations, len(poset.unmarked)))
    return [data.counts[k][1] for k in dilations]


@pytest.mark.parametrize("block", range(10))
def test_ideal_counts_match_the_enumeration(block):
    # seeded draws with integral markings; every third one has its marks
    # halved and rounded down, so comparable marked elements share values
    for seed in range(30 * block, 30 * block + 30):
        rnd = random.Random(seed)
        poset = random_marked_poset(rnd, rnd.randint(2, 8), mark_extra=0.3,
                                    scale=rnd.randint(1, 2))
        if seed % 3 == 0:
            poset = MarkedPoset(poset.elements, poset.covers,
                                {e: v // 2 for e, v in poset.marking.items()})
        assert lattice.counted_by_ideals(poset, zero_parameter(poset))
        assert _ideal_counts(poset, (1, 2, 3)) == _scan_counts(poset, (1, 2, 3)), seed


def _chain_sum(poset, k):
    """Oracle: the sum over the compatible ideal chains of the product, over
    each run of j unmarked blocks between marked values v < w, of
    C(k (w - v) - 1, j)."""
    total = 0
    for chain in compatible_ideal_chains(poset):
        term, v, j = 1, None, 0
        for low, high in zip(chain, chain[1:]):
            values = {int(poset.marking[x]) for x in high - low if x in poset.marking}
            if not values:
                j += 1
                continue
            (w,) = values
            if v is not None:
                term *= math.comb(k * (w - v) - 1, j)
            v, j = w, 0
        total += term
    return total


@pytest.mark.parametrize("poset", [make_ex52(), make_double_star(), make_grid(2, 3)],
                         ids=["ex52", "dstar", "grid2x3"])
def test_ideal_counts_are_sums_over_ideal_chains(poset):
    dilations = (1, 2, 3, 4)
    assert _ideal_counts(poset, dilations) == [_chain_sum(poset, k) for k in dilations]


@pytest.mark.parametrize("poset", [make_ex52(), make_double_star(), make_grid(2, 3)],
                         ids=["ex52", "dstar", "grid2x3"])
def test_ehrhart_at_every_corner_is_the_chain_order_count(poset):
    # over the order ideals at C = {}, on hrep_general elsewhere; the
    # chain-order H-rep of the same corner is the reference
    for t in hypercube_vertices(poset):
        part = partition_of_parameter(poset, t)
        expected = ehrhart(hrep_chain_order(poset, part, projected=False))
        assert lattice.ehrhart_at(poset, t) == expected, t


ORACLES = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"


@pytest.mark.parametrize("m,n", [(2, 3), (2, 4)])
def test_memoized_counts_are_the_ideal_counts_through_dilation_n(m, n):
    # k = 1..n, the unmarked elements: the dilations that fix the polynomial
    poset = make_grid(m, n)
    dilations = range(1, len(poset.unmarked) + 1)
    assert _scan_counts(poset, dilations) == _ideal_counts(poset, dilations)


def test_grid_counts_are_stanleys_multichain_counts():
    # gridMxN marks its bottom 0 and its top M + N, so k * O_0 holds the
    # order-preserving maps of the unmarked part into 0..k (M + N): multichains
    # of k (M + N) order ideals
    spec = importlib.util.spec_from_file_location("mpp_bench_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    for (m, n), dilations in (((3, 3), (7,)), ((2, 6), (1, 2, 3))):
        poset = make_grid(m, n)
        P = oracles.Poset.from_json(poset_to_json(poset))
        assert _ideal_counts(poset, dilations) == [
            oracles.multichain_count(P, k * (m + n)) for k in dilations]
    assert _ideal_counts(make_grid(3, 3), (7,)) == [2_660_647_704]


def test_ideal_budget_refuses_while_the_ideals_are_built(monkeypatch):
    # a < m_1..m_20 < z: 2^20 + 2 ideals, 21 block counts and 21 dilations
    mids = [f"m{i:02d}" for i in range(20)]
    antichain = MarkedPoset(("a", *mids, "z"), [("a", m) for m in mids] +
                            [(m, "z") for m in mids], {"a": 0, "z": 1})
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=r"built 32769 order ideals before it ended, and "
                       r"that times 441 \(unmarked elements \+ 1, times dilations \+ 1\) "
                       r"exceeds its budget of 10000000") as refused:
        lattice.ideal_ehrhart(antichain)
    assert time.perf_counter() - start < 1
    assert refused.traceback[-1].name == "_levels"  # before any sum
    # grid2x2: 6 ideals (1, 4 and 1 on its levels) x 3 block counts x 3
    # dilations
    grid = make_grid(2, 2)
    monkeypatch.setattr(lattice, "IDEAL_BUDGET", 54)
    assert [c for _, c in lattice.ideal_ehrhart(grid).counts] == [1, 25, 81]
    monkeypatch.setattr(lattice, "IDEAL_BUDGET", 53)
    with pytest.raises(TooLarge, match="built 6 order ideals before it ended, and that "
                       "times 9 "):
        lattice.ideal_ehrhart(grid)


def test_ideal_counts_need_t0_an_integral_marking_and_a_bounded_polytope():
    poset = make_ex52()
    assert lattice.counted_by_ideals(poset, zero_parameter(poset))
    assert not lattice.counted_by_ideals(poset, one_parameter(poset))
    half = MarkedPoset(poset.elements, poset.covers,
                       {**poset.marking, "3": Fraction(5, 2)})
    assert not lattice.counted_by_ideals(half, zero_parameter(half))
    open_top = MarkedPoset(("a", "p"), [("a", "p")], {"a": 0})
    assert not lattice.counted_by_ideals(open_top, zero_parameter(open_top))


def test_ideal_count_walks_only_the_ideals_a_level_set_chain_can_pass():
    # twenty minimal elements marked 0 below u below z marked 1: P has
    # 2^20 + 2 order ideals, but a chain of level sets takes all twenty
    # marked elements in one block, so the count walks 1, 2 and 1 ideals on
    # its three levels
    mins = [f"a{i:02d}" for i in range(20)]
    poset = MarkedPoset((*mins, "u", "z"), [(m, "u") for m in mins] + [("u", "z")],
                        {**{m: 0 for m in mins}, "z": 1})
    assert [len(ideals) for _, _, ideals in lattice._levels(poset, [0, 1], 1)] == [1, 2, 1]
    assert _ideal_counts(poset, (1, 2, 3)) == _scan_counts(poset, (1, 2, 3)) == [2, 3, 4]
    # the ideal chains walk the same levels: three chains, found without
    # the 2^20 ideals of the twenty marked minimals
    start = time.perf_counter()
    assert len(compatible_ideal_chains(poset)) == 3
    assert time.perf_counter() - start < 1


def _split(lows, highs, chains):
    """a (0) < the lows < m (1) < the highs < z (2): the lows and the highs
    each one chain, or each an antichain."""
    covers = []
    for below, names, above in (("a", lows, "m"), ("m", highs, "z")):
        if chains:
            covers += list(zip((below, *names), (*names, above)))
        else:
            covers += [(below, e) for e in names] + [(e, above) for e in names]
    return MarkedPoset(("a", *lows, "m", *highs, "z"), covers, {"a": 0, "m": 1, "z": 2})


@pytest.mark.parametrize("chains", [True, False], ids=["chains", "antichains"])
def test_ideal_counts_past_a_marked_middle_are_products(chains):
    # the values below m range over 0..k and those above it over k..2k,
    # independently: C(k + a, a) C(k + b, b) points for two chains of a and
    # b elements, (k + 1)^(a + b) for two antichains.  From level 2 on the
    # values of all dilations share one int, and these counts are the
    # largest the tests see there
    a, b = (12, 9) if chains else (4, 5)
    poset = _split([f"p{i:02d}" for i in range(a)], [f"q{i:02d}" for i in range(b)], chains)
    for k, count in lattice.ideal_ehrhart(poset).counts:
        assert count == (math.comb(k + a, a) * math.comb(k + b, b) if chains
                         else (k + 1) ** (a + b))
