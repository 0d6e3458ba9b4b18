import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (chain_tight, fraction_hrep_chain_order, fraction_hrep_general,
                      fraction_hrep_json, fraction_int_row, fraction_make_hrep, fraction_phi,
                      fraction_psi, fraction_row, fraction_theta_projected, is_unimodular,
                      make_chain_poset, make_double_star, make_ex52, make_ex52_rational,
                      make_grid, maximizing_relation, normalized, random_marked_poset,
                      random_parameter, random_point, sevenths_and_fifths, transfer_psi_closed,
                      triples, unimodular_move)
from mpp.family import (Parameter, Partition, eliminate_redundancy, facet_count,
                        facet_count_delta, generic_parameter, hrep_chain_order, hrep_general,
                        hypercube_vertices, iota, is_tame, one_parameter,
                        partition_of_parameter, transfer_phi, transfer_phi_projected,
                        transfer_psi, transfer_psi_projected, transfer_theta,
                        transfer_theta_homogeneous, transfer_theta_projected, zero_parameter)
from mpp.geometry import EmptyPolyhedron, face_lattice, make_hrep, vertices
from mpp.lattice import lattice_points
from mpp.poset import MarkedPoset, PosetError, saturated_chains_to


def F(n, d=1):
    return Fraction(n, d)


def tiny_marked_chain():
    return MarkedPoset(("a", "p", "b"), frozenset([("a", "p"), ("p", "b")]),
                       {"a": 0, "b": 1})


# -- H-representations ----------------------------------------------------------

def constraint_set(h):
    return {(c.coeffs, c.rhs) for c in h.inequalities}


def test_hrep_general_marked_order_case():
    poset = tiny_marked_chain()
    h = hrep_general(poset, zero_parameter(poset))
    # {0 <= x_p, x_p <= 1} in the projected space
    assert h.coords == ("p",)
    assert constraint_set(h) == {((F(-1),), F(0)), ((F(1),), F(1))}


def test_hrep_general_t_one():
    poset = tiny_marked_chain()
    h = hrep_general(poset, one_parameter(poset))
    # chain a < p gives 0 <= x_p; chain a < p < b gives x_p + t_p*0 <= 1
    assert constraint_set(h) == {((F(-1),), F(0)), ((F(1),), F(1))}


def test_hrep_general_fractional_expansion(ex52):
    t = Parameter({"p": F(0), "q": F(0), "r": F(1, 2)})
    h = hrep_general(ex52, t)
    chain_0pr = next(c for c in h.inequalities
                     if c.origin == ("chain", "0", "p", "r"))
    # (1 - 1/2)(t_p x_0 + x_p) <= x_r projects to x_p/2 - x_r <= 0
    idx = {c: i for i, c in enumerate(h.coords)}
    assert chain_0pr.coeffs[idx["p"]] == F(1, 2)
    assert chain_0pr.coeffs[idx["r"]] == F(-1)
    assert chain_0pr.coeffs[idx["q"]] == 0
    assert chain_0pr.rhs == 0


@pytest.mark.parametrize("projected", [True, False])
def test_hrep_general_names_missing_coordinates(ex52, projected):
    # t lacks q and r: an input error naming them, not a bare KeyError
    with pytest.raises(PosetError, match=r"missing \['q', 'r'\], extra \[\]"):
        hrep_general(ex52, Parameter({"p": F(1, 2)}), projected=projected)


def test_hrep_general_names_extra_coordinates(ex52):
    # a coordinate outside the unmarked elements is refused, not ignored
    t = Parameter({"p": F(1, 2), "q": F(1, 2), "r": F(1, 2), "zz": F(1, 3)})
    with pytest.raises(PosetError, match=r"missing \[\], extra \['zz'\]"):
        hrep_general(ex52, t)
    with pytest.raises(PosetError, match=r"extra \['0'\]"):
        hrep_general(ex52, Parameter({"p": 0, "q": 0, "r": 0, "0": 0}))


@pytest.mark.parametrize("value", [F(-1, 2), F(-1), F(3, 2), F(1001, 1000), "5/4", 2])
def test_parameter_refuses_a_coordinate_outside_the_unit_interval(value):
    with pytest.raises(ValueError, match=r"t_p = .* outside \[0, 1\]"):
        Parameter({"p": value})


def test_parameter_accepts_the_unit_interval():
    t = Parameter({"a": 0, "b": F(1, 1000), "c": F(999, 1000), "d": "1"})
    assert t["a"] == 0 and t["d"] == 1


def test_hrep_chain_order_pure_order_case(ex52):
    part = Partition(frozenset(), frozenset(ex52.unmarked))
    h = hrep_chain_order(ex52, part)
    t0 = hrep_general(ex52, zero_parameter(ex52))
    assert set(vertices(h).vertices) == set(vertices(t0).vertices)
    # syntactically: exactly one x_a <= x_b row per cover, marked pairs omitted
    full = hrep_chain_order(ex52, part, projected=False)
    idx = {c: i for i, c in enumerate(full.coords)}
    expected = set()
    for a, b in ex52.covers:
        if a in ex52.marked and b in ex52.marked:
            continue
        row = [F(0)] * len(full.coords)
        row[idx[a]] += F(1)
        row[idx[b]] -= F(1)
        expected.add((tuple(row), F(0)))
    assert {(c.coeffs, c.rhs) for c in full.inequalities} == expected


def test_hrep_chain_order_full_chain_case():
    poset = make_chain_poset()
    part = Partition(frozenset({"p", "q"}), frozenset())
    h = hrep_chain_order(poset, part)
    assert constraint_set(h) == {((F(-1), F(0)), F(0)), ((F(0), F(-1)), F(0)),
                                 ((F(1), F(1)), F(2))}


def test_hypercube_vertex_consistency_random():
    rnd = random.Random(99)
    done = 0
    while done < 8:
        poset = random_marked_poset(rnd, rnd.randint(3, 6), bounded=False,
                                    max_unmarked=4)
        done += 1
        for t in hypercube_vertices(poset):
            part = partition_of_parameter(poset, t)
            va = vertices(hrep_general(poset, t))
            vb = vertices(hrep_chain_order(poset, part))
            assert set(va.vertices) == set(vb.vertices)
            assert set(va.rays) == set(vb.rays)


# -- transfer maps ----------------------------------------------------------------

def test_phi_identity_at_zero(ex52):
    x = {e: F(3, 7) for e in ex52.elements}
    assert transfer_phi(ex52, zero_parameter(ex52), x) == x
    assert transfer_psi(ex52, zero_parameter(ex52), x) == x


def test_phi_chain_poset_hand_computed():
    poset = MarkedPoset(("a", "p", "q", "b"),
                        frozenset([("a", "p"), ("p", "q"), ("q", "b")]),
                        {"a": 0, "b": 2})
    t = Parameter({"p": 1, "q": 1})
    x = {"a": F(0), "p": F(1), "q": F(2), "b": F(2)}
    y = transfer_phi(poset, t, x)
    assert y == {"a": F(0), "p": F(1), "q": F(1), "b": F(2)}


def test_phi_ex52_vertex(ex52):
    t = Parameter({"p": F(1, 3), "q": F(1, 5), "r": F(1, 2)})
    x = iota(ex52, {"p": F(2), "q": F(2), "r": F(2)})
    y = transfer_phi(ex52, t, x)
    assert y["r"] == F(1)  # 2 - (1/2) max(2, 2, 2)
    assert y["p"] == F(2) and y["q"] == F(2)  # covers are marked at 0


def test_psi_single_element_closed_form():
    poset = tiny_marked_chain()
    t = Parameter({"p": F(2, 3)})
    y = {"a": F(0), "p": F(5), "b": F(1)}
    out = transfer_psi_closed(poset, t, y)
    assert out["p"] == F(5) + F(2, 3) * 0


def test_psi_closed_t_one_cumulative():
    poset = make_chain_poset()
    t = one_parameter(poset)
    y = {"a": F(1), "p": F(2), "q": F(3), "b": F(9)}
    out = transfer_psi_closed(poset, t, y)
    assert out["p"] == 3 and out["q"] == 6  # cumulative sums


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_transfer_bijectivity_random(seed):
    rnd = random.Random(seed)
    poset = random_marked_poset(rnd, rnd.randint(2, 8), bounded=False)
    t = random_parameter(rnd, poset)
    x = random_point(rnd, poset.elements)
    assert transfer_psi(poset, t, transfer_phi(poset, t, x)) == x
    assert transfer_phi(poset, t, transfer_psi(poset, t, x)) == x
    assert transfer_psi_closed(poset, t, x) == transfer_psi(poset, t, x)


def _kernel_cases():
    """Posets with integer and rational markings, bounded or not, and
    parameters mixing sevenths and fifths, interior or with 0/1 coordinates."""
    rnd = random.Random(2024)
    posets = [make_ex52(), make_ex52_rational(), make_double_star(), make_grid(2, 3)]
    posets += [random_marked_poset(rnd, rnd.randint(2, 8), bounded=rnd.random() < 0.5,
                                   scale=rnd.choice((1, 3))) for _ in range(12)]
    for poset in posets:
        for _ in range(6):
            interior = rnd.random() < 0.5
            t = Parameter(sevenths_and_fifths(rnd, poset.unmarked, interior))
            t2 = Parameter(sevenths_and_fifths(rnd, poset.unmarked, not interior))
            yield rnd, poset, t, t2
        corners = list(hypercube_vertices(poset))
        yield rnd, poset, rnd.choice(corners), rnd.choice(corners)


def test_kernel_matches_fraction_recursions_and_closed_form():
    # random points lie outside the polytopes as often as not, and the
    # marked coordinates are taken from the input point
    for rnd, poset, t, t2 in _kernel_cases():
        for _ in range(3):
            x = random_point(rnd, poset.elements, den=35)
            assert transfer_phi(poset, t, x) == fraction_phi(poset, t, x)
            assert transfer_psi(poset, t, x) == fraction_psi(poset, t, x)
            assert transfer_psi(poset, t, x) == transfer_psi_closed(poset, t, x)
            assert (transfer_theta(poset, t, t2, x)
                    == fraction_phi(poset, t2, fraction_psi(poset, t, x)))


def test_homogeneous_theta_matches_fraction_recursions():
    for rnd, poset, t, t2 in _kernel_cases():
        theta = transfer_theta_homogeneous(poset, t, t2)
        phi = transfer_theta_homogeneous(poset, None, t2)
        psi = transfer_theta_homogeneous(poset, t, None)
        points, homs = [], []
        for _ in range(3):
            y = random_point(rnd, poset.unmarked, den=35)
            w0 = math.lcm(*(v.denominator for v in y.values())) * rnd.randint(1, 3)
            points.append(y)
            homs.append((w0,) + tuple(int(y[p] * w0) for p in poset.unmarked))
            assert transfer_theta_projected(poset, t, t2, y) == fraction_theta_projected(
                poset, t, t2, y)
        # the three rows in one batch, and each again as a batch of one
        for fn, want in ((theta, lambda y: fraction_theta_projected(poset, t, t2, y)),
                         (phi, lambda y: transfer_phi_projected(poset, t2, y)),
                         (psi, lambda y: transfer_psi_projected(poset, t, y))):
            batch = fn(homs)
            assert len(batch) == len(homs)
            for y, hom, img in zip(points, homs, batch):
                assert fn([hom]) == [img]
                assert img[0] > 0
                assert {p: Fraction(v, img[0]) for p, v in zip(poset.unmarked, img[1:])} == want(y)


def test_theta_identity_and_composition(ex52):
    rnd = random.Random(4)
    t = random_parameter(rnd, ex52)
    t2 = random_parameter(rnd, ex52)
    t3 = random_parameter(rnd, ex52)
    for _ in range(20):
        y = random_point(rnd, ex52.elements)
        assert transfer_theta(ex52, t, t, y) == y
        lhs = transfer_theta(ex52, t2, t3, transfer_theta(ex52, t, t2, y))
        assert lhs == transfer_theta(ex52, t, t3, y)
        assert transfer_theta(ex52, zero_parameter(ex52), t, y) == transfer_phi(ex52, t, y)


def test_projected_round_trip(ex52):
    rnd = random.Random(8)
    h = hrep_general(ex52, zero_parameter(ex52))
    v = vertices(h)
    t = random_parameter(rnd, ex52)
    for p in v.vertices:
        x = dict(zip(h.coords, p))
        y = transfer_phi_projected(ex52, t, x)
        assert set(y) == set(ex52.unmarked)
        back = transfer_psi_projected(ex52, t, y)
        assert back == {k: Fraction(v) for k, v in x.items()}


def test_phi_maps_into_o_t(ex52):
    rnd = random.Random(21)
    h0 = hrep_general(ex52, zero_parameter(ex52))
    v0 = vertices(h0)
    for _ in range(10):
        t = random_parameter(rnd, ex52)
        ht = hrep_general(ex52, t)
        for p in v0.vertices:
            y = transfer_phi_projected(ex52, t, dict(zip(h0.coords, p)))
            assert ht.contains(tuple(y[c] for c in ht.coords))


def test_phi_maps_into_o_t_random_posets():
    # random interior points of O(P,lambda) via convex combinations of vertices
    rnd = random.Random(55)
    done = 0
    while done < 6:
        poset = random_marked_poset(rnd, rnd.randint(3, 6), bounded=True,
                                    max_unmarked=4)
        if not poset.unmarked:
            continue
        h0 = hrep_general(poset, zero_parameter(poset))
        try:
            v0 = vertices(h0)
        except EmptyPolyhedron:
            continue
        done += 1
        for _ in range(5):
            t = random_parameter(rnd, poset)
            ht = hrep_general(poset, t)
            weights = [F(rnd.randint(0, 5)) for _ in v0.vertices]
            s = sum(weights, F(0))
            if s == 0:
                continue
            x = tuple(sum((w * p[k] for w, p in zip(weights, v0.vertices)), F(0)) / s
                      for k in range(len(h0.coords)))
            y = transfer_phi_projected(poset, t, dict(zip(h0.coords, x)))
            assert ht.contains(tuple(y[c] for c in ht.coords))


# -- maximizing relation and tightness ----------------------------------------------

def test_maximizing_relation_ex52(ex52):
    x = iota(ex52, {"p": F(2), "q": F(2), "r": F(3)})
    rel = maximizing_relation(ex52, x)
    r_pairs = {qp for qp in rel if qp[1] == "r"}
    assert r_pairs == {("2", "r"), ("p", "r"), ("q", "r")}


def test_maximizing_relation_strict_chain():
    poset = make_chain_poset()
    x = {"a": F(0), "p": F(1), "q": F(2), "b": F(3)}
    rel = maximizing_relation(poset, x)
    assert rel == frozenset({("a", "p"), ("p", "q"), ("q", "b")})


def test_maximizing_relation_translation_invariant(ex52):
    rnd = random.Random(5)
    x = random_point(rnd, ex52.elements)
    shifted = {k: v + F(7, 3) for k, v in x.items()}
    assert maximizing_relation(ex52, x) == maximizing_relation(ex52, shifted)


def _chain_coefficients(poset, t, chain):
    """Left-hand side of the chain's inequality by its product formula,
    (1 - t_p) * (t_{p_1}...t_{p_r} x_{p_0} + ... + x_{p_r})."""
    tp = F(0) if chain.target in poset.marked else t[chain.target]
    r = len(chain.below) - 1
    coeffs = {}
    for i, e in enumerate(chain.below):
        w = 1 - tp
        for j in range(i + 1, r + 1):
            w *= t[chain.below[j]]
        coeffs[e] = w
    return coeffs


def _tight_by_substitution(poset, t, x, chain):
    y = transfer_phi(poset, t, x)
    coeffs = _chain_coefficients(poset, t, chain)
    lhs = sum((c * y[e] for e, c in coeffs.items()), F(0))
    return lhs == y[chain.target]


def test_tightness_interior_point_false(ex52):
    t = generic_parameter(ex52)
    x = iota(ex52, {"p": F(1, 2), "q": F(1), "r": F(7, 2)})  # interior of O
    for p in ex52.elements:
        for chain in saturated_chains_to(ex52, p):
            assert not chain_tight(ex52, t, x, chain)


def test_tightness_matches_substitution_random():
    rnd = random.Random(17)
    trials = 0
    while trials < 1000:
        poset = random_marked_poset(rnd, rnd.randint(3, 6), bounded=True)
        h = hrep_general(poset, zero_parameter(poset))
        try:
            v = vertices(h)
        except EmptyPolyhedron:
            continue
        t = random_parameter(rnd, poset)
        chains = [c for p in poset.elements for c in saturated_chains_to(poset, p)]
        for vx in v.vertices:
            x = iota(poset, dict(zip(h.coords, vx)))
            for chain in chains:
                trials += 1
                assert chain_tight(poset, t, x, chain) == \
                    _tight_by_substitution(poset, t, x, chain)


def test_tightness_t_zero_reduces_to_constancy():
    poset = make_chain_poset()
    t = zero_parameter(poset)
    chain = saturated_chains_to(poset, "q")[0]  # (a, p) -> q
    x1 = {"a": F(0), "p": F(1), "q": F(1), "b": F(2)}
    x2 = {"a": F(0), "p": F(1), "q": F(2), "b": F(2)}
    assert chain_tight(poset, t, x1, chain)       # x_q = x_p
    assert not chain_tight(poset, t, x2, chain)


# -- redundancy, tameness, facet counts ------------------------------------------------

def test_duplicate_constraint_removed():
    from mpp.geometry import make_hrep
    h = make_hrep(("x",), [],
                  [((F(1),), F(1), ("a",)), ((F(1),), F(1), ("b",)),
                   ((F(-1),), F(0), ("c",))])
    out = eliminate_redundancy(h)
    assert len(out.inequalities) == 2


def test_redundant_cover_inequality_dropped():
    # the cover p < q is redundant (witness a <= q, p <= b, lambda(a) >= lambda(b));
    # its order-description inequality x_p <= x_q is implied and gets dropped
    poset = MarkedPoset(("a", "b", "c", "p", "q"),
                        frozenset([("c", "p"), ("a", "q"), ("p", "q"), ("p", "b")]),
                        {"a": 2, "b": 1, "c": 0})
    h = hrep_general(poset, zero_parameter(poset))
    out = eliminate_redundancy(h)
    kept_origins = {c.origin for c in out.inequalities}
    assert ("chain", "c", "p", "q") not in kept_origins
    assert len(out.inequalities) == len(h.inequalities) - 1


def test_implicit_equality_detected():
    from mpp.geometry import make_hrep
    h = make_hrep(("x", "y"), [],
                  [((F(1), F(0)), F(1), ()), ((F(-1), F(0)), F(-1), ()),
                   ((F(0), F(1)), F(1), ()), ((F(0), F(-1)), F(0), ())])
    out = eliminate_redundancy(h)
    assert len(out.equations) == 1
    assert len(out.inequalities) == 2


def test_eliminate_redundancy_empty():
    from mpp.geometry import make_hrep
    h = make_hrep(("x",), [], [((F(1),), F(0), ()), ((F(-1),), F(-1), ())])
    with pytest.raises(EmptyPolyhedron,
                       match="^cannot eliminate redundancy of an empty polyhedron$"):
        eliminate_redundancy(h)


def test_ex52_chain_order_irredundant(ex52):
    for t in hypercube_vertices(ex52):
        part = partition_of_parameter(ex52, t)
        h = hrep_chain_order(ex52, part)
        out = eliminate_redundancy(h)
        assert len(out.inequalities) == len(h.inequalities)
        assert not out.equations


def test_tame_regular_ranked(ex52):
    assert is_tame(ex52)


def test_constant_interval_not_tame():
    poset = MarkedPoset(("a", "p", "b", "t"),
                        frozenset([("a", "p"), ("p", "b"), ("b", "t")]),
                        {"a": 1, "b": 1, "t": 2})
    assert not is_tame(poset)


def test_one_element_tame():
    assert is_tame(tiny_marked_chain())


def test_facet_count_delta_trivial_k1():
    poset = make_chain_poset()
    part = Partition(frozenset({"p"}), frozenset({"q"}))
    assert facet_count_delta(poset, part, "q") == 0


def test_facet_count_delta_star_element():
    poset = make_double_star()
    part = Partition(frozenset({"c1", "c2", "d1", "d2"}), frozenset({"q"}))
    assert facet_count_delta(poset, part, "q") == 1  # (2-1)(2-1)
    h_before = hrep_chain_order(poset, part)
    part_after = Partition(part.C | {"q"}, frozenset())
    h_after = hrep_chain_order(poset, part_after)
    assert facet_count(h_after) - facet_count(h_before) == 1


def test_facet_delta_matches_lp_on_ex52(ex52):
    unmarked = frozenset(ex52.unmarked)
    import itertools
    for k in range(3):
        for C in itertools.combinations(sorted(unmarked), k):
            part = Partition(frozenset(C), unmarked - frozenset(C))
            for q in sorted(part.O):
                predicted = facet_count_delta(ex52, part, q)
                part2 = Partition(part.C | {q}, part.O - {q})
                actual = (facet_count(hrep_chain_order(ex52, part2))
                          - facet_count(hrep_chain_order(ex52, part)))
                assert predicted == actual, (C, q)


def test_eliminate_redundancy_keeps_last_representative():
    from mpp.geometry import make_hrep
    # x <= 1 three times (once scaled), 0 <= x once, and x <= 3 implied
    h = make_hrep(("x",), [],
                  [((F(1),), F(1), ("a",)), ((F(2),), F(2), ("b",)),
                   ((F(-1),), F(0), ("c",)), ((F(1),), F(3), ("d",)),
                   ((F(1),), F(1), ("e",))])
    out = eliminate_redundancy(h)
    assert [c.origin for c in out.inequalities] == [("c",), ("e",)]
    assert out == lp_eliminate_redundancy(h)


def test_eliminate_redundancy_line_unsupported():
    from mpp.geometry import UnsupportedLineality, make_hrep
    h = make_hrep(("x", "y"), [], [((F(1), F(0)), F(1), ()), ((F(-1), F(0)), F(0), ())])
    with pytest.raises(UnsupportedLineality):
        eliminate_redundancy(h)
    # an empty set holds no line, even where the rows leave a direction free
    h = make_hrep(("x", "y"), [], [((F(1), F(0)), F(0), ()), ((F(-1), F(0)), F(-1), ())])
    with pytest.raises(EmptyPolyhedron, match="empty polyhedron"):
        eliminate_redundancy(h)


# -- the LP oracles: redundancy and tameness by an exact LP per row ------------------

def _lp_rows(h):
    return ([(c.coeffs, c.rhs) for c in h.equations],
            [(c.coeffs, c.rhs) for c in h.inequalities])


def lp_eliminate_redundancy(h):
    """Implicit equalities by minimizing each row, then each remaining row
    dropped while the others imply it."""
    from mpp.lp import LPStatus, lp_solve

    n = h.dim_ambient
    all_eqs, all_ineqs = _lp_rows(h)
    if lp_solve(n, [F(0)] * n, all_eqs, all_ineqs)[0] is not LPStatus.OPTIMAL:
        raise EmptyPolyhedron("cannot eliminate redundancy of an empty polyhedron")
    equations = list(h.equations)
    candidates = []
    for c in h.inequalities:
        status, value, _ = lp_solve(n, c.coeffs, all_eqs, all_ineqs, maximize=False)
        if status is LPStatus.OPTIMAL and value == c.rhs:
            equations.append(c)
        else:
            candidates.append(c)
    seen_eq = set()
    uniq_eqs = []
    for c in equations:
        coeffs, rhs = normalized(c)
        if next(x for x in coeffs if x != 0) < 0:
            coeffs, rhs = tuple(-x for x in coeffs), -rhs
        if (coeffs, rhs) not in seen_eq:
            seen_eq.add((coeffs, rhs))
            uniq_eqs.append(c)
    eq_rows = [(c.coeffs, c.rhs) for c in uniq_eqs]
    kept = list(candidates)
    i = 0
    while i < len(kept):
        c = kept[i]
        others = [(d.coeffs, d.rhs) for j, d in enumerate(kept) if j != i]
        status, value, _ = lp_solve(n, c.coeffs, eq_rows, others, maximize=True)
        if status is LPStatus.OPTIMAL and value <= c.rhs:
            kept.pop(i)
        else:
            i += 1
    return make_hrep(h.coords, triples(uniq_eqs), triples(kept))


def lp_is_tame(poset):
    """Every chain-order row of every partition is neither an implicit
    equality nor implied by the other rows, and no two rows coincide."""
    import itertools

    from mpp.lp import LPStatus, lp_solve

    unmarked = sorted(poset.unmarked)
    for bits in itertools.product((False, True), repeat=len(unmarked)):
        C = frozenset(p for p, b in zip(unmarked, bits) if b)
        h = hrep_chain_order(poset, Partition(C, frozenset(unmarked) - C))
        keys = [normalized(c) for c in h.inequalities]
        if len(set(keys)) != len(keys):
            return False
        n = h.dim_ambient
        eq_rows, ineq_rows = _lp_rows(h)
        for i, c in enumerate(h.inequalities):
            status, value, _ = lp_solve(n, c.coeffs, eq_rows, ineq_rows, maximize=False)
            if status is LPStatus.OPTIMAL and value == c.rhs:
                return False
            others = ineq_rows[:i] + ineq_rows[i + 1:]
            status, value, _ = lp_solve(n, c.coeffs, eq_rows, others, maximize=True)
            if status is LPStatus.OPTIMAL and value <= c.rhs:
                return False
    return True


VALS = [F(-2), F(-1), F(-1, 2), F(0), F(0), F(1, 3), F(1), F(3, 2), F(2)]


def _with_copies(rnd, rows):
    """rows plus duplicates and positively scaled copies, shuffled, each
    tagged with its own origin so that the kept representative shows."""
    out = list(rows)
    for coeffs, rhs in rnd.sample(rows, min(len(rows), rnd.randint(0, 3))):
        k = rnd.choice((F(1), F(2), F(1, 3)))
        out.append((tuple(k * x for x in coeffs), k * rhs))
    rnd.shuffle(out)
    return [(coeffs, rhs, ("row", str(i))) for i, (coeffs, rhs) in enumerate(out)]


def _random_hrep(rnd, bounded: bool):
    """Rows through or around a point c: a box (bounded) or lower bounds only
    and some upper bounds (pointed, often with rays), random cuts, and
    sometimes an implicit equality pair or an equation."""
    from mpp.geometry import make_hrep

    d = rnd.randint(1, 4)
    c = [F(rnd.randint(-3, 3), rnd.randint(1, 2)) for _ in range(d)]
    rows = []
    for i in range(d):
        e = tuple(F(int(j == i)) for j in range(d))
        rows.append((tuple(-x for x in e), -c[i] + rnd.randint(0, 2)))
        if bounded or rnd.random() < 0.4:
            rows.append((e, c[i] + rnd.randint(0, 2)))
    for _ in range(rnd.randint(0, 3)):
        a = tuple(rnd.choice(VALS) for _ in range(d))
        if any(a):
            rows.append((a, sum(x * y for x, y in zip(a, c)) + rnd.choice((-1, 0, 0, 1, 2))))
    if rnd.random() < 0.3:
        a = tuple(rnd.choice(VALS) for _ in range(d))
        if any(a):
            b = sum(x * y for x, y in zip(a, c))
            rows += [(a, b), (tuple(-x for x in a), -b)]
    eqs = []
    if rnd.random() < 0.2:
        a = tuple(rnd.choice(VALS) for _ in range(d))
        if any(a):
            eqs.append((a, sum(x * y for x, y in zip(a, c)), ("eq",)))
    return make_hrep(tuple(f"x{i}" for i in range(d)), eqs, _with_copies(rnd, rows))


def _same_as_lp(h):
    try:
        expected = lp_eliminate_redundancy(h)
    except EmptyPolyhedron:
        with pytest.raises(EmptyPolyhedron, match="empty polyhedron"):
            eliminate_redundancy(h)
        return None
    assert eliminate_redundancy(h) == expected
    assert facet_count(h) == len(expected.inequalities)
    return vertices(h)


def test_eliminate_redundancy_matches_lp_on_bounded_hreps():
    rnd = random.Random(7)
    shapes = set()
    for _ in range(300):
        v = _same_as_lp(_random_hrep(rnd, bounded=True))
        shapes.add(v is None)
    assert shapes == {True, False}


def test_eliminate_redundancy_matches_lp_on_pointed_hreps():
    rnd = random.Random(8)
    with_rays = 0
    for _ in range(300):
        v = _same_as_lp(_random_hrep(rnd, bounded=False))
        with_rays += v is not None and bool(v.rays)
    assert with_rays >= 100


@pytest.mark.parametrize("seed", range(4))
def test_eliminate_redundancy_matches_lp_on_poset_hreps(seed):
    rnd = random.Random(100 + seed)
    for _ in range(15):
        poset = random_marked_poset(rnd, rnd.randint(4, 7), bounded=rnd.random() < 0.7,
                                    max_unmarked=4)
        t = random_parameter(rnd, poset, interior=rnd.random() < 0.5)
        C = frozenset(p for p in poset.unmarked if rnd.random() < 0.5)
        part = Partition(C, frozenset(poset.unmarked) - C)
        for projected in (True, False):
            _same_as_lp(hrep_general(poset, t, projected=projected))
            _same_as_lp(hrep_chain_order(poset, part, projected=projected))


def test_is_tame_matches_lp_on_random_posets():
    rnd = random.Random(11)
    seen = set()
    for i in range(40):
        poset = random_marked_poset(rnd, rnd.randint(5, 8), max_unmarked=4)
        if i % 2:  # a coarser marking, still order-preserving, makes constant intervals
            poset = MarkedPoset(poset.elements, poset.covers,
                                {a: v // 2 for a, v in poset.marking.items()})
        expected = lp_is_tame(poset)
        assert is_tame(poset) == expected
        seen.add(expected)
    assert seen == {True, False}


# -- unimodular moves ---------------------------------------------------------------

def _moved_vertices(move, h):
    """The images of h's vertices under the map x -> M x + b of move = (M, b)."""
    matrix, offset = move
    return {tuple(sum(a * x for a, x in zip(row, p)) + b for row, b in zip(matrix, offset))
            for p in vertices(h).vertices}


def test_unimodular_move_non_star(ex52):
    # r has a single upward chain (r < 4), so moving it is unimodular
    part = Partition(frozenset({"p", "q"}), frozenset({"r"}))
    move = unimodular_move(ex52, part, "r")
    assert move is not None and is_unimodular(move[0])
    h = hrep_chain_order(ex52, part)
    part2 = Partition(frozenset({"p", "q", "r"}), frozenset())
    target = hrep_chain_order(ex52, part2)
    assert _moved_vertices(move, h) == set(vertices(target).vertices)
    lat_a = face_lattice(h, vertices(h))
    lat_b = face_lattice(target, vertices(target))
    assert lat_a.f_vector() == lat_b.f_vector()
    assert len(lattice_points(h)) == len(lattice_points(target))


def test_unimodular_move_star_returns_none():
    poset = make_double_star()
    part = Partition(frozenset({"c1", "c2", "d1", "d2"}), frozenset({"q"}))
    assert unimodular_move(poset, part, "q") is None


def test_unimodular_move_unmarked_chain_endpoint():
    # single downward chain s < c < q whose stop s is an order element, so the
    # map subtracts coordinates only (no translation)
    poset = MarkedPoset(("a", "s", "c", "q", "z"),
                        frozenset([("a", "s"), ("s", "c"), ("c", "q"), ("q", "z")]),
                        {"a": 0, "z": 3})
    part = Partition(frozenset({"c"}), frozenset({"s", "q"}))
    move = unimodular_move(poset, part, "q")
    assert move is not None and is_unimodular(move[0])
    assert all(x == 0 for x in move[1])
    target = hrep_chain_order(poset, Partition(frozenset({"c", "q"}), frozenset({"s"})))
    assert (_moved_vertices(move, hrep_chain_order(poset, part))
            == set(vertices(target).vertices))


# -- integer H-rep rows against the Fraction row builders -----------------------------

def _rational_marking(rnd: random.Random, poset: MarkedPoset) -> MarkedPoset:
    """The poset with each marking value (its height) raised by a fraction
    in [0, 1) over 2, 3, 5 or 7: still strictly order-preserving."""
    def bump():
        d = rnd.choice((2, 3, 5, 7))
        return F(rnd.randint(0, d - 1), d)

    return MarkedPoset(poset.elements, poset.covers,
                       {a: v + bump() for a, v in poset.marking.items()})


def _interior_t(rnd: random.Random, poset: MarkedPoset) -> Parameter:
    return Parameter({p: F(rnd.randint(1, d - 1), d)
                      for p in poset.unmarked for d in [rnd.choice((2, 3, 5, 7))]})


def _corner(rnd: random.Random, poset: MarkedPoset) -> Parameter:
    return Parameter({p: F(rnd.randint(0, 1)) for p in poset.unmarked})


def _hrep_cases():
    """(poset, t, partition) triples: the golden posets at t = 0, t = 1, the
    generic t and an interior t, and 50 seeded random posets with rational
    markings at an interior t."""
    from test_golden import POSETS

    rnd = random.Random(2024)
    for make in POSETS.values():
        poset = make()
        for t in (zero_parameter(poset), one_parameter(poset), generic_parameter(poset),
                  _interior_t(rnd, poset)):
            yield poset, t, partition_of_parameter(poset, _corner(rnd, poset))
    for _ in range(50):
        poset = _rational_marking(rnd, random_marked_poset(rnd, rnd.randint(3, 7)))
        yield poset, _interior_t(rnd, poset), partition_of_parameter(poset, _corner(rnd, poset))


def _assert_rows_match(h, oracle):
    from mpp.jsonio import hrep_to_json

    coords, eqs, ineqs = oracle
    assert h.coords == coords
    assert h.equations == eqs and h.inequalities == ineqs
    assert h.int_equations == tuple(map(fraction_int_row, eqs))
    assert h.int_inequalities == tuple(map(fraction_int_row, ineqs))
    assert hrep_to_json(h) == fraction_hrep_json(coords, eqs, ineqs)
    assert h == make_hrep(coords, triples(eqs), triples(ineqs))


def test_integer_hrep_rows_equal_fraction_builders():
    from test_golden import POSETS

    denominators = set()
    cases = list(_hrep_cases())
    assert len(cases) == 4 * len(POSETS) + 50
    for poset, t, part in cases:
        for projected in (True, False):
            h = hrep_general(poset, t, projected)
            _assert_rows_match(h, fraction_hrep_general(poset, t, projected))
            _assert_rows_match(hrep_chain_order(poset, part, projected),
                               fraction_hrep_chain_order(poset, part, projected))
            denominators.update(c.rhs.denominator for c in h.inequalities)
    assert {2, 3, 5, 7} <= denominators  # not vacuous: rational right-hand sides


@pytest.mark.parametrize("rows", [
    [((F(0), F(0)), F(1), ("holds",)), ((F(1), F(-1)), F(1, 2), ("cut",))],
    [((F(1), F(2)), F(3), ("cut",)), ((F(0), F(0)), F(0), ("tight",))],
    [((F(1), F(0)), F(1), ("cut",)), ((F(0), F(0)), F(-1, 3), ("fails",))],
])
@pytest.mark.parametrize("as_equations", [False, True])
def test_constant_rows_dropped_or_empty_as_fraction_builder(rows, as_equations):
    from mpp.geometry import make_hrep

    args = (rows, []) if as_equations else ([], rows)
    try:
        oracle = fraction_make_hrep(("x", "y"), *args)
    except EmptyPolyhedron:
        with pytest.raises(EmptyPolyhedron):
            make_hrep(("x", "y"), *args)
        return
    h = make_hrep(("x", "y"), *args)
    assert (h.coords, h.equations, h.inequalities) == oracle


def test_constant_covector_rows_dropped_or_empty():
    # x_a - x_b between two marked elements is a constant row in the projected
    # coordinates: kept out when it holds, EmptyPolyhedron when it fails
    from mpp.family import _row_writer
    from mpp.tropical import _difference

    poset = make_ex52_rational()
    h = hrep_general(poset, zero_parameter(poset))
    write = _row_writer(poset, h.coords)
    marks = sorted(poset.marking, key=poset.marking.__getitem__)
    for a, b in itertools.permutations(marks, 2):
        row = _difference(write, a, b, ("test", a, b))
        coeffs, rhs = fraction_row(poset, {e: i for i, e in enumerate(h.coords)},
                                   ((a, F(1)), (b, F(-1))))
        for as_equation in (False, True):
            args = ([row], []) if as_equation else ([], [row])
            fargs = ([(coeffs, rhs, ("test", a, b))], [])
            fargs = fargs if as_equation else fargs[::-1]
            try:
                fraction_make_hrep(h.coords, *fargs)
            except EmptyPolyhedron:
                with pytest.raises(EmptyPolyhedron):
                    h.with_rows(*args)
                continue
            assert h.with_rows(*args) == h


# -- refused arguments ---------------------------------------------------------------

def test_partition_must_cover_the_unmarked_elements(ex52):
    with pytest.raises(PosetError, match="does not cover"):
        hrep_chain_order(ex52, Partition({"p"}, {"q"}))


def test_only_hypercube_vertices_have_partitions(ex52):
    with pytest.raises(ValueError, match="hypercube vertices"):
        partition_of_parameter(ex52, generic_parameter(ex52))


def test_facet_count_delta_needs_an_order_element(ex52):
    with pytest.raises(PosetError, match="p is not an order element"):
        facet_count_delta(ex52, Partition({"p"}, {"q", "r"}), "p")
