"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything is exact rational arithmetic; the only tolerances are the stated
runtime budgets.  Random instances use fixed seeds for reproducibility.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from conftest import (contdeg_face_map, dilate, is_ranked, make_double_star, make_ex52,
                      random_marked_poset, random_parameter, random_point,
                      random_ranked_regular_poset, transfer_psi_closed)
from mpp.degeneration import (DegenerationPair, check_fvector_domination,
                              composition_law, degeneration_map)
from mpp.family import (Parameter, Partition, facet_count, facet_count_delta,
                        hrep_chain_order, hrep_general, hypercube_vertices,
                        is_tame, partition_of_parameter, transfer_phi,
                        transfer_psi, zero_parameter)
from mpp.geometry import EmptyPolyhedron, make_hrep, vertices, vertices_bruteforce
from mpp.lattice import is_integrally_closed, lattice_points
from mpp.poset import is_regular
from mpp.tropical import generic_vertices, subdivision_vertices


def report(n, ok, detail=""):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok


def F(n, d=1):
    return Fraction(n, d)


def test_criterion_1_example52_reproduction():
    start = time.monotonic()
    poset = make_ex52()
    n_order = len(vertices(hrep_general(poset, zero_parameter(poset))).vertices)
    n_subdiv = len(subdivision_vertices(poset))
    t = Parameter({"p": F(1, 2), "q": F(1, 2), "r": F(1, 2)})
    n_generic = len(generic_vertices(poset, t))
    elapsed = time.monotonic() - start
    ok = (n_order, n_subdiv, n_generic) == (11, 14, 14) and elapsed < 5.0
    report(1, ok, f"order={n_order} subdivision={n_subdiv} generic={n_generic} "
                  f"({elapsed:.2f}s < 5s)")


def test_criterion_2_transfer_bijectivity():
    start = time.monotonic()
    rnd = random.Random(2024)
    triples = 0
    while triples < 1000:
        poset = random_marked_poset(rnd, rnd.randint(2, 8), bounded=False)
        for _ in range(10):
            t = random_parameter(rnd, poset)
            x = random_point(rnd, poset.elements)
            assert transfer_psi(poset, t, transfer_phi(poset, t, x)) == x
            assert transfer_phi(poset, t, transfer_psi(poset, t, x)) == x
            assert transfer_psi_closed(poset, t, x) == transfer_psi(poset, t, x)
            triples += 1
    elapsed = time.monotonic() - start
    report(2, elapsed < 30.0, f"{triples} triples ({elapsed:.2f}s < 30s)")


def test_criterion_3_hypercube_vertex_consistency():
    rnd = random.Random(333)
    checked_posets = 0
    unbounded_seen = 0
    while checked_posets < 20:
        poset = random_marked_poset(rnd, rnd.randint(3, 6), bounded=False,
                                    max_unmarked=4, mark_extra=0.3)
        checked_posets += 1
        for t in hypercube_vertices(poset):
            part = partition_of_parameter(poset, t)
            va = vertices(hrep_general(poset, t))
            vb = vertices(hrep_chain_order(poset, part))
            assert set(va.vertices) == set(vb.vertices)
            assert set(va.rays) == set(vb.rays)
            if va.rays:
                unbounded_seen += 1
    report(3, checked_posets >= 20,
           f"{checked_posets} posets, {unbounded_seen} unbounded members included")


def test_criterion_4_ehrhart_equivalence():
    rnd = random.Random(444)
    done = 0
    while done < 10:
        poset = random_marked_poset(rnd, rnd.randint(3, 6), bounded=True,
                                    max_unmarked=3, mark_extra=0.3)
        if len(poset.unmarked) == 0:
            continue
        counts = None
        for t in hypercube_vertices(poset):
            part = partition_of_parameter(poset, t)
            h = hrep_chain_order(poset, part)
            these = tuple(len(lattice_points(dilate(h, k))) for k in range(1, 5))
            if counts is None:
                counts = these
            else:
                assert these == counts, (poset, part, counts, these)
        done += 1
    report(4, done >= 10, f"{done} posets, dilations 1..4 across all partitions")


def test_criterion_5_generic_vertices_theorem():
    rnd = random.Random(555)
    done = 0
    while done < 20:
        poset = random_marked_poset(rnd, rnd.randint(3, 6), bounded=True,
                                    max_unmarked=4, mark_extra=0.2)
        if not poset.unmarked:
            continue
        for _ in range(3):
            t = random_parameter(rnd, poset, interior=True)
            generic_vertices(poset, t)  # raises on any mismatch with the kernel
        done += 1
    report(5, done >= 20, f"{done} posets x 3 interior parameters; "
                          "tropical path == double description")


def test_criterion_6_degeneration_properties():
    rnd = random.Random(666)
    posets = [make_ex52()]
    while len(posets) < 11:
        p = random_marked_poset(rnd, rnd.randint(3, 6), bounded=True,
                                max_unmarked=3, mark_extra=0.2)
        if p.unmarked:
            posets.append(p)
    maps_checked = 0
    for poset in posets:
        t = random_parameter(rnd, poset, interior=True)
        for u in hypercube_vertices(poset):
            pair = DegenerationPair(t, u)
            fmap = degeneration_map(poset, pair)
            assert fmap.is_surjective()
            assert fmap.is_order_preserving()
            assert fmap.dims_nondecreasing()
            assert check_fvector_domination(poset, pair)["pass"]
            maps_checked += 1
    comp_checked = 0
    for poset in posets[:6]:
        t = random_parameter(rnd, poset, interior=True)
        vals2 = {p: rnd.choice([t[p], F(0), F(1)]) for p in poset.unmarked}
        u2 = Parameter(vals2)
        vals3 = {p: (v if v in (0, 1) else rnd.choice([v, F(0), F(1)]))
                 for p, v in vals2.items()}
        u3 = Parameter(vals3)
        assert composition_law(poset, t, u2, u3)
        comp_checked += 1
    report(6, maps_checked >= 8 + 10 and comp_checked >= 5,
           f"{maps_checked} degeneration maps, {comp_checked} composition chains")


def test_criterion_7_pentagon_fixture():
    fmap = contdeg_face_map()
    ok = fmap.source.f_vector() == (5, 5) and fmap.target.f_vector() == (4, 4)
    top = next(f for f in fmap.target.faces if f.dim == 1
               and all(fmap.target.vertices[i][1] == 1 for i in f.vertex_ids))
    collapsed = {frozenset(fmap.source.vertices[i] for i in f.vertex_ids)
                 for f in fmap.source.faces if f.dim == 1 and fmap.mapping[f] == top}
    ok = ok and collapsed == {frozenset({(F(0), F(1)), (F(1), F(2))}),
                              frozenset({(F(1), F(2)), (F(2), F(1))})}
    ok = ok and fmap.is_surjective() and fmap.is_order_preserving()
    report(7, ok, "f-vectors (5,5)->(4,4); exactly the two top edges collapse")


def test_criterion_8_tameness_and_facet_counts():
    rnd = random.Random(888)
    tame_checked = 0
    cases = 0
    while cases < 50 or tame_checked < 6:
        poset = random_ranked_regular_poset(rnd, levels=3, max_width=3)
        assert is_regular(poset) and is_ranked(poset)
        assert is_tame(poset)
        tame_checked += 1
        unmarked = sorted(poset.unmarked)
        for C_bits in itertools.product((False, True), repeat=len(unmarked)):
            C = frozenset(p for p, b in zip(unmarked, C_bits) if b)
            part = Partition(C, frozenset(unmarked) - C)
            for q in sorted(part.O):
                predicted = facet_count_delta(poset, part, q)
                part2 = Partition(part.C | {q}, part.O - {q})
                actual = (facet_count(hrep_chain_order(poset, part2))
                          - facet_count(hrep_chain_order(poset, part)))
                assert predicted == actual, (poset, sorted(C), q)
                cases += 1
    # the worked star-element instance: two chains on each side
    star = make_double_star()
    part = Partition(frozenset({"c1", "c2", "d1", "d2"}), frozenset({"q"}))
    assert is_tame(star)
    assert facet_count_delta(star, part, "q") == 1
    report(8, True, f"{tame_checked} regular ranked posets tame; "
                    f"{cases} facet-delta cases match (k-1)(l-1)")


def test_criterion_9_integral_closure():
    rnd = random.Random(999)
    done = 0
    while done < 5:
        poset = random_marked_poset(rnd, rnd.randint(3, 5), bounded=True,
                                    max_unmarked=3, mark_extra=0.3)
        if not poset.unmarked:
            continue
        for t in hypercube_vertices(poset):
            part = partition_of_parameter(poset, t)
            h = hrep_chain_order(poset, part)
            assert is_integrally_closed(h, dilations=(2, 3))
        done += 1
    non_idp = make_hrep(
        ("x", "y", "z"), [],
        [((F(0), F(0), F(-1)), F(0), ()),
         ((F(-3), F(0), F(1)), F(0), ()),
         ((F(0), F(-3), F(1)), F(0), ()),
         ((F(3), F(3), F(-1)), F(3), ())])
    assert not is_integrally_closed(non_idp, dilations=(2,))
    report(9, done >= 5, f"{done} posets integrally closed at k=2,3; "
                         "non-IDP simplex fixture fails as required")


def test_criterion_10_kernel_oracle_equivalence():
    rnd = random.Random(1010)
    checked = 0
    while checked < 100:
        d = rnd.choice((1, 2, 2, 3, 3, 4, 4, 5))
        coords = tuple(f"x{i}" for i in range(d))
        k = rnd.randint(1, 2)
        ineqs = []
        for i in range(d):
            e = [F(0)] * d
            e[i] = F(1)
            ineqs.append((tuple(e), F(k), ("box",)))
            ineqs.append((tuple(-x for x in e), F(k), ("box",)))
        for _ in range(rnd.randint(1, 3)):
            coeffs = tuple(F(rnd.randint(-2, 2)) for _ in range(d))
            if all(c == 0 for c in coeffs):
                continue
            ineqs.append((coeffs, F(rnd.randint(0, 2 * k)), ("cut",)))
        h = make_hrep(coords, [], ineqs)
        try:
            v = vertices(h)
        except EmptyPolyhedron:
            with pytest.raises(EmptyPolyhedron):
                vertices_bruteforce(h)
            checked += 1
            continue
        vb = vertices_bruteforce(h)
        assert set(v.vertices) == set(vb.vertices), h
        assert not v.rays
        checked += 1
    report(10, checked >= 100, f"{checked} random bounded H-reps, dim <= 5")
