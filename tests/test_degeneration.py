import itertools
import json
import random
from fractions import Fraction

import pytest

from conftest import (barycenter, contdeg_face_map, contdeg_hrep, contdeg_rho,
                      fraction_theta_projected, make_double_star, make_ex52,
                      make_ex52_rational, make_grid, random_marked_poset,
                      random_parameter, sevenths_and_fifths, triples)
from mpp import degeneration
from mpp.degeneration import (DegenerationPair, FaceMap, _polytope, canonical_incidence,
                              check_fvector_domination,
                              combinatorial_type_sweep, composition_law,
                              degeneration_map, face_map_via, fvector_domination,
                              hibi_li_check,
                              incidence_matrix, lattices_isomorphic,
                              sample_face_parameters)
from mpp.family import (Parameter, Partition, generic_parameter, hrep_general,
                        hypercube_vertices)
from mpp.geometry import GeometryError, face_lattice, make_hrep, vertices
from mpp.poset import MarkedPoset


def F(n, d=1):
    return Fraction(n, d)


# -- the pentagon fixture -----------------------------------------------------------

def test_contdeg_shapes():
    v0 = vertices(contdeg_hrep(0))
    assert set(v0.vertices) == {(F(0), F(0)), (F(2), F(0)), (F(2), F(1)),
                                (F(1), F(2)), (F(0), F(1))}
    v1 = vertices(contdeg_hrep(1))
    assert set(v1.vertices) == {(F(0), F(0)), (F(2), F(0)), (F(2), F(1)),
                                (F(0), F(1))}
    vh = vertices(contdeg_hrep(F(1, 2)))
    assert (F(1), F(3, 2)) in set(vh.vertices)


def test_contdeg_f_vectors():
    lat0 = face_lattice(contdeg_hrep(0), vertices(contdeg_hrep(0)))
    lat1 = face_lattice(contdeg_hrep(1), vertices(contdeg_hrep(1)))
    assert lat0.f_vector() == (5, 5)
    assert lat1.f_vector() == (4, 4)


def test_contdeg_rho_fixes_t0():
    for p in vertices(contdeg_hrep(0)).vertices:
        assert contdeg_rho(0, p) == p


def test_contdeg_rho_image_in_target():
    h1 = contdeg_hrep(1)
    rnd = random.Random(13)
    v0 = vertices(contdeg_hrep(0)).vertices
    for _ in range(40):
        w = [F(rnd.randint(0, 10)) for _ in v0]
        s = sum(w, F(0))
        if s == 0:
            continue
        pt = tuple(sum((wi * vi[k] for wi, vi in zip(w, v0)), F(0)) / s
                   for k in range(2))
        assert h1.contains(contdeg_rho(1, pt))


def test_contdeg_face_map_collapses_two_top_edges():
    fm = contdeg_face_map()
    assert fm.source.f_vector() == (5, 5)
    assert fm.target.f_vector() == (4, 4)
    assert fm.is_surjective() and fm.is_order_preserving() and fm.dims_nondecreasing()
    top = next(f for f in fm.target.faces if f.dim == 1 and
               all(fm.target.vertices[i][1] == 1 for i in f.vertex_ids))
    collapsed = [f for f in fm.source.faces
                 if f.dim == 1 and fm.mapping[f] == top]
    coll_sets = {frozenset(fm.source.vertices[i] for i in f.vertex_ids)
                 for f in collapsed}
    assert coll_sets == {frozenset({(F(0), F(1)), (F(1), F(2))}),
                         frozenset({(F(1), F(2)), (F(2), F(1))})}
    # the apex vertex maps into the top edge (dimension increases)
    apex = next(f for f in fm.source.faces
                if f.dim == 0 and fm.source.vertices[min(f.vertex_ids)] == (F(1), F(2)))
    assert fm.mapping[apex] == top


# -- degeneration maps in the family ----------------------------------------------------

def test_identity_pair_identity_map(ex52):
    t = generic_parameter(ex52)
    fm = degeneration_map(ex52, DegenerationPair(t, t))
    assert all(fm.mapping[f] == f for f in fm.source.faces)


def test_pair_validation(ex52):
    u = Parameter({"p": F(0), "q": F(1, 2), "r": F(1, 2)})
    bad = Parameter({"p": F(1), "q": F(1, 2), "r": F(1, 2)})
    with pytest.raises(ValueError):
        DegenerationPair(u, bad)  # changes a pinned coordinate


def test_ex52_interior_to_chain_vertex_surjective(ex52):
    t = generic_parameter(ex52)
    for u in hypercube_vertices(ex52):
        pair = DegenerationPair(t, u)
        fm = degeneration_map(ex52, pair)
        assert fm.is_surjective()
        assert fm.is_order_preserving()
        assert fm.dims_nondecreasing()
        assert len(fm.source.vertices) == 14
        assert len(fm.target.vertices) == 11
        # every target vertex is hit by a source vertex
        tverts = {f for f in fm.target.faces if f.dim == 0}
        hit = {fm.mapping[f] for f in fm.source.faces if f.dim == 0}
        assert tverts <= hit
        dom = check_fvector_domination(ex52, pair)
        assert dom["pass"]


def test_domination_from_the_lattices_of_the_map(ex52):
    t = generic_parameter(ex52)
    for u in hypercube_vertices(ex52):
        pair = DegenerationPair(t, u)
        fm = degeneration_map(ex52, pair)
        rep = fvector_domination(pair, fm.source, fm.target)
        assert rep == check_fvector_domination(ex52, pair)
        assert rep["source_f_vector"] == list(fm.source.f_vector())


def test_every_target_face_has_same_dim_preimage(ex52):
    t = generic_parameter(ex52)
    u = next(iter(hypercube_vertices(ex52)))
    fm = degeneration_map(ex52, DegenerationPair(t, u))
    for g in fm.target.faces:
        if g.dim < 0:
            continue
        assert any(f.dim == g.dim and fm.mapping[f] == g for f in fm.source.faces)


def test_witness_independence(ex52):
    """Any relative-interior witness yields the same target face."""
    t = generic_parameter(ex52)
    u = Parameter({"p": F(0), "q": F(0), "r": F(0)})
    h_u = hrep_general(ex52, t)
    v_u = vertices(h_u)
    lat_u = face_lattice(h_u, v_u)
    h_t = hrep_general(ex52, u)
    lat_t = face_lattice(h_t, vertices(h_t))
    from mpp.family import transfer_theta_projected
    rnd = random.Random(3)
    for f in lat_u.faces:
        if f.dim < 1:
            continue
        pts = [lat_u.vertices[i] for i in sorted(f.vertex_ids)]
        images = set()
        for _ in range(3):
            w = [F(rnd.randint(1, 9)) for _ in pts]
            s = sum(w, F(0))
            witness = tuple(sum((wi * p[k] for wi, p in zip(w, pts)), F(0)) / s
                            for k in range(len(pts[0])))
            y = transfer_theta_projected(ex52, t, u, dict(zip(h_u.coords, witness)))
            images.add(lat_t.minimal_face_containing(h_t, tuple(y[c] for c in h_t.coords)))
        assert len(images) == 1


def test_composition_random_chains(ex52):
    rnd = random.Random(77)
    t = generic_parameter(ex52)
    for _ in range(3):
        vals2 = {}
        for p in ex52.unmarked:
            vals2[p] = rnd.choice([t[p], F(0), F(1)])
        u2 = Parameter(vals2)
        vals3 = {p: (v if v in (0, 1) else rnd.choice([v, F(0), F(1)]))
                 for p, v in vals2.items()}
        u3 = Parameter(vals3)
        assert composition_law(ex52, t, u2, u3)


def test_composition_on_random_posets():
    rnd = random.Random(123)
    done = 0
    while done < 4:
        poset = random_marked_poset(rnd, rnd.randint(3, 6), bounded=True,
                                    max_unmarked=3)
        if not poset.unmarked:
            continue
        t = random_parameter(rnd, poset, interior=True)
        vals2 = {p: rnd.choice([t[p], F(0), F(1)]) for p in poset.unmarked}
        u2 = Parameter(vals2)
        vals3 = {p: (v if v in (0, 1) else rnd.choice([v, F(0), F(1)]))
                 for p, v in vals2.items()}
        u3 = Parameter(vals3)
        assert composition_law(poset, t, u2, u3)
        done += 1


# -- the integer face map against the Fraction one it replaced ------------------------

def fraction_face_map(poset, pair) -> FaceMap:
    """Oracle: each face's vertex barycenter in Fractions, mapped by the
    Fraction recursions of phi and psi, its image face looked up by the
    rational point."""
    h_u, _, lat_u = _polytope(hrep_general(poset, pair.source))
    h_t, _, lat_t = _polytope(hrep_general(poset, pair.target))
    empty = next(f for f in lat_t.faces if f.dim < 0)
    mapping = {}
    for f in lat_u.faces:
        if f.dim < 0:
            mapping[f] = empty
            continue
        w = barycenter([lat_u.vertices[i] for i in sorted(f.vertex_ids)])
        y = fraction_theta_projected(poset, pair.source, pair.target, dict(zip(h_u.coords, w)))
        mapping[f] = lat_t.minimal_face_containing(h_t, tuple(y[c] for c in h_t.coords))
    return FaceMap(lat_u, lat_t, mapping)


def _oracle_posets():
    rnd = random.Random(31)
    posets = [make_ex52(), make_ex52_rational(), make_double_star(), make_grid(2, 3)]
    while len(posets) < 8:
        poset = random_marked_poset(rnd, rnd.randint(4, 7), bounded=True, max_unmarked=4)
        if poset.unmarked:
            posets.append(poset)
    return rnd, posets


def test_face_map_matches_fraction_oracle_interior_to_boundary():
    rnd, posets = _oracle_posets()
    for poset in posets:
        for _ in range(3):
            u = Parameter(sevenths_and_fifths(rnd, poset.unmarked))
            u2 = Parameter({p: (Fraction(rnd.randint(0, 1)) if rnd.random() < 0.5 else v)
                            for p, v in u.values.items()})
            pair = DegenerationPair(u, u2)
            assert (degeneration_map(poset, pair).as_index_pairs()
                    == fraction_face_map(poset, pair).as_index_pairs())


def test_face_map_matches_fraction_oracle_generic_to_every_vertex():
    _, posets = _oracle_posets()
    for poset in posets:
        t = generic_parameter(poset)
        for u in hypercube_vertices(poset):
            pair = DegenerationPair(t, u)
            assert (degeneration_map(poset, pair).as_index_pairs()
                    == fraction_face_map(poset, pair).as_index_pairs())


@pytest.mark.parametrize("make", [lambda: make_grid(2, 2), make_ex52, make_double_star],
                         ids=["grid2x2", "ex52", "dstar"])
def test_domination_sweep_maps_match_fraction_oracle(make, tmp_path, monkeypatch, capsys):
    # every face map of the sweep, with the targets of one H-rep sharing one
    # polytope (and O_t's own H-rep reading the source's), against the oracle;
    # each map is recorded with the pair of the transfer map it was given
    from mpp import cli
    from mpp.jsonio import poset_to_json
    poset = make()
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(poset_to_json(poset)))
    theta, honest = degeneration.transfer_theta_homogeneous, degeneration.face_map_via
    pairs, maps = [], []

    def recorded_theta(poset, u, u2):
        pairs.append(DegenerationPair(u, u2))
        return theta(poset, u, u2)

    def recorded(source, target_h, target, mapper):
        maps.append((pairs[-1], honest(source, target_h, target, mapper)))
        return maps[-1][1]

    monkeypatch.setattr(degeneration, "transfer_theta_homogeneous", recorded_theta)
    monkeypatch.setattr(degeneration, "face_map_via", recorded)
    assert cli.main(["sweep", str(path), "--check", "domination"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"]
    # each corner once; the corners of one H-rep run together
    corners = list(hypercube_vertices(poset))
    assert len(maps) == len(corners) and {pair.target for pair, _ in maps} == set(corners)
    for pair, fmap in maps:
        assert fmap.as_index_pairs() == fraction_face_map(poset, pair).as_index_pairs()


def test_face_map_refuses_an_image_outside_the_target(ex52):
    h, _, lat = _polytope(hrep_general(ex52, generic_parameter(ex52)))

    def mapper(rows):  # the identity, but the last face goes far outside
        return list(rows[:-1]) + [(1,) + (10 ** 6,) * len(h.coords)]

    assert face_map_via(lat, h, lat, lambda rows: rows).mapping == {f: f for f in lat.faces}
    with pytest.raises(GeometryError, match="outside the polytope"):
        face_map_via(lat, h, lat, mapper)


def all_pairs_order_preserving(fm: FaceMap) -> bool:
    """Oracle: f <= g implies image(f) <= image(g), over every pair of faces."""
    faces = fm.source.faces
    return all(fm.mapping[f].vertex_ids <= fm.mapping[g].vertex_ids
               for f in faces for g in faces if f.vertex_ids <= g.vertex_ids)


def test_order_preservation_on_covers_matches_all_pairs():
    rnd = random.Random(17)
    maps = [contdeg_face_map()]
    for poset in (make_ex52(), make_double_star(), make_ex52_rational()):
        t = generic_parameter(poset)
        maps += [degeneration_map(poset, DegenerationPair(t, u))
                 for u in list(hypercube_vertices(poset))[:3]]
    outcomes = set()
    for fm in maps:
        assert fm.is_order_preserving() and all_pairs_order_preserving(fm)
        faces = list(fm.source.faces)
        empty = next(f for f in faces if f.dim < 0)
        for trial in range(30):
            mapping = dict(fm.mapping)
            if trial % 3 == 0:  # swap the empty face's image with another's
                a, b = empty, rnd.choice(faces)
                mapping[a], mapping[b] = mapping[b], mapping[a]
            elif trial % 3 == 1:  # swap two faces' images
                a, b = rnd.sample(faces, 2)
                mapping[a], mapping[b] = mapping[b], mapping[a]
            else:  # send one face anywhere
                mapping[rnd.choice(faces)] = rnd.choice(fm.target.faces)
            mutated = FaceMap(fm.source, fm.target, mapping)
            want = all_pairs_order_preserving(mutated)
            assert mutated.is_order_preserving() == want
            outcomes.add(want)
    assert outcomes == {True, False}


# -- combinatorial types -----------------------------------------------------------------

def test_type_constant_on_open_cube(ex52):
    rep = combinatorial_type_sweep(ex52, {})
    assert rep["pass"]
    assert rep["f_vectors"][0] == [14, 22, 10]


def test_type_at_cube_vertex_single_sample(ex52):
    fixed = {p: F(0) for p in ex52.unmarked}
    rep = combinatorial_type_sweep(ex52, fixed)
    assert rep["pass"]
    assert len({tuple(f) for f in rep["f_vectors"]}) == 1


def test_irrelevant_coordinate_constant_type(ex52):
    """t_p is irrelevant (everything below p is marked): the combinatorial
    type is identical across t_p in {0, 1/2, 1}, even across cube faces."""
    lattices = []
    for tp in (F(0), F(1, 2), F(1)):
        t = Parameter({"p": tp, "q": F(1, 3), "r": F(2, 5)})
        h = hrep_general(ex52, t, projected=True)
        lattices.append(face_lattice(h, vertices(h)))
    assert all(lattices_isomorphic(lattices[0], lat) for lat in lattices[1:])
    f_vecs = {lat.f_vector() for lat in lattices}
    assert len(f_vecs) == 1
    # and the sweeps over those faces report the same single type
    reps = [combinatorial_type_sweep(ex52, {"p": F(0)}),
            combinatorial_type_sweep(ex52, {"p": F(1)}),
            combinatorial_type_sweep(ex52, {})]
    sweep_f_vecs = {tuple(f) for rep in reps for f in rep["f_vectors"]}
    assert sweep_f_vecs == {tuple(next(iter(f_vecs)))}


def test_sample_face_parameters_interior():
    poset = make_ex52()
    for t in sample_face_parameters(poset, {"p": F(1)}):
        assert t["p"] == 1
        assert all(0 < t[c] < 1 for c in ("q", "r"))


def test_face_requires_binary_values(ex52):
    with pytest.raises(ValueError):
        combinatorial_type_sweep(ex52, {"p": F(1, 2)})


@pytest.mark.parametrize("value", [True, 1.0], ids=["bool", "float"])
def test_face_rejects_inexact_values(ex52, value):
    # read as Parameter reads its values: neither is the rational 1
    with pytest.raises(TypeError):
        combinatorial_type_sweep(ex52, {"p": value})


# -- canonical incidence forms --------------------------------------------------------------

def test_canonical_incidence_invariant_under_relabeling():
    rnd = random.Random(5)
    h = contdeg_hrep(0)
    lat = face_lattice(h, vertices(h))
    nv, nf, inc = incidence_matrix(lat)
    base = canonical_incidence((nv, nf, inc))
    for _ in range(5):
        rperm = list(range(nv))
        cperm = list(range(nf))
        rnd.shuffle(rperm)
        rnd.shuffle(cperm)
        shuffled = frozenset((rperm[r], cperm[c]) for r, c in inc)
        assert canonical_incidence((nv, nf, shuffled)) == base


def test_canonical_incidence_distinguishes():
    pentagon = face_lattice(contdeg_hrep(0), vertices(contdeg_hrep(0)))
    rect = face_lattice(contdeg_hrep(1), vertices(contdeg_hrep(1)))
    assert not lattices_isomorphic(pentagon, rect)
    assert lattices_isomorphic(pentagon, pentagon)


def test_square_symmetry_canonicalization():
    # highly symmetric instance exercises the backtracking
    from mpp.geometry import make_hrep
    sq = make_hrep(("x", "y"), [],
                   [((F(1), F(0)), F(1), ()), ((F(-1), F(0)), F(0), ()),
                    ((F(0), F(1)), F(1), ()), ((F(0), F(-1)), F(0), ())])
    lat1 = face_lattice(sq, vertices(sq))
    sheared = make_hrep(("x", "y"), [],
                        [((F(1), F(-1)), F(0), ()), ((F(-1), F(1)), F(1), ()),
                         ((F(0), F(1)), F(3), ()), ((F(0), F(-1)), F(0), ())])
    lat2 = face_lattice(sheared, vertices(sheared))
    assert lattices_isomorphic(lat1, lat2)


def test_canonical_incidence_splits_vertices_of_the_octahedron():
    # the octahedron has 6 vertices and 8 facets, so the search individualises
    # vertices first; the cube (8 vertices, 6 facets) splits on facets.  The
    # two are dual: the cube's incidences read facets-first are the
    # octahedron's, and its own are not
    octahedron = make_hrep(("x", "y", "z"), [], [
        (signs, F(1), ()) for signs in itertools.product((F(1), F(-1)), repeat=3)])
    cube = make_hrep(("x", "y", "z"), [], [
        (tuple(F(s) if j == i else F(0) for j in range(3)), F(max(s, 0)), ())
        for i in range(3) for s in (1, -1)])
    nv, nf, inc = incidence_matrix(face_lattice(octahedron, vertices(octahedron)))
    assert (nv, nf) == (6, 8)
    form = canonical_incidence((nv, nf, inc))
    rnd = random.Random(8)
    for _ in range(5):
        rperm, cperm = rnd.sample(range(nv), nv), rnd.sample(range(nf), nf)
        assert canonical_incidence((nv, nf, frozenset((rperm[r], cperm[c])
                                                      for r, c in inc))) == form
    cv, cf, cinc = incidence_matrix(face_lattice(cube, vertices(cube)))
    assert (cv, cf) == (8, 6)
    assert canonical_incidence((cv, cf, cinc)) != form
    assert canonical_incidence((cf, cv, frozenset((c, r) for r, c in cinc))) == form
    # one incidence moved is another graph
    r, c = min(inc)
    moved = (inc - {(r, c)}) | {next((r, k) for k in range(nf) if (r, k) not in inc)}
    assert canonical_incidence((nv, nf, moved)) != form


def test_type_witness_fails_but_forms_agree(monkeypatch):
    # the pentagon with its rows permuted: the vertex tight sets differ, so
    # the canonical forms decide, once per lattice
    h = contdeg_hrep(0)
    permuted = make_hrep(h.coords, triples(h.equations), triples(h.inequalities[::-1]))
    samples = [degeneration._type_sample(g, vertices(g)) for g in (h, permuted, permuted)]
    forms = []
    canonical = degeneration.canonical_incidence
    monkeypatch.setattr(degeneration, "canonical_incidence",
                        lambda data: forms.append(1) or canonical(data))
    assert degeneration._all_isomorphic(samples)
    assert len(forms) == 3


def test_type_witness_pentagon_against_rectangle():
    # the same rows, origins included, but different vertex tight sets
    samples = [degeneration._type_sample(g, vertices(g))
               for g in (contdeg_hrep(0), contdeg_hrep(1))]
    assert not degeneration._all_isomorphic(samples)
    assert not degeneration._all_isomorphic(samples[::-1])
    assert degeneration._all_isomorphic(samples[:1] * 3)


def test_type_sweep_witness_holds_on_sampled_faces(monkeypatch):
    forms = []
    monkeypatch.setattr(degeneration, "canonical_incidence",
                        lambda data: forms.append(1))
    for poset in (make_ex52(), make_double_star(), make_grid(2, 2)):
        for fixed in [{}] + [{p: F(v)} for p in poset.unmarked for v in (0, 1)]:
            assert combinatorial_type_sweep(poset, fixed)["pass"]
    assert forms == []


# -- Hibi-Li -----------------------------------------------------------------------------

def test_hibi_li_non_star_move_equal_f_vectors(ex52):
    part_a = Partition(frozenset({"p", "q"}), frozenset({"r"}))
    part_b = Partition(frozenset({"p", "q", "r"}), frozenset())
    rep = hibi_li_check(ex52, part_a, part_b)
    assert rep["dominated"]
    assert rep["f_vector_CO"] == rep["f_vector_C'O'"]
    assert rep["facet_delta_formula"] == 0
    assert rep["facet_delta_match"]


def test_hibi_li_order_vs_chain(ex52):
    part_a = Partition(frozenset(), frozenset(ex52.unmarked))
    part_b = Partition(frozenset(ex52.unmarked), frozenset())
    rep = hibi_li_check(ex52, part_a, part_b)
    assert rep["dominated"]
    assert rep["f_vector_CO"] == [11, 17, 8]


def test_hibi_li_star_move_facet_increase():
    poset = make_double_star()
    part_a = Partition(frozenset({"c1", "c2", "d1", "d2"}), frozenset({"q"}))
    part_b = Partition(frozenset(poset.unmarked), frozenset())
    rep = hibi_li_check(poset, part_a, part_b)
    assert rep["dominated"]
    assert rep["moved"] == "q" and rep["star"]
    assert rep["facet_delta_formula"] == 1 == rep["facet_delta_lp"]


def test_hibi_li_requires_containment(ex52):
    part_a = Partition(frozenset({"p"}), frozenset({"q", "r"}))
    part_b = Partition(frozenset({"q"}), frozenset({"p", "r"}))
    with pytest.raises(ValueError):
        hibi_li_check(ex52, part_a, part_b)


# -- paths the sweeps and golden posets do not take -------------------------------

def test_composition_law_reports_a_broken_map(ex52, monkeypatch):
    # a u -> u3 map that sends every face to the empty one breaks the law
    t = generic_parameter(ex52)
    u2 = Parameter({"p": F(1), "q": t["q"], "r": F(0)})
    u3 = Parameter({"p": F(1), "q": F(0), "r": F(0)})
    assert composition_law(ex52, t, u2, u3)
    theta, honest = degeneration.transfer_theta_homogeneous, degeneration.face_map_via
    pairs = []  # the pair of each transfer map, as each face map is given one

    def recorded_theta(poset, u, u2):
        pairs.append(DegenerationPair(u, u2))
        return theta(poset, u, u2)

    def broken(source, target_h, target, mapper):
        fmap = honest(source, target_h, target, mapper)
        if pairs[-1] != DegenerationPair(t, u3):
            return fmap
        empty = next(f for f in fmap.target.faces if f.dim < 0)
        return FaceMap(fmap.source, fmap.target, dict.fromkeys(fmap.mapping, empty))

    monkeypatch.setattr(degeneration, "transfer_theta_homogeneous", recorded_theta)
    monkeypatch.setattr(degeneration, "face_map_via", broken)
    assert not composition_law(ex52, t, u2, u3)


def test_canonical_incidence_without_rows():
    assert canonical_incidence((0, 3, frozenset())) == (0, 3, ())


def test_type_sweep_of_a_poset_without_unmarked_elements():
    # the only member is the point of the marking, sampled once
    poset = MarkedPoset(("a", "b"), frozenset([("a", "b")]), {"a": 0, "b": 1})
    rep = combinatorial_type_sweep(poset, {})
    assert rep["pass"] and rep["samples"] == [{}] and rep["f_vectors"] == [[1]]
