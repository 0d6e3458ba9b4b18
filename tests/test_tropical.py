import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import (covector_cell_rows, det, fraction_polygon_cycle, fraction_solve,
                      full_covector_cells, idot, make_double_star, make_ex52,
                      make_ex52_rational, make_grid, make_marked_interior,
                      make_pinned_branch, maximizing_relation, random_marked_poset,
                      random_parameter, rref)
from mpp import linalg, tropical
from mpp.family import (Parameter, generic_parameter, hrep_general, hypercube_vertices,
                        iota, transfer_phi_projected, zero_parameter, one_parameter)
from mpp.geometry import TooLarge, vertices
from mpp.linalg import homogenized
from mpp.lattice import ehrhart, lattice_points
from mpp.poset import MarkedPoset
from mpp.tropical import (NonInteriorParameter, TropicalArrangement,
                          TropicalForm, arrangement, covector,
                          check_vertex_degeneration_conjecture,
                          compatible_ideal_chains, export_off,
                          generic_vertices, ideal_chain_cells,
                          subdivision_vertices, transferred_subdivision_vertices,
                          tropical_cells, tropical_subdivision)


def F(n, d=1):
    return Fraction(n, d)


# -- arrangements and covectors -----------------------------------------------------

def test_ex52_single_hyperplane(ex52):
    arr = arrangement(ex52)
    assert arr.names() == ("r",)
    assert arr.form("r").support == ("2", "p", "q")


def test_chain_poset_empty_arrangement(chain_poset):
    assert arrangement(chain_poset).hyperplanes == ()


def test_diamond_arrangement(diamond):
    arr = arrangement(diamond)
    assert arr.names() == ()  # top is marked; p, q cover one element each


def test_diamond_with_unmarked_top():
    poset = MarkedPoset(("bot", "p", "q", "t", "top"),
                        frozenset([("bot", "p"), ("bot", "q"), ("p", "t"),
                                   ("q", "t"), ("t", "top")]),
                        {"bot": 0, "top": 2})
    arr = arrangement(poset)
    assert arr.names() == ("t",)
    assert arr.form("t").support == ("p", "q")


def test_covector_ex52(ex52):
    arr = arrangement(ex52)
    x = iota(ex52, {"p": F(2), "q": F(2), "r": F(3)})
    assert covector(arr, x) == {"r": frozenset({"2", "p", "q"})}


def test_covector_generic_singleton(ex52):
    arr = arrangement(ex52)
    x = iota(ex52, {"p": F(5, 2), "q": F(1), "r": F(3)})
    assert covector(arr, x) == {"r": frozenset({"p"})}


def test_paper_standalone_arrangement_covector():
    arr = TropicalArrangement((
        ("H1", TropicalForm((("x1", F(-2)), ("x2", F(-1)), ("x3", F(0))))),
        ("H2", TropicalForm((("x1", F(-2)), ("x2", F(0))))),
        ("H3", TropicalForm((("x1", F(-1)), ("x3", F(0))))),
    ))
    cv = covector(arr, {"x1": F(1), "x2": F(1), "x3": F(0)})
    assert cv == {"H1": frozenset({"x2", "x3"}),
                  "H2": frozenset({"x2"}),
                  "H3": frozenset({"x1", "x3"})}
    # other labelled cells of the figure
    assert covector(arr, {"x1": F(2), "x2": F(0), "x3": F(0)}) == \
        {"H1": frozenset({"x1", "x3"}), "H2": frozenset({"x1", "x2"}),
         "H3": frozenset({"x1"})}
    assert covector(arr, {"x1": F(4), "x2": F(1, 2), "x3": F(0)}) == \
        {"H1": frozenset({"x1"}), "H2": frozenset({"x1"}), "H3": frozenset({"x1"})}


def test_two_hyperplane_arrangement_end_to_end():
    """A stacked double diamond yields two tropical hyperplanes; the generic
    enumeration must agree with the kernel across both."""
    poset = MarkedPoset(
        elements=("bot", "p", "q", "m", "u", "v", "w", "top"),
        covers=frozenset([("bot", "p"), ("bot", "q"), ("p", "m"), ("q", "m"),
                          ("m", "u"), ("m", "v"), ("u", "w"), ("v", "w"),
                          ("w", "top")]),
        marking={"bot": 0, "top": 2},
    )
    arr = arrangement(poset)
    assert arr.names() == ("m", "w")
    assert arr.form("m").support == ("p", "q")
    assert arr.form("w").support == ("u", "v")
    t = generic_parameter(poset)
    gv = generic_vertices(poset, t)  # asserts tropical == kernel internally
    sv = subdivision_vertices(poset)
    assert len(gv) == len(sv)  # interior parameters keep all subdivision vertices
    assert check_vertex_degeneration_conjecture(poset, t)["pass"]


def test_covector_translation_invariance(ex52):
    arr = arrangement(ex52)
    rnd = random.Random(2)
    for _ in range(20):
        x = {e: F(rnd.randint(-9, 9), rnd.randint(1, 5)) for e in ex52.elements}
        shifted = {k: v + F(11, 7) for k, v in x.items()}
        assert covector(arr, x) == covector(arr, shifted)


def test_covector_agrees_with_maximizing_relation(ex52):
    arr = arrangement(ex52)
    rnd = random.Random(6)
    for _ in range(20):
        x = {e: F(rnd.randint(-9, 9), rnd.randint(1, 5)) for e in ex52.elements}
        cv = covector(arr, x)
        rel = maximizing_relation(ex52, x)
        for r in arr.names():
            assert cv[r] == frozenset(q for q, p in rel if p == r)


# -- subdivision ---------------------------------------------------------------------

def test_ex52_subdivision_vertices(ex52):
    sv = subdivision_vertices(ex52)
    assert len(sv) == 14
    polytope = set(vertices(hrep_general(ex52, zero_parameter(ex52))).vertices)
    extra = set(sv) - polytope
    assert extra == {(F(2), F(0), F(4)), (F(2), F(2), F(4)), (F(0), F(2), F(4))}


def test_subdivision_cells_are_a_face_budget(ex52, monkeypatch):
    # ex52's subdivision has 57 cells; one more than FACE_GATE is refused
    from mpp import geometry
    from mpp.geometry import TooLarge
    monkeypatch.setattr(geometry, "FACE_GATE", 57)
    assert len(tropical_subdivision(ex52)) == 57
    monkeypatch.setattr(geometry, "FACE_GATE", 56)
    with pytest.raises(TooLarge, match="more than 56 cells"):
        tropical_subdivision(ex52)


def test_chain_poset_trivial_subdivision(chain_poset):
    cells = tropical_cells(chain_poset)
    assert len(cells) == 1
    sv = subdivision_vertices(chain_poset)
    assert set(sv) == set(vertices(hrep_general(chain_poset,
                                                zero_parameter(chain_poset))).vertices)


def test_polytope_vertices_are_subdivision_vertices(ex52):
    sv = set(subdivision_vertices(ex52))
    pv = set(vertices(hrep_general(ex52, zero_parameter(ex52))).vertices)
    assert pv <= sv


@pytest.mark.parametrize("cells_of", [tropical_subdivision, tropical_cells,
                                      ideal_chain_cells])
def test_cell_dim_and_tight_rows_match_evaluation(cells_of):
    # dimension by affine rank, tight base rows by exact evaluation at every
    # vertex of the cell, and the covector of its Fraction barycenter
    from conftest import barycenter, make_double_star, make_ex52, make_ex52_rational
    from mpp.tropical import _base_data
    for poset in (make_ex52(), make_double_star(), make_ex52_rational()):
        base, _ = _base_data(poset)
        arr = arrangement(poset)
        cells = cells_of(poset)
        assert cells
        for cell in cells:
            assert cell.dim == linalg.affine_rank(cell.vertices)
            assert cell.tight == frozenset(
                i for i, c in enumerate(base.inequalities)
                if all(c.evaluate(p) == c.rhs for p in cell.vertices))
            full = iota(poset, dict(zip(base.coords, barycenter(cell.vertices))))
            assert cell.covector == tuple((r, tuple(sorted(m)))
                                          for r, m in sorted(covector(arr, full).items()))


def _scanned_faces(poset) -> dict:
    """vertex set -> tight base rows of each face of each maximal cell, by
    the scan over every inequality that the vertex masks replace: the rows
    whose facet mask holds the face's."""
    from mpp.geometry import _bits, _dimension, facet_masks, iter_faces
    from mpp.tropical import _base_data, _covector_cells
    base, root = _base_data(poset)
    tight = {}
    for cone in _covector_cells(poset, arrangement(poset), base, root):
        v = cone.vrep()
        masks, facets, _ = facet_masks(base, v)
        for _, batch in iter_faces(v, facets, _dimension(base, v)):
            for f in batch:
                tight.setdefault(frozenset(v.vertices[i] for i in _bits(f)),
                                 frozenset(j for j, m in enumerate(masks) if f & m == f))
    return tight


@pytest.mark.parametrize("make", [make_ex52, make_double_star, lambda: make_grid(2, 3),
                                  lambda: make_grid(3, 3), make_ex52_rational],
                         ids=["ex52", "dstar", "grid2x3", "grid3x3", "ex52-rational"])
def test_cell_masks_equal_the_barycenter_covector_and_the_inequality_scan(make):
    # the covector ANDed over the vertices' argmax masks is the one read at
    # the barycenter of the vertex rows; the tight rows ANDed over the
    # vertices' masks are those of the scan
    from mpp.tropical import _base_data, _covector_at, _covector_forms
    poset = make()
    base, _ = _base_data(poset)
    forms = _covector_forms(poset, arrangement(poset), base.coords)
    scanned = _scanned_faces(poset)
    cells = tropical_subdivision(poset)
    assert len(cells) == len(scanned)
    for cell in cells:
        assert cell.covector == _covector_at(forms, homogenized(cell.vertices))
        assert cell.tight == scanned[frozenset(cell.vertices)]


def test_subdivision_cells_partition_volume(ex52):
    # exact normalized volumes via Ehrhart leading coefficients
    base = hrep_general(ex52, zero_parameter(ex52))
    base_lead = ehrhart(base, 3).coefficients[-1]
    total = F(0)
    for cell in tropical_cells(ex52):
        if cell.dim == 3:
            h = hrep_from_vertices_bounding(cell, ex52)
            total += ehrhart(h, 3).coefficients[-1]
    assert total == base_lead


def hrep_from_vertices_bounding(cell, poset):
    # rebuild the cell H-rep: base constraints + tight covector data is enough
    # for volume tests; reconstruct from the cell's defining system instead
    from mpp.family import _row_writer
    from mpp.tropical import _base_data
    base, _ = _base_data(poset)
    tau = {r: frozenset(m) for r, m in cell.covector}
    # keep only forced equalities (|members| >= 2)
    tau = {r: m for r, m in tau.items() if len(m) >= 1}
    eqs, ineqs = covector_cell_rows(poset, _row_writer(poset, base.coords), tau)
    return base.with_rows(eqs, ineqs)


def _fraction_triples(rows):
    """(coeffs, rhs, origin) in Fractions of integer rows (row, S, origin),
    row = S * (-rhs, coeffs)."""
    return [(tuple(F(x, s) for x in row[1:]), F(-row[0], s), origin)
            for row, s, origin in rows]


def test_tropical_cells_cover_all_lattice_points(ex52):
    base = hrep_general(ex52, zero_parameter(ex52))
    cells = tropical_cells(ex52)
    hulls = [hrep_from_vertices_bounding(c, ex52) for c in cells if c.dim == 3]
    for pt in lattice_points(base):
        p = tuple(F(v) for v in pt)
        assert any(h.contains(p) for h in hulls)


def test_phi_affine_on_each_cell(ex52):
    """The transfer map restricted to any tropical cell is affine: midpoints
    map to midpoints (checked on all vertex pairs of all maximal cells)."""
    from mpp.tropical import _base_data

    base, _ = _base_data(ex52)
    t = Parameter({"p": F(1, 3), "q": F(2, 7), "r": F(1, 2)})

    def phi(point):
        y = transfer_phi_projected(ex52, t, dict(zip(base.coords, point)))
        return tuple(y[c] for c in base.coords)

    for cell in tropical_cells(ex52):
        for a, b in itertools.combinations(cell.vertices, 2):
            mid = tuple((x + y) / 2 for x, y in zip(a, b))
            img_mid = tuple((x + y) / 2 for x, y in zip(phi(a), phi(b)))
            assert phi(mid) == img_mid


def test_subdivision_equals_literal_pair_enumeration(ex52):
    """The implemented subdivision (faces of covector cells) must equal the
    defining collection {face of polytope intersected with arrangement cell}."""
    from mpp.geometry import EmptyPolyhedron, face_lattice, make_hrep, vertices as vfun
    from mpp.family import _row_writer
    from mpp.tropical import _base_data
    from mpp.tropical import arrangement as arr_f

    base, _ = _base_data(ex52)
    arr = arr_f(ex52)
    write = _row_writer(ex52, base.coords)
    lat = face_lattice(base, vfun(base))

    literal = set()
    for tau, _, _ in full_covector_cells(ex52, arr, base):
        cov_eqs, cov_ineqs = map(_fraction_triples, covector_cell_rows(ex52, write, tau))
        for face in lat.faces:
            if face.dim < 0:
                continue
            tight_eqs = [(base.inequalities[i].coeffs, base.inequalities[i].rhs,
                          base.inequalities[i].origin) for i in face.tight]
            eqs = ([(c.coeffs, c.rhs, c.origin) for c in base.equations]
                   + tight_eqs + cov_eqs)
            ineqs = ([(c.coeffs, c.rhs, c.origin) for c in base.inequalities]
                     + cov_ineqs)
            try:
                h = make_hrep(base.coords, eqs, ineqs)
                v = vfun(h)
            except EmptyPolyhedron:
                continue
            literal.add(frozenset(v.vertices))

    implemented = {frozenset(c.vertices) for c in tropical_subdivision(ex52)}
    assert implemented == literal


def test_lemma_reduction_pins_subdivision_vertices(ex52):
    """Each subdivision vertex is the unique solution of its tight face
    constraints plus the covector equalities x_q = x_{q'}."""
    from mpp.tropical import _base_data
    from mpp.tropical import arrangement as arr_f
    base, _ = _base_data(ex52)
    arr = arr_f(ex52)
    index = {e: i for i, e in enumerate(base.coords)}
    for v in subdivision_vertices(ex52):
        x = iota(ex52, dict(zip(base.coords, v)))
        cv = covector(arr, x)
        rows, rhs = [], []
        for c in base.equations:
            rows.append(list(c.coeffs))
            rhs.append(c.rhs)
        for c in base.inequalities:
            if c.evaluate(v) == c.rhs:
                rows.append(list(c.coeffs))
                rhs.append(c.rhs)
        for r, members in cv.items():
            members = sorted(members)
            if len(members) < 2:
                continue
            m0 = members[0]
            for m in members[1:]:
                row = [F(0)] * len(base.coords)
                const = F(0)
                for elem, sign in ((m0, 1), (m, -1)):
                    if elem in ex52.marking:
                        const -= sign * ex52.marking[elem]
                    else:
                        row[index[elem]] += sign
                rows.append(row)
                rhs.append(const)
        assert fraction_solve(rows, rhs, unique=True) == v


def _lp_pruned_covectors(poset, arr, base, probes):
    """The covectors whose closed cell meets the polytope, each partial
    covector tested by an exact LP; probes collects each test's outcome."""
    from mpp.lp import LPStatus, lp_solve
    from mpp.family import _row_writer

    write = _row_writer(poset, base.coords)
    names = arr.names()
    n = len(base.coords)
    found = []

    def feasible(partial) -> bool:
        eqs, ineqs = map(_fraction_triples, covector_cell_rows(poset, write, partial))
        all_eqs = [(c.coeffs, c.rhs) for c in base.equations] + [(r, b) for r, b, _ in eqs]
        all_ineqs = ([(c.coeffs, c.rhs) for c in base.inequalities]
                     + [(r, b) for r, b, _ in ineqs])
        status, _, _ = lp_solve(n, [F(0)] * n, all_eqs, all_ineqs)
        probes.append(status is LPStatus.OPTIMAL)
        return probes[-1]

    def rec(i, partial):
        if i == len(names):
            found.append(dict(partial))
            return
        r = names[i]
        support = sorted(arr.form(r).support)
        for size in range(1, len(support) + 1):
            for members in itertools.combinations(support, size):
                partial[r] = frozenset(members)
                if feasible(partial):
                    rec(i + 1, partial)
                del partial[r]

    rec(0, {})
    return found


def test_dd_pruned_covectors_equal_lp_pruned():
    """The full covector search prunes a partial covector when double
    description finds its cell empty; an exact LP per partial covector must
    keep the same covectors, in the same order, on posets where some probes
    are empty."""
    from mpp.tropical import _base_data

    rnd = random.Random(7)
    posets = [make_ex52(), make_double_star(), make_grid(2, 3), make_grid(3, 3),
              make_marked_interior()]
    posets += [random_marked_poset(rnd, rnd.randint(6, 9), scale=2, mark_extra=0.3)
               for _ in range(30)]
    probes = []
    for poset in posets:
        base, _ = _base_data(poset)
        arr = arrangement(poset)
        dd = [tau for tau, _, _ in full_covector_cells(poset, arr, base)]
        assert dd == _lp_pruned_covectors(poset, arr, base, probes)
    assert probes.count(False) >= 18  # not vacuous: empty cells were pruned


def _cell_faces(cells) -> tuple[set, set]:
    """(vertices, faces) of (tau, H-rep, V-rep) cells: the union of their
    vertices, and every nonempty face of every cell as its vertex set."""
    from mpp.geometry import _bits, _dimension, facet_masks, iter_faces
    points, faces = set(), set()
    for _, h, v in cells:
        points.update(v.vertices)
        for _, batch in iter_faces(v, facet_masks(h, v)[1], _dimension(h, v)):
            faces.update(frozenset(v.vertices[i] for i in _bits(f)) for f in batch)
    return points, faces


def _rational_marking(rnd, poset) -> MarkedPoset:
    """poset with each mark moved up by less than 1 over denominators 3, 5
    and 7: the integral marks of random_marked_poset differ by at least 1
    along the order, so the marking stays strictly order-preserving."""
    return MarkedPoset(poset.elements, poset.covers,
                       {e: x + F(rnd.randint(0, 2), rnd.choice((3, 5, 7)))
                        for e, x in poset.marking.items()})


def test_maximal_cells_give_the_faces_of_every_covector_cell():
    """The search over single-element types only keeps the subdivision: the
    same vertices and the same faces as the cells of every covector."""
    from mpp.tropical import _base_data, _covector_cells

    rnd = random.Random(17)
    posets = [make_ex52(), make_ex52_rational(), make_double_star(), make_grid(2, 3),
              make_grid(3, 3), make_marked_interior()]
    for k in range(60):
        poset = random_marked_poset(rnd, rnd.randint(7, 10), scale=rnd.randint(1, 2),
                                    mark_extra=(0.0, 0.3)[k % 2])
        posets.append(_rational_marking(rnd, poset) if k % 3 == 0 else poset)
    arranged = 0
    for poset in posets:
        base, root = _base_data(poset)
        arr = arrangement(poset)
        arranged += bool(arr.hyperplanes)
        maximal = list(_covector_cells(poset, arr, base, root))
        # at most one cell per choice of one sector in each hyperplane
        assert len(maximal) <= math.prod(len(form.support) for _, form in arr.hyperplanes)
        points, faces = _cell_faces(full_covector_cells(poset, arr, base))
        # each cell's facets are read off its cone against the base H-rep, as
        # against the H-rep with the cell's sector rows appended
        assert _cell_faces((None, base, cone.vrep()) for cone in maximal) == (points, faces)
        hreps = [base.with_rows((), [(row, 1, ()) for row in cone.rows[len(root.rows):]])
                 for cone in maximal]
        assert _cell_faces((None, h, cone.vrep())
                           for h, cone in zip(hreps, maximal)) == (points, faces)
        assert set(subdivision_vertices(poset)) == points
        assert {frozenset(c.vertices) for c in tropical_subdivision(poset)} == faces
    assert arranged >= 40  # not vacuous: most posets have a hyperplane


# -- generic vertices ------------------------------------------------------------------

def test_ex52_generic_vertices(ex52):
    t = Parameter({"p": F(1, 2), "q": F(1, 2), "r": F(1, 2)})
    assert len(generic_vertices(ex52, t)) == 14


def test_chain_poset_generic_three_vertices(chain_poset):
    t = Parameter({"p": F(1, 3), "q": F(1, 2)})
    assert len(generic_vertices(chain_poset, t)) == 3


def test_generic_requires_interior(ex52):
    with pytest.raises(NonInteriorParameter):
        generic_vertices(ex52, zero_parameter(ex52))


def test_transferred_superset_at_boundary(ex52):
    # for arbitrary t the transferred subdivision vertices contain the vertices
    for t in (zero_parameter(ex52), one_parameter(ex52),
              Parameter({"p": F(1), "q": F(0), "r": F(1, 3)})):
        sup = set(transferred_subdivision_vertices(ex52, t))
        vt = set(vertices(hrep_general(ex52, t)).vertices)
        assert vt <= sup


def test_generic_matches_kernel_random():
    rnd = random.Random(31)
    done = 0
    while done < 6:
        poset = random_marked_poset(rnd, rnd.randint(3, 6), bounded=True,
                                    max_unmarked=4)
        t = random_parameter(rnd, poset, interior=True)
        gv = generic_vertices(poset, t)  # raises internally on mismatch
        assert len(gv) >= 1
        done += 1



@pytest.mark.parametrize("m,n", [(4, 4), (4, 5)])
def test_generic_vrep_at_scale(m, n):
    # the transferred subdivision vertices are the kernel's vertices (or
    # generic_vrep raises), at the generic t and at a seeded interior t; the
    # full covector search gave no answer on grid4x5 within 300 s
    from mpp.tropical import generic_vrep
    poset = make_grid(m, n)
    rnd = random.Random(m * 10 + n)
    for t in (generic_parameter(poset), random_parameter(rnd, poset, interior=True)):
        kernel = vertices(hrep_general(poset, t, projected=True))
        assert generic_vrep(poset, t) == kernel


# -- the transfer certificate at the corners -----------------------------------------

def _fresh(poset):
    """A copy of poset with none of its cached data."""
    return MarkedPoset(poset.elements, poset.covers, poset.marking)


def _opposite(t):
    return Parameter({p: 1 - v for p, v in t.values.items()})


def test_transfer_certifies_every_corner_of_grid3x3():
    # 128 corners, 32 distinct H-reps; the smaller posets' corners are
    # checked against the enumeration in test_lattice.py
    poset = make_grid(3, 3)
    assert all(tropical.transfer_certifies(poset, t) for t in hypercube_vertices(poset))
    assert len(tropical._certificate_data(poset)[2]) == 32


def _moves_with_t(poset, t) -> bool:
    """Whether O_t differs from the polytope of the opposite corner."""
    return vertices(hrep_general(poset, t)) != vertices(hrep_general(poset, _opposite(t)))


def _opposite_posets():
    # 16 seeded draws, each with a corner whose polytope is not its
    # opposite corner's, so that the opposite map is refused there
    rnd = random.Random(41)
    posets = [make_ex52(), make_double_star(), make_grid(2, 3)]
    while len(posets) < 19:
        poset = random_marked_poset(rnd, rnd.randint(4, 8), max_unmarked=5)
        if poset.unmarked and _moves_with_t(poset, zero_parameter(poset)):
            posets.append(poset)
    return posets


@pytest.mark.parametrize("poset", _opposite_posets())
def test_opposite_corners_map_is_refused_where_the_polytopes_differ(poset, monkeypatch):
    # the certificate with phi of the opposite corner in place of phi_t: it
    # passes exactly where the opposite corner's polytope is O_t itself
    transfer = tropical.transfer_theta_homogeneous
    monkeypatch.setattr(tropical, "transfer_theta_homogeneous",
                        lambda poset, t, t2: transfer(poset, t, _opposite(t2)))
    for t in hypercube_vertices(poset):
        if _moves_with_t(poset, t):
            with pytest.raises(AssertionError, match=r"^phi_t maps .* at t: "):
                tropical.transfer_certifies(_fresh(poset), t)
        else:
            assert tropical.transfer_certifies(_fresh(poset), t)


def test_each_failed_check_names_what_left_o_t(monkeypatch):
    # at t = 1 on ex52: images shifted off O_1 fail the row check, and
    # images all inside O_1 (halfway to their barycenter) the facet check
    poset = make_ex52()
    t = one_parameter(poset)
    transfer = tropical.transfer_theta_homogeneous

    def shifted(poset, t, t2):  # every image moved by -1 in its first coordinate
        return lambda rows: [(w[0], w[1] - w[0], *w[2:]) for w in transfer(poset, t, t2)(rows)]

    monkeypatch.setattr(tropical, "transfer_theta_homogeneous", shifted)
    with pytest.raises(AssertionError, match="a vertex of the tropical subdivision of O_0 "
                                             "outside O_t at t: p = 1, q = 1, r = 1"):
        tropical.transfer_certifies(_fresh(poset), t)

    def shrunk(poset, t, t2):  # every image moved halfway to an interior point
        def run(rows):
            images = transfer(poset, t, t2)(rows)
            centre = [sum(col) for col in zip(*images)]
            n = len(images)
            return [tuple(n * a + c for a, c in zip(w, centre)) for w in images]
        return run

    monkeypatch.setattr(tropical, "transfer_theta_homogeneous", shrunk)
    with pytest.raises(AssertionError, match="a facet of the boundary of O_0 off the "
                                             "boundary of O_t"):
        tropical.transfer_certifies(_fresh(poset), t)


def test_certificate_needs_a_full_dimensional_o_0(monkeypatch):
    # x_p is pinned: no cell is full-dimensional, nothing is checked
    poset = make_pinned_branch()
    monkeypatch.setattr(tropical, "transfer_theta_homogeneous", None)  # any call fails
    assert tropical._certificate_data(poset) is None
    assert not tropical.transfer_certifies(poset, one_parameter(poset))


def test_certificate_data_lists_the_boundary_facets_of_every_cell():
    # ex52's three cells are 3-dimensional and cover O_0, whose vertices
    # are among the rows; each listed facet spans a plane in a base row
    poset = make_ex52()
    rows, boundary, certified = tropical._certificate_data(poset)
    base, root = tropical._base_data(poset)
    assert set(root.vrep().rows) <= set(rows)  # integral vertices: rows (1, v)
    assert len(set(rows)) == len(rows) == len(subdivision_vertices(poset))
    assert certified == set()
    for ids in boundary:
        assert linalg.rank([rows[i] for i in ids]) == 3
        assert any(all(idot(row, rows[i]) == 0 for i in ids) for row in base.int_inequalities)

# -- ideal chains ------------------------------------------------------------------------

def test_order_ideals_chain(chain_poset):
    ideals = order_ideals(chain_poset)
    assert [sorted(i) for i in ideals] == [[], ["a"], ["a", "p"],
                                           ["a", "p", "q"], ["a", "b", "p", "q"]]


def test_all_marked_poset_single_cell():
    poset = MarkedPoset(("a", "b"), frozenset([("a", "b")]), {"a": 0, "b": 1})
    cells = ideal_chain_cells(poset)
    assert all(c.dim == 0 for c in cells)
    assert len(cells) == 1  # only the compatible chain {} < {a} < {a,b}


def test_compatibility_filters_marking_order():
    poset = MarkedPoset(("a", "b"), frozenset(), {"a": 0, "b": 1})
    chains = compatible_ideal_chains(poset)
    # a must enter strictly before b since lambda(a) < lambda(b)
    for chain in chains:
        fa = min(k for k, I in enumerate(chain) if "a" in I)
        fb = min(k for k, I in enumerate(chain) if "b" in I)
        assert fa < fb


def order_ideals(poset):
    """All order ideals (downward-closed subsets), smallest first, ties by
    their sorted elements: each element of a linear extension joins every
    ideal that holds the elements below it."""
    ideals = {frozenset()}
    for e in poset.linear_extension():
        below = set(poset._members(poset._below[e]))
        ideals |= {i | {e} for i in ideals if below <= i}
    return sorted(ideals, key=lambda s: (len(s), tuple(sorted(s))))


def all_compatible_ideal_chains(poset):
    """Oracle: every chain of order ideals from the empty one to P, taken
    depth-first with each next ideal in the order of order_ideals, and kept
    when the whole chain is compatible with the marking; no budget."""
    ideals = order_ideals(poset)
    full = frozenset(poset.elements)
    out = []

    def rec(chain):
        if chain[-1] == full:
            block = {e: k for k in range(1, len(chain)) for e in chain[k] - chain[k - 1]}
            if all((block[a] < block[b]) == (poset.marking[a] < poset.marking[b])
                   for a in poset.marking for b in poset.marking):
                out.append(tuple(chain))
            return
        for nxt in ideals:
            if chain[-1] < nxt:
                rec(chain + [nxt])

    rec([frozenset()])
    return out


def test_compatible_ideal_chains_equal_the_filtered_enumeration():
    rnd = random.Random(2201)
    chains = 0
    for _ in range(80):
        poset = random_marked_poset(rnd, rnd.randint(2, 7), p_edge=0.3, mark_extra=0.1)
        if rnd.random() < 0.5:  # comparable marked elements may share a value
            poset = MarkedPoset(poset.elements, poset.covers,
                                {a: v // 2 for a, v in poset.marking.items()})
        expected = all_compatible_ideal_chains(poset)
        assert compatible_ideal_chains(poset) == expected
        chains += len(expected)
    assert chains > 200  # not vacuous


def make_fan() -> MarkedPoset:
    """a < m1, ..., m4, u1, u2, u3 < z with a = 0, m_i = i and z = 5: an
    antichain of seven, four of them marked apart."""
    middle = ("m1", "m2", "m3", "m4", "u1", "u2", "u3")
    return MarkedPoset(("a",) + middle + ("z",),
                       frozenset([("a", m) for m in middle] + [(m, "z") for m in middle]),
                       {"a": 0, "m1": 1, "m2": 2, "m3": 3, "m4": 4, "z": 5})


def test_fan_ideal_chains_stay_within_the_budget():
    # 1,691 compatible chains among more than 20,000 chains of ideals: the
    # budget counts compatible prefixes only
    assert len(compatible_ideal_chains(make_fan())) == 1691


def test_ideal_chains_are_refused_at_the_chain_gate():
    # a < m1, ..., m8 < z with only a and z marked: the compatible prefixes
    # outgrow the budget
    middle = tuple(f"m{i}" for i in range(1, 9))
    poset = MarkedPoset(("a",) + middle + ("z",),
                        frozenset([("a", m) for m in middle] + [(m, "z") for m in middle]),
                        {"a": 0, "z": 1})
    with pytest.raises(TooLarge, match="more than 20000 compatible ideal-chain prefixes"):
        compatible_ideal_chains(poset)


def test_ideal_chain_cells_chain_poset(chain_poset):
    cells = ideal_chain_cells(chain_poset)
    maximal = [c for c in cells if c.dim == 2]
    base = hrep_general(chain_poset, zero_parameter(chain_poset))
    lead = ehrhart(base, 2).coefficients[-1]
    total = sum((ehrhart_of_cell(chain_poset, c) for c in maximal), F(0))
    assert total == lead


def ehrhart_of_cell(poset, cell):
    from mpp.tropical import _base_data
    from mpp.geometry import make_hrep
    # cells of the ideal-chain subdivision are simplices here; use the hull of
    # the vertex set via a fresh H-rep derived from brute-force facets
    verts = cell.vertices
    d = linalg.affine_rank(verts)
    h = hull_hrep(verts)
    return ehrhart(h, max(d, 1)).coefficients[-1] if d == 2 else F(0)


def hull_hrep(verts):
    # tiny exact convex hull for 2-D point sets (used by tests only)
    pts = sorted(set(verts))
    d = len(pts[0])
    assert d == 2
    ineqs = []
    for a, b in itertools.combinations(pts, 2):
        nx, ny = b[1] - a[1], a[0] - b[0]
        if nx == 0 and ny == 0:
            continue
        rhs = nx * a[0] + ny * a[1]
        vals = [nx * p[0] + ny * p[1] for p in pts]
        if all(v <= rhs for v in vals):
            ineqs.append(((nx, ny), rhs, ("hull",)))
        elif all(v >= rhs for v in vals):
            ineqs.append(((-nx, -ny), -rhs, ("hull",)))
    from mpp.geometry import make_hrep
    return make_hrep(("x", "y"), [], ineqs)


def test_ideal_cells_have_lattice_vertices(ex52):
    for cell in ideal_chain_cells(ex52):
        for v in cell.vertices:
            assert all(x.denominator == 1 for x in v)


@pytest.mark.parametrize("make", [make_ex52, make_ex52_rational, make_double_star,
                                  lambda: make_grid(2, 3), make_marked_interior,
                                  lambda: make_grid(3, 3)],
                         ids=["ex52", "ex52q", "dstar", "grid2x3", "interior", "grid3x3"])
def test_ideal_cells_refine_tropical_cells(make):
    # the ideal-chain complex refines the tropical one: every ideal-chain
    # cell, each maximal one included, lies in one maximal tropical cell
    poset = make()
    hulls = [hrep_from_vertices_bounding(c, poset) for c in tropical_cells(poset)]
    cells = ideal_chain_cells(poset)
    maximal = [c for c in cells if c.dim == len(poset.unmarked)]
    assert len(maximal) >= len(hulls) > 1

    def holds(h, rows):
        return (all(idot(a, p) == 0 for a in h.int_equations for p in rows)
                and all(idot(a, p) <= 0 for a in h.int_inequalities for p in rows))

    for cell in cells:
        rows = homogenized(cell.vertices)
        assert any(holds(h, rows) for h in hulls)


# -- piecewise unimodularity on ideal-chain cells -------------------------------------------

def test_transfer_piecewise_unimodular_on_cells(ex52):
    """On each maximal ideal-chain cell the hypercube-vertex transfer map is an
    integer matrix with determinant +-1."""
    t = one_parameter(ex52)
    base = hrep_general(ex52, zero_parameter(ex52))
    coords = base.coords
    for cell in ideal_chain_cells(ex52):
        if cell.dim != 3:
            continue
        bary = tuple(sum(col, F(0)) / len(cell.vertices)
                     for col in zip(*cell.vertices))
        x0 = iota(ex52, dict(zip(coords, bary)))
        # linear part via finite differences inside the cell (exact: the map is
        # affine on the cell, so difference quotients are the true columns)
        eps = F(1, 10 ** 6)
        cols = []
        for c in coords:
            xp = dict(x0)
            xp[c] = xp[c] + eps
            y0 = transfer_phi_projected(ex52, t, {k: x0[k] for k in coords})
            y1 = transfer_phi_projected(ex52, t,
                                        {k: (xp[k] if k in coords else x0[k])
                                         for k in coords})
            cols.append(tuple((y1[d] - y0[d]) / eps for d in coords))
        mat = tuple(zip(*cols))
        assert all(x.denominator == 1 for row in mat for x in row)
        assert abs(det(mat)) == 1


# -- conjecture checker -----------------------------------------------------------------

def test_conjecture_ex52_all_witnessed(ex52):
    t = generic_parameter(ex52)
    rep = check_vertex_degeneration_conjecture(ex52, t)
    assert rep["pass"] and len(rep["vertices"]) == 14


def test_conjecture_trivial_when_no_arrangement(chain_poset):
    t = Parameter({"p": F(1, 3), "q": F(1, 2)})
    rep = check_vertex_degeneration_conjecture(chain_poset, t)
    assert rep["pass"]
    assert all(v["witnesses"] for v in rep["vertices"])


def test_conjecture_report_schema(ex52):
    rep = check_vertex_degeneration_conjecture(ex52, generic_parameter(ex52))
    assert set(rep) == {"check", "pass", "vertices"}
    assert all(set(v) == {"vertex", "witnesses"} for v in rep["vertices"])


# -- OFF export --------------------------------------------------------------------------

def test_off_export_structure(ex52):
    text = export_off(ex52)
    lines = text.strip().splitlines()
    assert lines[0] == "OFF"
    nv, nf, ne = map(int, lines[1].split())
    assert nv == 14 and nf > 0


def test_off_export_planar(chain_poset):
    text = export_off(chain_poset)
    lines = text.strip().splitlines()
    nv, nf, _ = map(int, lines[1].split())
    assert nv == 3 and nf == 1  # the triangle itself is the single 2-cell
    face_row = lines[2 + nv].split()
    assert face_row[0] == "3" and len(set(face_row[1:])) == 3


def test_ideal_chain_refusal_stops_at_the_budget():
    # a < m1, ..., m20 < z with only a and z marked: more than 2^20 ideals
    # lie above the empty one, and the refusal comes once the ideals built
    # so far hold more compatible prefixes than the budget
    middle = tuple(f"m{i}" for i in range(1, 21))
    poset = MarkedPoset(("a",) + middle + ("z",),
                        frozenset([("a", m) for m in middle] + [(m, "z") for m in middle]),
                        {"a": 0, "z": 1})
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="more than 20000 compatible ideal-chain prefixes"):
        compatible_ideal_chains(poset)
    assert time.perf_counter() - start < 5


def test_conjecture_reports_a_vertex_without_witness(ex52, monkeypatch):
    # with no hypercube vertex to degenerate to, no vertex has a witness
    monkeypatch.setattr(tropical, "hypercube_vertices", lambda poset: iter(()))
    rep = check_vertex_degeneration_conjecture(ex52, generic_parameter(ex52))
    assert not rep["pass"] and rep["vertices"]
    assert all(item["witnesses"] == [] for item in rep["vertices"])


def test_polygon_cycle_keeps_collinear_points():
    points = [(F(0), F(0)), (F(2), F(2)), (F(1), F(1))]
    assert tropical._polygon_cycle(points) == points


def test_polygon_cycle_matches_the_fraction_oracle():
    # shuffled rational polygons in convex position (points on a parabola)
    # and segments, in the plane and in 3-space: the integer kernel's plane
    # coordinates give the cycle of the Fraction solve
    rnd = random.Random(71)

    def rational():
        return F(rnd.randint(-9, 9), rnd.randint(1, 6))

    seen = {"polygon": 0, "segment": 0}
    for _ in range(500):
        dim = rnd.choice((2, 3))
        u, w = (tuple(rational() for _ in range(dim)) for _ in range(2))
        if len(rref([u, w])[1]) < 2:
            continue
        base = tuple(rational() for _ in range(dim))
        segment = rnd.random() < 0.2
        params = list({rational() for _ in range(rnd.randint(2, 8))})
        if len(params) < 2:
            continue
        pts = [tuple(b + s * x + (0 if segment else s * s) * y for b, x, y in zip(base, u, w))
               for s in params]
        rnd.shuffle(pts)
        cycle = tropical._polygon_cycle(pts)
        assert cycle == fraction_polygon_cycle(pts)
        assert sorted(cycle) == sorted(pts)
        seen["segment" if segment or len(pts) < 3 else "polygon"] += 1
    assert min(seen.values()) >= 50, seen
