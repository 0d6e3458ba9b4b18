import hashlib
import importlib.util
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (barycenter, faces_by_vertex_ids, fraction_recession_direction,
                      fraction_vertices_bruteforce, idot, make_chain_poset,
                      make_double_star, make_ex52, make_ex52_rational, make_grid, primitive,
                      random_hrep, random_marked_poset, random_parameter, triples)
from mpp.family import (Parameter, generic_parameter, hrep_general, hypercube_vertices,
                        one_parameter, zero_parameter)
from mpp.geometry import (EmptyPolyhedron, Face, HRep, Unbounded, UnsupportedLineality,
                          UnsupportedUnbounded, TooLarge, face_counts, face_lattice,
                          facet_masks, iter_faces, make_hrep, maximal_masks, vertices,
                          vertices_bruteforce)
from mpp.poset import MarkedPoset
from mpp import geometry, jsonio, linalg, tropical


def F(n, d=1):
    return Fraction(n, d)


def box(coords, bounds):
    ineqs = []
    for i, (lo, hi) in enumerate(bounds):
        e = [F(0)] * len(coords)
        e[i] = F(1)
        ineqs.append((tuple(e), F(hi), ("box",)))
        ineqs.append((tuple(-x for x in e), F(-lo), ("box",)))
    return make_hrep(coords, [], ineqs)


def test_unit_interval():
    h = box(("x",), [(0, 1)])
    v = vertices(h)
    assert v.vertices == ((F(0),), (F(1),)) and v.rays == ()


def test_unit_square_bruteforce():
    h = box(("x", "y"), [(0, 1), (0, 1)])
    assert len(vertices_bruteforce(h).vertices) == 4


def test_chain_poset_triangle():
    h = hrep_general(make_chain_poset(), zero_parameter(make_chain_poset()))
    v = vertices(h)
    assert set(v.vertices) == {(F(0), F(0)), (F(0), F(2)), (F(2), F(2))}
    assert set(vertices_bruteforce(h).vertices) == set(v.vertices)


def test_ex52_eleven_vertices():
    poset = make_ex52()
    h = hrep_general(poset, zero_parameter(poset))
    v = vertices(h)
    assert len(v.vertices) == 11
    assert set(vertices_bruteforce(h).vertices) == set(v.vertices)


def test_empty_polyhedron():
    h = make_hrep(("x",), [], [((F(1),), F(0), ()), ((F(-1),), F(-1), ())])
    with pytest.raises(EmptyPolyhedron):
        vertices(h)


def test_unbounded_rays():
    # x >= 0, y >= x: vertex (0,0), rays (0,1) and (1,1)
    h = make_hrep(("x", "y"), [],
                  [((F(-1), F(0)), F(0), ()), ((F(1), F(-1)), F(0), ())])
    v = vertices(h)
    assert v.vertices == ((F(0), F(0)),)
    assert set(v.rays) == {(F(0), F(1)), (F(1), F(1))}
    with pytest.raises(Unbounded):
        vertices_bruteforce(h)


def test_equations_cut_dimension():
    h = make_hrep(("x", "y", "z"),
                  [((F(1), F(1), F(1)), F(1), ())],
                  [((F(-1), F(0), F(0)), F(0), ()), ((F(0), F(-1), F(0)), F(0), ()),
                   ((F(0), F(0), F(-1)), F(0), ())])
    v = vertices(h)
    assert set(v.vertices) == {(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))}


def random_bounded_hrep(rnd, d, extra=4):
    coords = tuple(f"x{i}" for i in range(d))
    k = rnd.randint(1, 3)
    h = box(coords, [(-k, k)] * d)
    ineqs = [(c.coeffs, c.rhs, c.origin) for c in h.inequalities]
    for _ in range(extra):
        coeffs = tuple(F(rnd.randint(-3, 3)) for _ in range(d))
        if all(c == 0 for c in coeffs):
            continue
        ineqs.append((coeffs, F(rnd.randint(0, 3 * k)), ("cut",)))
    return make_hrep(coords, [], ineqs)


def test_dd_equals_bruteforce_random():
    rnd = random.Random(42)
    for _ in range(60):
        h = random_bounded_hrep(rnd, rnd.randint(1, 4))
        try:
            v = vertices(h)
        except EmptyPolyhedron:
            with pytest.raises(EmptyPolyhedron):
                vertices_bruteforce(h)
            continue
        vb = vertices_bruteforce(h)
        assert set(v.vertices) == set(vb.vertices)
        assert v.rays == ()


def test_dd_equals_bruteforce_with_equations():
    rnd = random.Random(43)
    for _ in range(30):
        d = rnd.randint(2, 4)
        h = random_bounded_hrep(rnd, d)
        coeffs = tuple(F(rnd.randint(-2, 2)) for _ in range(d))
        if all(c == 0 for c in coeffs):
            continue
        eq = [(coeffs, F(rnd.randint(0, 2)), ("slice",))]
        h = make_hrep(h.coords, eq, [(c.coeffs, c.rhs, c.origin)
                                     for c in h.inequalities])
        try:
            v = vertices(h)
        except EmptyPolyhedron:
            with pytest.raises(EmptyPolyhedron):
                vertices_bruteforce(h)
            continue
        vb = vertices_bruteforce(h)
        assert set(v.vertices) == set(vb.vertices)


def _vrep_or_error(run):
    try:
        return run()
    except (EmptyPolyhedron, UnsupportedLineality) as exc:
        return type(exc)


def test_cut_continues_dd_to_the_vertices_of_the_whole_hrep():
    # DD on a prefix of the inequalities, continued by Cone.cut with the rest
    # in two steps (a row of the prefix repeated among them), gives the
    # vertices of the whole H-rep, or the same error
    rnd = random.Random(44)
    seen = set()
    for _ in range(200):
        d = rnd.randint(1, 4)
        coords = tuple(f"x{i}" for i in range(d))
        rows = [tuple(F(rnd.randint(-3, 3)) for _ in range(d))
                for _ in range(rnd.randint(1, 8))]
        ineqs = [(a, F(rnd.randint(-3, 4), rnd.choice((1, 2))), ("cut",))
                 for a in rows if any(a)]
        normal = tuple(F(rnd.randint(-1, 1)) for _ in range(d))
        eqs = [(normal, F(1), ("eq",))] if d > 1 and any(normal) and rnd.random() < 0.2 else []
        whole = make_hrep(coords, eqs, ineqs)
        j = rnd.randint(0, len(ineqs))
        prefix = make_hrep(coords, eqs, ineqs[:j])
        suffix = list(whole.int_inequalities[len(prefix.int_inequalities):])
        if prefix.int_inequalities and rnd.random() < 0.5:
            suffix.insert(rnd.randint(0, len(suffix)), rnd.choice(prefix.int_inequalities))
        k = rnd.randint(0, len(suffix))

        def continued():
            cone = geometry.homogenization_cone(prefix)
            return cone.cut(suffix[:k]).cut(suffix[k:]).vrep()

        expected = _vrep_or_error(lambda: vertices(whole))
        assert _vrep_or_error(continued) == expected
        seen.add(expected if isinstance(expected, type) else bool(expected.rays))
    # not vacuous: polytopes, unbounded polyhedra, lines and empty ones
    assert seen == {False, True, EmptyPolyhedron, UnsupportedLineality}


def all_fractions(v):
    return all(type(x) is Fraction for p in v.vertices for x in p)


def test_dd_rational_rows_match_bruteforce():
    # coefficients and right-hand sides with denominators: the kernel scales
    # each row to integers and must land on the same vertices
    rnd = random.Random(44)
    for _ in range(15):
        d = rnd.randint(2, 3)
        h = random_bounded_hrep(rnd, d, extra=2)
        ineqs = [(c.coeffs, c.rhs, c.origin) for c in h.inequalities]
        for _ in range(2):
            coeffs = tuple(F(rnd.randint(-6, 6), rnd.choice((1, 2, 3, 4)))
                           for _ in range(d))
            if any(coeffs):
                ineqs.append((coeffs, F(rnd.randint(1, 9), rnd.choice((2, 3, 4))), ("cut",)))
        h = make_hrep(h.coords, [], ineqs)
        try:
            v = vertices(h)
        except EmptyPolyhedron:
            with pytest.raises(EmptyPolyhedron):
                vertices_bruteforce(h)
            continue
        assert v.vertices == vertices_bruteforce(h).vertices
        assert all_fractions(v)


@pytest.mark.parametrize("values", [(F(1, 3), F(3, 4), F(1, 2)),
                                    (F(3, 4), F(1, 3), F(2, 3)),
                                    (F(1, 4), F(1, 4), F(3, 4))])
def test_dd_interior_t_matches_bruteforce_in_order(values):
    poset = make_ex52()
    t = Parameter(dict(zip(("p", "q", "r"), values)))
    h = hrep_general(poset, t)
    v = vertices(h)
    assert v.vertices == vertices_bruteforce(h).vertices  # same tuples, same order
    assert all_fractions(v)


def test_dd_dependent_equation():
    rnd = random.Random(45)
    for _ in range(10):
        d = rnd.randint(2, 4)
        h = random_bounded_hrep(rnd, d, extra=2)
        coeffs = tuple(F(rnd.randint(-2, 2), 3) for _ in range(d))
        if not any(coeffs):
            continue
        rhs = F(rnd.randint(0, 2), 2)
        ineqs = [(c.coeffs, c.rhs, c.origin) for c in h.inequalities]
        single = make_hrep(h.coords, [(coeffs, rhs, ("slice",))], ineqs)
        double = make_hrep(h.coords, [(coeffs, rhs, ("slice",)),
                                      (tuple(-F(3, 2) * c for c in coeffs), -F(3, 2) * rhs,
                                       ("slice",))], ineqs)
        try:
            v = vertices(double)
        except EmptyPolyhedron:
            with pytest.raises(EmptyPolyhedron):
                vertices_bruteforce(single)
            continue
        assert v == vertices(single)
        assert v.vertices == vertices_bruteforce(single).vertices


def test_unbounded_rays_are_primitive_fractions():
    # x, y >= 0 and (2/3) x - y <= 1/2: recession cone spanned by (0,1), (3,2)
    h = make_hrep(("x", "y"), [],
                  [((F(-1), F(0)), F(0), ()), ((F(0), F(-1)), F(0), ()),
                   ((F(2, 3), F(-1)), F(1, 2), ())])
    v = vertices(h)
    assert v.vertices == ((F(0), F(0)), (F(3, 4), F(0)))
    assert v.rays == ((F(0), F(1)), (F(3), F(2)))
    assert all_fractions(v)
    assert all(type(x) is int for r in v.rays for x in r)
    for r in v.rays:
        assert math.gcd(*r) == 1


def test_unbounded_vertices_build_no_fraction(monkeypatch):
    # the quadrant x, y >= 0 cut by x - y <= 1: vertices (0,0), (1,0), rays
    # (0,1) and (1,1); DD and its V-rep stay in integers
    h = make_hrep(("x", "y"), [],
                  [((F(-1), F(0)), F(0), ()), ((F(0), F(-1)), F(0), ()),
                   ((F(1), F(-1)), F(1), ())])
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    v = vertices(h)
    monkeypatch.undo()
    assert v.rows == ((1, 0, 0), (1, 1, 0)) and v.rays == ((0, 1), (1, 1))
    assert made == []


def test_lineality_and_empty_paths():
    slab = make_hrep(("x", "y"), [], [((F(1), F(0)), F(1), ()), ((F(-1), F(0)), F(1, 2), ())])
    with pytest.raises(UnsupportedLineality):
        vertices(slab)
    gap = make_hrep(("x", "y"), [], [((F(1), F(0)), F(0), ()), ((F(-1), F(0)), F(-1), ())])
    with pytest.raises(EmptyPolyhedron):  # empty, though no row bounds y
        vertices(gap)
    clash = make_hrep(("x", "y"), [((F(1), F(1)), F(1), ()), ((F(1), F(1)), F(2), ())],
                      [((F(-1), F(0)), F(0), ()), ((F(0), F(-1)), F(0), ())])
    with pytest.raises(EmptyPolyhedron):
        vertices(clash)
    gap = make_hrep(("x",), [], [((F(-1),), F(-1, 2), ()), ((F(1),), F(1, 3), ())])
    with pytest.raises(EmptyPolyhedron):
        vertices(gap)


def grid_poset(m, n):
    """Product of chains m x n, bottom marked 0 and top marked m + n."""
    els = [f"x{i}{j}" for i in range(m) for j in range(n)]
    covers = [(f"x{i}{j}", f"x{i + 1}{j}") for i in range(m - 1) for j in range(n)]
    covers += [(f"x{i}{j}", f"x{i}{j + 1}") for i in range(m) for j in range(n - 1)]
    return MarkedPoset(tuple(els), frozenset(covers), {"x00": 0, f"x{m - 1}{n - 1}": m + n})


def test_grid3x4_interior_vertices_pinned():
    # ambient dimension 10 is beyond the brute-force oracle; the digest was
    # recorded from the Fraction-based DD kernel and pins tuples and order
    poset = grid_poset(3, 4)
    vals = (F(1, 3), F(3, 4), F(1, 2), F(2, 3), F(1, 4))
    t = Parameter({e: vals[i % 5] for i, e in enumerate(sorted(poset.unmarked))})
    v = vertices(hrep_general(poset, t))
    assert len(v.vertices) == 33 and v.rays == ()
    assert all_fractions(v)
    text = ";".join(",".join(map(str, p)) for p in v.vertices)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "6d2ce294ef069857a6ad049039d3e783a2ffa3da223b1e1762bda96767b9223d"


def test_vertex_tight_constraints_property():
    # every vertex satisfies >= d linearly independent constraints with equality
    rnd = random.Random(3)
    for _ in range(20):
        h = random_bounded_hrep(rnd, rnd.randint(2, 4))
        try:
            v = vertices(h)
        except EmptyPolyhedron:
            continue
        d = h.dim_ambient
        for p in v.vertices:
            rows = [c.coeffs for c in h.equations]
            rows += [c.coeffs for c in h.inequalities if c.evaluate(p) == c.rhs]
            assert linalg.rank(rows) == d


def test_rays_in_recession_cone():
    h = make_hrep(("x", "y"), [],
                  [((F(-1), F(0)), F(0), ()), ((F(1), F(-1)), F(5), ())])
    v = vertices(h)
    for r in v.rays:
        assert all(linalg.dot(c.coeffs, r) <= 0 for c in h.inequalities)
        assert any(x != 0 for x in r)


def test_vrep_complete_against_lp_oracle():
    """conv(V) + cone(R) must reproduce every LP outcome: bounded objectives
    attain their maximum at a vertex, at an LP point x that satisfies every
    row; unbounded ones have a positive ray; and the LP reports INFEASIBLE
    exactly when vertex enumeration finds the polyhedron empty.  Rows have
    rational coefficients and right-hand sides, sometimes an equation."""
    from mpp.lp import LPStatus, lp_solve

    rnd = random.Random(99)
    vals = [F(-2), F(-1), F(-1, 2), F(-1, 3), F(0), F(0), F(1, 3), F(1, 2),
            F(2, 3), F(1), F(3, 2), F(2)]
    feasible = infeasible = 0
    while feasible < 30 or infeasible < 8:
        d = rnd.randint(2, 4)
        coords = tuple(f"x{i}" for i in range(d))
        eqs, ineqs = [], []
        # lower bounds always; upper bounds only sometimes, admitting rays
        for i in range(d):
            e = [F(0)] * d
            e[i] = F(1)
            ineqs.append((tuple(-x for x in e), F(rnd.randint(0, 4), 2), ("lo",)))
            if rnd.random() < 0.6:
                ineqs.append((tuple(e), F(rnd.randint(1, 6), rnd.randint(1, 3)), ("hi",)))
        for _ in range(rnd.randint(0, 2)):
            coeffs = tuple(rnd.choice(vals) for _ in range(d))
            if all(c == 0 for c in coeffs):
                continue
            ineqs.append((coeffs, F(rnd.randint(-6, 8), rnd.randint(1, 3)), ("cut",)))
        if rnd.random() < 0.4:
            coeffs = tuple(rnd.choice(vals) for _ in range(d))
            if any(c != 0 for c in coeffs):
                eqs.append((coeffs, F(rnd.randint(-3, 6), rnd.randint(1, 3)), ("eq",)))
        h = make_hrep(coords, eqs, ineqs)
        eqs_lp = [(c.coeffs, c.rhs) for c in h.equations]
        ineqs_lp = [(c.coeffs, c.rhs) for c in h.inequalities]
        try:
            v = vertices(h)
        except EmptyPolyhedron:
            v = None
        if v is None:
            infeasible += 1
        else:
            feasible += 1
        for _ in range(5):
            obj = [rnd.choice(vals) for _ in range(d)]
            status, value, x = lp_solve(d, obj, eqs_lp, ineqs_lp, maximize=True)
            if v is None:
                assert status is LPStatus.INFEASIBLE
                continue
            ray_positive = any(linalg.dot(obj, r) > 0 for r in v.rays)
            if status is LPStatus.UNBOUNDED:
                assert ray_positive
                continue
            assert status is LPStatus.OPTIMAL and not ray_positive
            assert value == max(linalg.dot(obj, p) for p in v.vertices)
            assert linalg.dot(obj, x) == value
            assert all(linalg.dot(c, x) == b for c, b in eqs_lp)
            assert all(linalg.dot(c, x) <= b for c, b in ineqs_lp)


def _lp_recession_direction(h):
    """A nonzero recession direction by exact LP: maximize and minimize each
    coordinate over the recession cone cut by the unit box."""
    from mpp.lp import LPStatus, lp_solve

    d = h.dim_ambient
    eqs = [(c.coeffs, F(0)) for c in h.equations]
    ineqs = [(c.coeffs, F(0)) for c in h.inequalities]
    box = []
    for i in range(d):
        e = tuple(F(1) if j == i else F(0) for j in range(d))
        box += [(e, F(1)), (tuple(-x for x in e), F(1))]
    for i in range(d):
        for sign in (1, -1):
            obj = [F(sign) if j == i else F(0) for j in range(d)]
            status, value, x = lp_solve(d, obj, eqs, ineqs + box, maximize=True)
            if status is LPStatus.OPTIMAL and value > 0:
                return x
    return None


def test_recession_direction_against_lp_oracle():
    """The brute-force recession test (a line when the rows have rank below d,
    else an extreme ray of the pointed cone) finds a direction exactly when
    the LP does, on random rows with lines, equations and equations of full
    rank; a direction it returns is one."""
    from mpp.geometry import _recession_direction

    rnd = random.Random(17)
    vals = [F(-2), F(-1), F(-1, 2), F(0), F(0), F(1, 3), F(1), F(2)]
    found = none = full_rank = lines = 0
    for _ in range(300):
        d = rnd.randint(1, 4)

        def row():
            return tuple(rnd.choice(vals) for _ in range(d))

        eqs = [(row(), F(rnd.randint(-2, 2)), ("eq",))
               for _ in range(rnd.choice([0, 0, 0, 1, 2, d]))]
        ineqs = [(row(), F(rnd.randint(-2, 4)), ("le",))
                 for _ in range(rnd.randint(0, 2 * d + 2))]
        try:
            h = make_hrep(tuple(f"x{i}" for i in range(d)), eqs, ineqs)
        except EmptyPolyhedron:  # a violated constant row
            continue
        full_rank += linalg.rank([c.coeffs for c in h.equations]) == d
        lines += linalg.rank([c.coeffs for c in h.equations + h.inequalities]) < d
        y = _recession_direction(h)
        assert (y is None) == (_lp_recession_direction(h) is None)
        if y is None:
            none += 1
            continue
        found += 1
        assert any(y)
        assert all(linalg.dot(c.coeffs, y) == 0 for c in h.equations)
        assert all(linalg.dot(c.coeffs, y) <= 0 for c in h.inequalities)
    assert min(found, none, full_rank, lines) >= 20, (found, none, full_rank, lines)


# -- face lattices ---------------------------------------------------------------

def test_point_f_vector():
    h = make_hrep(("x",), [((F(1),), F(3), ())], [((F(1),), F(5), ())])
    v = vertices(h)
    lat = face_lattice(h, v)
    assert lat.f_vector() == (1,) == face_counts(h, v)
    assert lat.dim == 0


def test_square_lattice_structure():
    h = box(("x", "y"), [(0, 1), (0, 1)])
    lat = face_lattice(h, vertices(h))
    assert lat.f_vector() == (4, 4)
    assert lat.all_face_counts() == (4, 4, 1)
    dims = sorted(f.dim for f in lat.faces)
    assert dims == [-1, 0, 0, 0, 0, 1, 1, 1, 1, 2]


def test_incidences_cover_rays():
    # the quadrant x, y >= 0 plus x <= 2: vertices (0,0), (2,0), ray (0,1)
    h = make_hrep(("x", "y"), [], [((F(-1), F(0)), F(0), ("x",)),
                                   ((F(0), F(-1)), F(0), ("y",)),
                                   ((F(1), F(0)), F(2), ("cap",))])
    v = vertices(h)
    assert v.vertices == ((F(0), F(0)), (F(2), F(0))) and v.rays == ((F(0), F(1)),)
    assert incidences(h, v) == [0b101, 0b011, 0b110]


def test_maximal_masks():
    assert maximal_masks([0b0011, 0b0001, 0b0110, 0b0011, 0]) == [0b0011, 0b0110]
    assert maximal_masks([0]) == [0] and maximal_masks([]) == []
    # less the masks inside one of inside, whether or not they were maximal
    assert maximal_masks([0b0011, 0b0001, 0b0110, 0b1000], [0b0111]) == [0b1000]
    assert maximal_masks([0b0011, 0b0110], [0b0010]) == [0b0011, 0b0110]


# -- the zero-set read against dot products ----------------------------------

def incidences(h, v):
    """Each inequality's mask of tight generators, as facet_masks reads it
    off the zero sets."""
    return facet_masks(h, v)[0]


def dot_incidences(h, v):
    """Oracle of incidences: each inequality's mask of the generators of v
    on which it is tight, one integer dot product per pair (bit i for
    v.rows[i], then bit len(v.rows) + j for v.rays[j])."""
    homs = v.rows + tuple((0,) + r for r in v.rays)
    return [sum(1 << i for i, p in enumerate(homs) if idot(r, p) == 0)
            for r in h.int_inequalities]


WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workload_posets(tmp_path_factory):
    """The posets of each benchmark workload at seed 1, by workload."""
    spec = importlib.util.spec_from_file_location("mpp_bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = {}
    for name in workloads.WORKLOADS:
        path = tmp_path_factory.mktemp(name)
        keys = workloads.generate(name, 1, str(path))["posets"]
        out[name] = {key: jsonio.poset_from_json(json.loads((path / f"{key}.json").read_text()))
                     for key in keys}
    return out


def _zero_sets_agree(h):
    v = vertices(h)
    assert incidences(h, v) == dot_incidences(h, v)
    assert geometry._dimension(h, v) == linalg.affine_rank(v.vertices)


def test_zero_sets_match_dot_products_on_the_workload_posets(workload_posets):
    for posets in workload_posets.values():
        for poset in posets.values():
            for t in (zero_parameter(poset), generic_parameter(poset)):
                for projected in (True, False):  # the full space pins marks by equations
                    _zero_sets_agree(hrep_general(poset, t, projected=projected))


@pytest.mark.parametrize("poset", [make_ex52(), make_double_star(), make_grid(2, 3)],
                         ids=["ex52", "dstar", "grid2x3"])
def test_zero_sets_match_dot_products_at_every_corner(poset):
    for t in hypercube_vertices(poset):
        _zero_sets_agree(hrep_general(poset, t, projected=True))


def test_zero_sets_cover_recession_rays():
    # the quadrant x, y >= 0 plus x <= 2: its ray (0, 1) takes bit 2
    h = make_hrep(("x", "y"), [], [((F(-1), F(0)), F(0), ("x",)),
                                   ((F(0), F(-1)), F(0), ("y",)),
                                   ((F(1), F(0)), F(2), ("cap",))])
    v = vertices(h)
    assert incidences(h, v) == dot_incidences(h, v) == [0b101, 0b011, 0b110]
    assert geometry._dimension(h, v) == 2


def test_dimension_reads_implicit_equalities():
    # x <= 0 and -x <= 0 make x = 0 without an equation: a segment, and with
    # y pinned the same way, a point
    segment = make_hrep(("x", "y"), [], [((F(1), F(0)), F(0), ()), ((F(-1), F(0)), F(0), ()),
                                         ((F(0), F(1)), F(1), ()), ((F(0), F(-1)), F(0), ())])
    point = segment.with_rows((), [((0, 0, 1), 1, ())])
    for h, dim in ((segment, 1), (point, 0)):
        v = vertices(h)
        assert geometry._dimension(h, v) == linalg.affine_rank(v.vertices) == dim
        assert incidences(h, v) == dot_incidences(h, v)
    # and with an equation besides: x + y = 1 cuts the segment to a point
    h = segment.with_rows([((-1, 1, 1), 1, ())])
    assert geometry._dimension(h, vertices(h)) == 0


def test_zero_sets_of_covector_cells():
    # cells are cut cones: their zero sets also carry the sector rows, one of
    # which may repeat a base row, so the base H-rep reads the cell's facets
    rnds = [random.Random(seed) for seed in range(30)]
    posets = [make_ex52(), make_double_star(), make_grid(2, 3)]
    posets += [random_marked_poset(rnd, rnd.randint(4, 8), mark_extra=0.3) for rnd in rnds]
    repeats = lower = 0
    for poset in posets:
        base, root = tropical._base_data(poset)
        arr = tropical.arrangement(poset)
        for cone in tropical._covector_cells(poset, arr, base, root):
            sector = cone.rows[len(root.rows):]
            h, v = base.with_rows((), [(row, 1, ()) for row in sector]), cone.vrep()
            assert incidences(h, v) == dot_incidences(h, v)
            assert incidences(base, v) == dot_incidences(base, v)
            full = (1 << len(v.rows)) - 1
            assert facet_masks(base, v)[1] == set(maximal_masks(
                {m for m in dot_incidences(h, v) if m and m != full}))
            dim = geometry._dimension(base, v)
            assert dim == geometry._dimension(h, v) == linalg.affine_rank(v.vertices)
            repeats += any(row in base.int_inequalities for row in sector)
            lower += dim < base.dim_ambient
    assert repeats and lower  # not vacuous


def test_incidences_need_every_row_inserted():
    h = box(("x", "y"), [(0, 1), (0, 1)])
    v = vertices(h)
    with pytest.raises(AssertionError, match="never inserted"):
        incidences(h.with_rows((), [((-1, 1, 1), 1, ())]), v)
    # a V-rep that double description did not build is matched to vertices(h)
    other = vertices_bruteforce(h)
    assert incidences(h, other) == dot_incidences(h, other)
    with pytest.raises(geometry.GeometryError, match="not that of the H-rep"):
        incidences(h, geometry.VRep(h.coords, v.rows[:3], ()))


# -- the face iterator against the level walk and every facet intersection ---

def level_faces(v, facets, dim: int) -> list[tuple[int, int]]:
    """Oracle of iter_faces: (k, vertex mask) of each nonempty face, by the
    level walk (Kaibel & Pfetsch 2002), from the polytope's dimension dim
    down to the edges, then the vertices.  Every ridge is the meet of two
    facets, so the facets of a face F are the maximal F & G, F left out,
    over the facets G of a face that F is a facet of."""
    n = len(v.rows)
    level = {(1 << n) - 1: facets}  # face -> facets of a parent
    found = []
    for k in range(dim, -1, -1):
        if k == 0:
            level = [1 << i for i in range(n)]
        found += [(k, f) for f in level]
        if k > 1:
            below = {}
            for f, parent_facets in level.items():
                meets = {f & g for g in parent_facets}
                meets.discard(f)
                own = maximal_masks(meets)
                for g in own:
                    below[g] = own
            level = below
    return found


def intersection_faces(h, v) -> dict[int, int]:
    """Oracle of the face iterator: each nonempty face as vertex mask -> dim.
    The faces are the polytope and every nonempty intersection of facet
    vertex masks, the facets being the maximal proper tight sets of the
    dot-product incidences; dims are affine ranks of the vertices."""
    n = len(v.rows)
    full = (1 << n) - 1
    tight = {m for m in dot_incidences(h, v) if m and m != full}
    facets = [m for m in tight if not any(m != o and m & o == m for o in tight)]
    found, new = {full}, set(facets)
    while new:
        found |= new
        new = {a & f for a in new for f in facets} - found - {0}
    return {mask: linalg.affine_rank([v.vertices[i] for i in range(n) if mask >> i & 1])
            for mask in found}


def _walk_agrees(h):
    """Asserts that iter_faces yields each (dim, mask) of h once, the faces
    of level_faces, and that face_counts and face_lattice of h give the
    faces of intersection_faces; returns the polytope's dimension."""
    v = vertices(h)
    faces = intersection_faces(h, v)
    dim = max(faces.values())
    facets = facet_masks(h, v)[1]
    walked = [(k, f) for k, batch in iter_faces(v, facets, dim) for f in batch]
    assert len(set(walked)) == len(walked) == len(faces)
    assert set(walked) == set(level_faces(v, facets, dim))
    assert dict((f, k) for k, f in walked) == faces
    counts = [0] * (dim + 1)
    for k in faces.values():
        counts[k] += 1
    assert face_counts(h, v) == ((1,) if dim == 0 else tuple(counts[:-1]))
    lat = face_lattice(h, v)
    assert {sum(1 << i for i in f.vertex_ids): f.dim for f in lat.faces if f.dim >= 0} == faces
    return dim


def test_walk_matches_facet_intersections_on_random_polytopes():
    rnd = random.Random(23)
    cases = [
        # points and a segment, where the walk starts at the vertex level
        make_hrep(("x",), [((F(1),), F(3), ())], [((F(1),), F(5), ())]),
        make_hrep(("x", "y"), [((F(1), F(0)), F(1, 2), ()), ((F(0), F(2)), F(1), ())], []),
        make_hrep(("x", "y"), [((F(1), F(1)), F(1, 3), ())],
                  [((F(-1), F(0)), F(0), ()), ((F(2), F(0)), F(1), ())]),
    ]
    cases += [random_face_hrep(rnd, rnd.randint(1, 4)) for _ in range(40)]
    dims = set()
    for h in cases:
        try:
            dims.add(_walk_agrees(h))
        except EmptyPolyhedron:
            continue
    assert dims >= {0, 1, 2, 3, 4}


def test_walk_matches_facet_intersections_on_the_faces_workload(workload_posets):
    # t=0 and generic t on each poset, and every hypercube corner of those
    # with at most 5 unmarked elements: ex52, dstar, grid2x2 and grid2x3
    dims = set()
    for key, poset in workload_posets["faces"].items():
        params = [zero_parameter(poset), generic_parameter(poset)]
        if len(poset.unmarked) <= 5:
            params += list(hypercube_vertices(poset))
        for t in params:
            dims.add(_walk_agrees(hrep_general(poset, t, projected=True)))
    assert len(dims) >= 4


def test_face_lattice_rejects_unbounded():
    h = make_hrep(("x",), [], [((F(-1),), F(0), ())])
    for build in (face_lattice, face_counts):
        with pytest.raises(UnsupportedUnbounded, match="polytopes only"):
            build(h, vertices(h))


def test_euler_relation_random():
    # alternating sum of proper face counts equals 1 - (-1)^dim
    rnd = random.Random(11)
    count = 0
    while count < 12:
        h = random_bounded_hrep(rnd, rnd.randint(2, 4))
        try:
            v = vertices(h)
        except EmptyPolyhedron:
            continue
        lat = face_lattice(h, v)
        if lat.dim < 1:
            continue
        count += 1
        fv = lat.f_vector()
        euler = sum((-1) ** i * c for i, c in enumerate(fv))
        assert euler == 1 - (-1) ** lat.dim
        assert face_counts(h, v) == fv


def test_meet_of_faces_is_face():
    h = box(("x", "y"), [(0, 1), (0, 1)])
    lat = face_lattice(h, vertices(h))
    ids = [f.vertex_ids for f in lat.faces]
    for a, b in itertools.combinations(ids, 2):
        assert a & b in faces_by_vertex_ids(lat)


def test_minimal_face_containing():
    from mpp.geometry import GeometryError
    h = box(("x", "y"), [(0, 1), (0, 1)])
    lat = face_lattice(h, vertices(h))
    mid_edge = lat.minimal_face_containing(h, (F(1, 2), F(0)))
    assert mid_edge.dim == 1
    corner = lat.minimal_face_containing(h, (F(0), F(0)))
    assert corner.dim == 0
    inner = lat.minimal_face_containing(h, (F(1, 3), F(1, 2)))
    assert inner.dim == 2
    with pytest.raises(GeometryError):
        lat.minimal_face_containing(h, (F(2), F(0)))


def closure_faces(h, v):
    """Oracle: close the inequality tight sets under intersection, one affine
    rank per face."""
    n = len(v.vertices)
    tight_sets = [frozenset(i for i in range(n) if c.evaluate(v.vertices[i]) == c.rhs)
                  for c in h.inequalities]
    found = {frozenset(range(n))}
    frontier = list(found)
    while frontier:
        cur = frontier.pop()
        for t in tight_sets:
            if cur & t not in found:
                found.add(cur & t)
                frontier.append(cur & t)
    found.add(frozenset())
    faces = []
    for ids in found:
        dim = linalg.affine_rank([v.vertices[i] for i in sorted(ids)])
        tight = (frozenset(j for j, t in enumerate(tight_sets) if ids <= t) if ids
                 else frozenset(range(len(h.inequalities))))
        faces.append(Face(ids, tight, dim))
    faces.sort(key=lambda f: (f.dim, sorted(f.vertex_ids)))
    return tuple(faces)


def random_face_hrep(rnd, d):
    """A bounded polytope with rational rows, sometimes an equation through an
    interior point, rows repeated at another scale and implied rows."""
    coords = tuple(f"x{i}" for i in range(d))
    k = rnd.randint(1, 3)
    ineqs = [(c.coeffs, c.rhs, c.origin) for c in box(coords, [(-k, k)] * d).inequalities]
    for _ in range(rnd.randint(0, 4)):
        coeffs = tuple(F(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in range(d))
        if any(coeffs):
            ineqs.append((coeffs, F(rnd.randint(0, 3 * k), rnd.randint(1, 2)), ("cut",)))
    for coeffs, rhs, _ in rnd.sample(ineqs, 2):
        s = F(rnd.randint(1, 5), rnd.randint(1, 5))
        ineqs.append((tuple(s * x for x in coeffs), s * rhs, ("scaled",)))
        ineqs.append((coeffs, rhs + 1, ("implied",)))
    eqs = []
    if d > 1 and rnd.random() < 0.4:
        inner = tuple(F(rnd.randint(-2, 2), 3) for _ in range(d))
        coeffs = tuple(F(rnd.randint(-2, 2), rnd.randint(1, 2)) for _ in range(d))
        if any(coeffs):
            eqs.append((coeffs, linalg.dot(coeffs, inner), ("eq",)))
    rnd.shuffle(ineqs)
    return make_hrep(coords, eqs, ineqs)


def test_face_lattice_matches_closure_oracle():
    rnd = random.Random(17)
    cases = [
        # a single point, with and without inequalities
        make_hrep(("x",), [((F(1),), F(3), ())], [((F(1),), F(5), ())]),
        make_hrep(("x", "y"), [((F(1), F(0)), F(1, 2), ()), ((F(0), F(2)), F(1), ())], []),
        # a segment in the plane with rational endpoints
        make_hrep(("x", "y"), [((F(1), F(1)), F(1, 3), ())],
                  [((F(-1), F(0)), F(0), ()), ((F(2), F(0)), F(1), ())]),
    ]
    cases += [random_face_hrep(rnd, rnd.randint(1, 4)) for _ in range(40)]
    seen_dims = set()
    for h in cases:
        try:
            v = vertices(h)
        except EmptyPolyhedron:
            continue
        lat = face_lattice(h, v)
        assert lat.faces == closure_faces(h, v)
        seen_dims.add(lat.dim)
    assert seen_dims >= {0, 1, 2, 3}


def test_face_counts_match_face_lattice():
    # the same cases as the closure oracle: two points, a segment and 40
    # random polytopes with scaled, implied and equation rows
    rnd = random.Random(17)
    cases = [
        make_hrep(("x",), [((F(1),), F(3), ())], [((F(1),), F(5), ())]),
        make_hrep(("x", "y"), [((F(1), F(0)), F(1, 2), ()), ((F(0), F(2)), F(1), ())], []),
        make_hrep(("x", "y"), [((F(1), F(1)), F(1, 3), ())],
                  [((F(-1), F(0)), F(0), ()), ((F(2), F(0)), F(1), ())]),
    ]
    cases += [random_face_hrep(rnd, rnd.randint(1, 4)) for _ in range(40)]
    seen = set()
    for h in cases:
        try:
            v = vertices(h)
        except EmptyPolyhedron:
            continue
        lat = face_lattice(h, v)
        fv = face_counts(h, v)
        assert fv == lat.f_vector()
        assert face_counts(h, v, facet_masks(h, v)[1]) == fv
        if lat.dim > 0:  # Euler's relation on the counts
            assert sum((-1) ** i * c for i, c in enumerate(fv)) == 1 - (-1) ** lat.dim
        seen.add(lat.dim)
    assert seen >= {0, 1, 2, 3, 4}


def test_face_budget_counts_faces_enumerated(monkeypatch):
    # the cube: the empty face, the cube, 6 facets and 12 edges are 20 faces
    # through dimension 1, the last batch of edges the walk finds below the
    # facets (4 + 3 + 2 + 2 + 1); both paths enumerate them and raise alike
    h = box(("x", "y", "z"), [(0, 1)] * 3)
    v = vertices(h)
    monkeypatch.setattr(geometry, "FACE_GATE", 28)
    assert face_counts(h, v) == (8, 12, 6)
    monkeypatch.setattr(geometry, "FACE_GATE", 19)
    for build in (face_lattice, face_counts):
        with pytest.raises(TooLarge) as err:
            build(h, v)
        assert str(err.value) == ("face lattice holds more than 19 faces "
                                  "(20 enumerated, the last batch at dimension 1)")


def test_face_counts_hold_memory_linear_in_the_facets():
    # grid3x4 at generic t has 25,234 faces; the walk holds one batch per
    # depth and the faces walked above it, not two whole levels as the level
    # walk did (a peak of about 3 MiB)
    import tracemalloc
    poset = make_grid(3, 4)
    h = hrep_general(poset, generic_parameter(poset), projected=True)
    v = vertices(h)
    tracemalloc.start()
    try:
        fv = face_counts(h, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fv == (33, 333, 1569, 4119, 6560, 6564, 4122, 1567, 332, 33)
    assert peak < 256 * 1024, peak


def test_barycenter_lies_in_its_own_face():
    from mpp.geometry import GeometryError
    rnd = random.Random(5)
    cases = [random_face_hrep(rnd, rnd.randint(1, 3)) for _ in range(25)]
    cases.append(hrep_general(make_ex52(), Parameter(
        {"p": F(1, 3), "q": F(1, 2), "r": F(3, 4)}), projected=True))
    for h in cases:
        try:
            v = vertices(h)
        except EmptyPolyhedron:
            continue
        lat = face_lattice(h, v)
        for f in lat.faces:
            if f.dim >= 0:
                pts = [v.vertices[i] for i in sorted(f.vertex_ids)]
                assert lat.minimal_face_containing(h, barycenter(pts)) == f
        far = (v.vertices[0][0] + 100,) + v.vertices[0][1:]
        with pytest.raises(GeometryError):
            lat.minimal_face_containing(h, far)
        if h.equations:  # inside every inequality, off the equation
            c = h.equations[0]
            off = next(p for p in itertools.product((F(0), F(1, 7)), repeat=h.dim_ambient)
                       if c.evaluate(p) != c.rhs)
            if all(g.evaluate(off) <= g.rhs for g in h.inequalities):
                with pytest.raises(GeometryError):
                    lat.minimal_face_containing(h, off)


@pytest.mark.parametrize("name", ["ex52", "dstar", "grid2x3"])
def test_euler_relation_on_family_members(name):
    poset = {"ex52": make_ex52, "dstar": make_double_star,
             "grid2x3": lambda: grid_poset(2, 3)}[name]()
    unmarked = sorted(poset.unmarked)
    interior = Parameter({e: F(i % 3 + 1, 4) for i, e in enumerate(unmarked)})
    corners = list(hypercube_vertices(poset))
    for t in [corners[0], corners[-1], corners[len(corners) // 2], interior]:
        h = hrep_general(poset, t, projected=True)
        v = vertices(h)
        lat = face_lattice(h, v)
        euler = sum((-1) ** i * c for i, c in enumerate(lat.f_vector()))
        assert euler == 1 - (-1) ** lat.dim
        assert lat.dim == len(unmarked)
        assert face_counts(h, v) == lat.f_vector()


def test_grid3x4_order_polytope_f_vector_pinned():
    # recorded from the closure algorithm (one affine rank per face)
    poset = grid_poset(3, 4)
    h = hrep_general(poset, zero_parameter(poset), projected=True)
    v = vertices(h)
    pinned = (33, 262, 957, 2001, 2640, 2298, 1337, 513, 124, 17)
    assert face_lattice(h, v).f_vector() == pinned
    assert face_counts(h, v) == pinned


def test_hreps_with_equal_constraints_are_equal_whichever_writer_built_them():
    # each scaled row is stored reduced (row and S share no factor), so the
    # record's own equality and hash compare the rational constraints and
    # their origins, and the two writers agree wherever those are equal
    poset = make_ex52_rational()
    t = Parameter({"p": F(2, 7), "q": F(3, 5), "r": F(4, 7)})
    for h in (hrep_general(poset, t), hrep_general(poset, t, projected=False),
              hrep_general(poset, generic_parameter(poset))):
        assert all(math.gcd(*row, s) == 1
                   for row, s, _ in h.scaled_equations + h.scaled_inequalities)
        g = make_hrep(h.coords, triples(h.equations), triples(h.inequalities))
        assert g == h and hash(g) == hash(h)
    # another origin or another value is another H-rep
    h = hrep_general(poset, t)
    (row, s, origin), *rest = h.scaled_inequalities
    for changed in [(row, s, ("other",)), (row, s + 1, origin)]:
        assert HRep(h.coords).with_rows(h.scaled_equations, [changed] + rest) != h


def test_size_gates():
    from mpp.geometry import TooLarge
    from mpp.lattice import lattice_points
    big = box(tuple(f"x{i}" for i in range(9)), [(0, 1)] * 9)
    with pytest.raises(TooLarge):
        vertices_bruteforce(big)
    wide = box(("x", "y", "z"), [(0, 500), (0, 500), (0, 500)])
    with pytest.raises(TooLarge):
        lattice_points(wide)


@pytest.mark.parametrize("m,n", [(3, 4), (3, 5), (4, 4)])
def test_dd_cone_stays_near_the_answer_at_generic_t(m, n, monkeypatch):
    # the insertion order keeps every intermediate cone within twice the
    # vertex count (in lexicographic row order grid4x4 peaks at 518 rays
    # for 68 vertices)
    sizes = []
    step = geometry._dd_process_inequality

    def counted(*args):
        lines, rays = step(*args)
        sizes.append(len(rays))
        return lines, rays

    monkeypatch.setattr(geometry, "_dd_process_inequality", counted)
    poset = make_grid(m, n)
    v = vertices(hrep_general(poset, generic_parameter(poset)))
    assert sizes[-1] == len(v.rows) and v.rays == ()
    assert max(sizes) <= 2 * len(v.rows)


def test_with_rows_refuses_a_row_of_the_wrong_arity():
    with pytest.raises(geometry.GeometryError, match="arity"):
        HRep(("x",)).with_rows((), [((0, 1, 2), 1, ("wide",))])


def test_bruteforce_vertices_in_dimension_zero():
    # R^0 is one point, the empty tuple
    v = vertices_bruteforce(HRep(()))
    assert v.rows == ((1,),) and v.vertices == ((),) and v.rays == ()
    assert v == vertices(HRep(()))


# -- the brute-force oracle against its Fraction form -----------------------------

def _outcome(run, h):
    """The vertex rows run(h) returns, or the type of the GeometryError it raises."""
    try:
        return run(h).rows
    except geometry.GeometryError as exc:
        return type(exc)


def random_oracle_hrep(rnd):
    """An H-rep in 0 to 3 coordinates: half of them random_hrep's bounded
    ones, the rest random rational rows, with or without equations (some
    inconsistent: one equation again with another right-hand side) and with
    inequalities too few or too weak to bound it, so that lines and rays
    occur beside polytopes and empty polyhedra.  None when a constant row
    fails."""
    d = rnd.randint(0, 3)
    if d and rnd.random() < 0.5:
        return random_hrep(rnd, d)
    vals = [F(-2), F(-1), F(-1, 2), F(0), F(0), F(1, 3), F(1), F(2)]

    def row():
        return tuple(rnd.choice(vals) for _ in range(d))

    eqs = [(row(), F(rnd.randint(-2, 2), rnd.randint(1, 2)), ("eq",))
           for _ in range(rnd.choice([0, 0, 1, 2]))]
    if eqs and rnd.random() < 0.3:
        eqs.append((eqs[0][0], eqs[0][1] + 1, ("eq",)))
    ineqs = [(row(), F(rnd.randint(-2, 4), rnd.randint(1, 3)), ("le",))
             for _ in range(rnd.randint(0, 2 * d + 3))]
    try:
        return make_hrep(tuple(f"x{i}" for i in range(d)), eqs, ineqs)
    except EmptyPolyhedron:
        return None


def test_bruteforce_matches_the_fraction_oracle():
    # the integer-kernel oracle returns the rows of its Fraction form, or
    # raises the same error, and finds a recession direction exactly when
    # the Fraction form does: the same one when the cone is pointed, a line
    # when the rows leave one
    from mpp.geometry import _recession_direction

    rnd = random.Random(53)
    seen = {}
    for _ in range(300):
        h = random_oracle_hrep(rnd)
        if h is None:
            continue
        got = _outcome(vertices_bruteforce, h)
        assert got == _outcome(fraction_vertices_bruteforce, h)
        y, ref = _recession_direction(h), fraction_recession_direction(h)
        assert (y is None) == (ref is None)
        d = h.dim_ambient
        line = linalg.rank([r[1:] for r in h.int_equations + h.int_inequalities]) < d
        if y is not None:
            assert any(y) and all(type(x) is int for x in y)
            assert all(linalg.dot(c.coeffs, y) == 0 for c in h.equations)
            tight = [linalg.dot(c.coeffs, y) for c in h.inequalities]
            assert all(x == 0 for x in tight) if line else all(x <= 0 for x in tight)
            if not line:
                assert y == primitive(ref)
        inconsistent = len(h.equations) >= 2 and h.equations[0].coeffs == h.equations[-1].coeffs
        kind = ("d0" if d == 0 else "inconsistent" if inconsistent else "line" if line
                else "ray" if y is not None else "equation" if h.equations else "polytope")
        seen.setdefault(kind, set()).add(got if isinstance(got, type) else tuple)
    # not vacuous: every kind of H-rep occurs, with vertices where it has any
    assert seen == {"d0": {tuple}, "inconsistent": {EmptyPolyhedron, Unbounded},
                    "line": {Unbounded}, "ray": {Unbounded},
                    "equation": {tuple, EmptyPolyhedron}, "polytope": {tuple, EmptyPolyhedron}}


def test_dd_equals_bruteforce_on_the_family():
    # the oracle aimed at double description: the same rows in the same
    # order at t = 0, t = 1, generic t and two seeded interior t
    rnd = random.Random(61)
    posets = [make_ex52(), make_double_star(), make_grid(2, 3), make_grid(2, 4)]
    posets += [random_marked_poset(rnd, 8, max_unmarked=5) for _ in range(2)]
    for poset in posets:
        params = [zero_parameter(poset), one_parameter(poset), generic_parameter(poset),
                  random_parameter(rnd, poset, interior=True),
                  random_parameter(rnd, poset, interior=True)]
        for t in params:
            h = hrep_general(poset, t, projected=True)
            v = vertices(h)
            assert v.rays == () and v == vertices_bruteforce(h)


# -- reference DD step and constraint reduction ------------------------------
# The DD step and _nonconstant as they were before their inner loops were
# tightened (generator expressions, a dot-product helper per ray, three-field
# plus/minus entries): the kernel must build the same lines, the same rays
# and zero sets in the same order, and count the same adjacency steps.

def reference_primitive(v):
    g = math.gcd(*v)
    return v if g <= 1 else tuple(x // g for x in v)


def reference_eliminate(row, lines):
    vals = [idot(row, l) for l in lines]
    j0 = next((j for j, v in enumerate(vals) if v != 0), None)
    if j0 is None:
        return None, 0, lines
    l0, v0 = lines[j0], vals[j0]
    others = [l if v == 0 else reference_primitive(tuple(v0 * x - v * y for x, y in zip(l, l0)))
              for j, (l, v) in enumerate(zip(lines, vals)) if j != j0]
    return l0, v0, others


def reference_dd_process_inequality(idx, row, lines, rays, span_dim, work):
    bit = 1 << idx
    l0, v0, lines = reference_eliminate(row, lines)
    if l0 is not None:
        sgn, a0 = (1, v0) if v0 > 0 else (-1, -v0)
        new_rays = []
        for r, z in rays:
            s = idot(row, r)
            if s != 0:
                r = reference_primitive(tuple(a0 * x - sgn * s * y for x, y in zip(r, l0)))
            new_rays.append((r, z | bit))
        new_rays.append((tuple(-sgn * x for x in l0), bit - 1))
        return lines, new_rays
    plus, minus, new_rays = [], [], []
    for r, z in rays:
        s = idot(row, r)
        if s > 0:
            plus.append((r, z, s))
        elif s < 0:
            minus.append((r, z, s))
            new_rays.append((r, z))
        else:
            new_rays.append((r, z | bit))
    if plus and minus:
        work[0] += len(plus) * len(minus) * len(rays)
        if work[0] > geometry.DD_BUDGET:
            raise TooLarge(f"double description reached {work[0]} steps of adjacency "
                           f"testing, past its budget of {geometry.DD_BUDGET}")
        zs = [z for _, z in rays]
        need = span_dim - len(lines) - 2
        for rp, zp, sp in plus:
            for rm, zm, sm in minus:
                zc = zp & zm
                if zc.bit_count() >= need and geometry._adjacent(zc, zs):
                    w = reference_primitive(tuple(sp * xm - sm * xp for xp, xm in zip(rp, rm)))
                    new_rays.append((w, zc | bit))
    return lines, new_rays


def reference_nonconstant(rows, n, kind, violated):
    kept, prims = [], []
    for row, scale, origin in rows:
        if len(row) != n:
            raise geometry.GeometryError("constraint arity does not match ambient coordinates")
        if any(row[1:]):
            g = math.gcd(*row)
            prim = row if g == 1 else tuple(x // g for x in row)
            s = math.gcd(g, scale)
            if s == g:
                row = prim
            elif s > 1:
                row = tuple(x // s for x in row)
            kept.append((row, scale // s, origin))
            prims.append(prim)
        elif violated(row[0]):
            raise EmptyPolyhedron(f"constant {kind} violated (origin {origin})")
    return tuple(kept), tuple(prims)


def dd_steps(monkeypatch, step, run):
    """(idx, lines, rays, work[0]) after every DD step that run() takes with
    step in place of the kernel's, then what run() returned."""
    steps = []

    def recorded(idx, row, lines, rays, span_dim, work):
        lines, rays = step(idx, row, lines, rays, span_dim, work)
        steps.append((idx, lines, rays, work[0]))
        return lines, rays

    monkeypatch.setattr(geometry, "_dd_process_inequality", recorded)
    out = run()
    monkeypatch.undo()
    return steps, out


def assert_same_dd(monkeypatch, run):
    """run() takes the same DD steps with the kernel's step and the reference."""
    expected, _ = dd_steps(monkeypatch, reference_dd_process_inequality, run)
    got, _ = dd_steps(monkeypatch, geometry._dd_process_inequality, run)
    assert got == expected and expected


def golden_posets():
    from test_golden import POSETS
    return POSETS


def dd_parameters(poset, seed):
    """t = 0, t = 1, generic t and three seeded corners."""
    rnd = random.Random(seed)
    names = sorted(poset.unmarked)
    corners = [Parameter({p: Fraction(rnd.randint(0, 1)) for p in names}) for _ in range(3)]
    return [zero_parameter(poset), Parameter({p: Fraction(1) for p in names}),
            generic_parameter(poset)] + corners


@pytest.mark.parametrize("key", sorted(golden_posets()))
def test_dd_kernel_matches_the_reference_step_on_golden_posets(key, monkeypatch):
    poset = golden_posets()[key]()
    for t in dd_parameters(poset, key):
        for projected in (True, False):
            h = hrep_general(poset, t, projected=projected)
            assert_same_dd(monkeypatch, lambda: geometry.homogenization_cone(h))


def random_unbounded_hrep(rnd: random.Random) -> HRep:
    """Integer rows over (x0, .., x(n-1), w) through a point p: w is in no
    row (a line), x1 has a coefficient <= 0 in every inequality and none in
    the equation (a recession ray), and one random equation holds at p."""
    n = rnd.randint(2, 4)
    p = [rnd.randint(-3, 3) for _ in range(n)]

    def row(a, slack):
        return (slack - sum(x * y for x, y in zip(a, p)),) + tuple(a) + (0,)

    eq = [rnd.randint(-2, 2) for _ in range(n)]
    eq[1] = 0
    ineqs = []
    for _ in range(rnd.randint(n, n + 5)):
        a = [rnd.randint(-3, 3) for _ in range(n)]
        a[1] = -abs(a[1])
        ineqs.append((row(a, -rnd.randint(0, 3)), 1, ("random",)))
    coords = tuple(f"x{i}" for i in range(n)) + ("w",)
    return HRep(coords).with_rows([(row(eq, 0), 1, ("random",))] if any(eq) else [], ineqs)


def test_dd_kernel_matches_the_reference_step_on_random_hreps(monkeypatch):
    rnd = random.Random(39)
    unbounded = 0
    for _ in range(50):
        h = random_unbounded_hrep(rnd)
        cone = geometry.homogenization_cone(h)
        unbounded += bool(cone.lines) and any(r[0] == 0 for r, _ in cone.rays)
        assert_same_dd(monkeypatch, lambda: geometry.homogenization_cone(h))
    assert unbounded >= 25  # most keep both the line and the recession ray


@pytest.mark.parametrize("make", [make_ex52, make_double_star, lambda: make_grid(2, 3)],
                         ids=["ex52", "dstar", "grid2x3"])
def test_dd_kernel_matches_the_reference_step_on_covector_cells(make, monkeypatch):
    def run():
        poset = make()  # a fresh poset, so that the base cone is built again
        return list(tropical._covector_cells(poset, tropical.arrangement(poset),
                                             *tropical._base_data(poset)))

    assert_same_dd(monkeypatch, run)


def test_nonconstant_matches_the_reference_on_golden_rows(monkeypatch):
    from test_golden import INPUTS
    calls = []
    step = geometry._nonconstant

    def recorded(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(geometry, "_nonconstant", recorded)
    for key, make in golden_posets().items():
        poset = make()
        ts = [generic_parameter(poset)]
        if "t" in INPUTS[key]:
            ts.append(Parameter(INPUTS[key]["t"]))
        for t in ts:
            hrep_general(poset, t, projected=True)
            hrep_general(poset, t, projected=False)
    monkeypatch.undo()
    assert len(calls) >= 4 * len(golden_posets())
    for args in calls:
        assert geometry._nonconstant(*args) == reference_nonconstant(*args)


@pytest.mark.parametrize("rows,n,kind,violated,error", [
    ([((0, 0, 0), 1, ("zero",)), ((3, 6, 0), 6, ("a",))], 3, "equation", (0).__ne__, None),
    ([((-2, 0), 3, ("holds",)), ((4, 2), 4, ("b",))], 2, "inequality", (0).__lt__, None),
    ([((5, 10), 5, ("c",)), ((1, 0), 1, ("fails",))], 2, "inequality", (0).__lt__,
     EmptyPolyhedron),
    ([((1, 0, 0), 1, ("fails",))], 3, "equation", (0).__ne__, EmptyPolyhedron),
    ([((1, 2), 1, ("wide",)), ((1, 2, 3), 1, ("wide",))], 2, "inequality", (0).__lt__,
     geometry.GeometryError),
    ([((1,), 1, ("no coordinates",))], 1, "inequality", (0).__lt__, EmptyPolyhedron),
    ([((0,), 1, ("no coordinates",))], 1, "equation", (0).__ne__, None),
])
def test_nonconstant_matches_the_reference_on_constant_rows_and_arity(rows, n, kind,
                                                                     violated, error):
    if error is None:
        assert geometry._nonconstant(rows, n, kind, violated) == \
            reference_nonconstant(rows, n, kind, violated)
        return
    with pytest.raises(error) as got:
        geometry._nonconstant(rows, n, kind, violated)
    with pytest.raises(error) as expected:
        reference_nonconstant(rows, n, kind, violated)
    assert str(got.value) == str(expected.value)
