"""Each object derived from the marked poset is computed once per query: the
validation report, the linear extension, the base polytope, the covector
search, the tropical subdivision and each partition's chain-order polytope.
Counters are put around the one place each is computed."""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction

import pytest

from mpp import cli, degeneration, geometry, tropical
from mpp.family import Parameter, generic_parameter, hrep_general, zero_parameter
from mpp.jsonio import poset_to_json
from mpp.poset import MarkedPoset, validate

from conftest import (fraction_hrep_general, idot, make_double_star, make_ex52, make_ex52_rational,
                      make_grid, make_marked_interior)


@pytest.fixture
def ex52_file(tmp_path):
    path = tmp_path / "ex52.json"
    path.write_text(json.dumps(poset_to_json(make_ex52())))
    return str(path)


def _count(monkeypatch, module, name) -> list:
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _count_property(monkeypatch, name) -> list:
    """Count the runs of the MarkedPoset cached property name."""
    func = MarkedPoset.__dict__[name].func
    calls = []

    def counted(self):
        calls.append(1)
        return func(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(MarkedPoset, name)
    monkeypatch.setattr(MarkedPoset, name, prop)
    return calls


def test_vertices_query_validates_once(ex52_file, monkeypatch, capsys):
    calls = _count_property(monkeypatch, "problems")
    assert cli.main(["vertices", ex52_file, "--t", "generic"]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["vertices"]


def test_validate_returns_a_fresh_list():
    poset = MarkedPoset(("a", "p"), frozenset([("a", "p")]), {})
    first = validate(poset)
    assert first == ["unmarked minimal element a"]
    first.clear()
    assert validate(poset) == ["unmarked minimal element a"]


def test_conjecture_sweep_builds_base_once(ex52_file, monkeypatch, capsys):
    bases = _count(monkeypatch, tropical, "homogenization_cone")  # O_0's DD runs
    searches = _count(monkeypatch, tropical, "_covector_cells")
    hrep_at = []
    hrep_general = tropical.hrep_general

    def counted(poset, t, projected=True):
        hrep_at.append(tuple(sorted(t.values.items())))
        return hrep_general(poset, t, projected)

    monkeypatch.setattr(tropical, "hrep_general", counted)
    assert cli.main(["sweep", ex52_file, "--check", "conjecture5"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert (len(bases), len(searches)) == (1, 1)
    # O_0 once (the base), then the generic t and the seven other corners
    zero = [t for t in hrep_at if not any(v for _, v in t)]
    assert (len(zero), len(hrep_at)) == (1, 9)


def test_base_polytope_is_built_once_per_poset_instance(monkeypatch):
    # the base is kept on the instance that built it: each test builds its
    # own instances, since a base kept on a shared one would hide runs
    runs = _count(monkeypatch, tropical, "homogenization_cone")
    poset = make_ex52()
    t = generic_parameter(poset)
    tropical.tropical_subdivision(poset)
    tropical.generic_vrep(poset, t)
    tropical.check_vertex_degeneration_conjecture(poset, t)
    assert len(runs) == 1
    twin = make_ex52()
    tropical.tropical_subdivision(twin)
    assert len(runs) == 2
    assert twin == poset and hash(twin) == hash(poset) == hash(make_ex52())


def test_subdivision_off_builds_one_subdivision(ex52_file, tmp_path, monkeypatch, capsys):
    built = _count(monkeypatch, tropical, "tropical_subdivision")
    off = tmp_path / "out.off"
    assert cli.main(["subdivision", ex52_file, "--off", str(off)]) == 0
    assert len(built) == 1  # the cells, which the OFF export reads too
    assert off.read_text().startswith("OFF\n")
    capsys.readouterr()


def test_hibi_li_sweep_builds_each_lattice_once(tmp_path, monkeypatch, capsys):
    # the double star has 5 unmarked elements: 32 partitions, each one face
    # count (the sweep stores no lattice) shared by the f-vector table and the
    # 80 moves through it
    path = tmp_path / "dstar.json"
    path.write_text(json.dumps(poset_to_json(make_double_star())))
    built = _count(monkeypatch, cli, "face_counts")
    assert cli.main(["sweep", str(path), "--check", "hibi-li"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] and len(data["f_vectors"]) == 32 and len(data["moves"]) == 80
    assert len(built) == 32


def _vertex_tight_sets(h) -> frozenset:
    """Each vertex's mask of h's tight inequalities by their index in h, one
    integer dot product per pair."""
    return frozenset(sum(1 << i for i, r in enumerate(h.int_inequalities) if idot(r, p) == 0)
                     for p in geometry.vertices(h).rows)


@pytest.mark.parametrize("make, faces, hreps, families",
                         [(make_ex52, 7, 7, 3), (lambda: make_grid(2, 3), 9, 21, 3)],
                         ids=["ex52", "grid2x3"])
def test_types_sweep_walks_once_per_tight_set_family(tmp_path, monkeypatch, capsys,
                                                     make, faces, hreps, families):
    # three samples per hypercube face, one sample per distinct H-rep over
    # the whole sweep, and one face walk per distinct family of vertex tight
    # sets (which determines the face lattice), however many faces share it;
    # every sample reports the f-vector of its own polytope
    from mpp import degeneration

    poset = make()
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(poset_to_json(poset)))
    walks = _count(monkeypatch, degeneration, "face_counts")
    sampled = _count(monkeypatch, degeneration, "_type_sample")
    assert cli.main(["sweep", str(path), "--check", "types"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] and len(data["faces"]) == faces
    assert [len(r["f_vectors"]) for r in data["faces"]] == [3] * faces
    seen = set()
    for report in data["faces"]:
        fixed = {k: Fraction(v) for k, v in report["face"].items()}
        face_hreps = [hrep_general(poset, t, projected=True)
                      for t in degeneration.sample_face_parameters(poset, fixed)]
        seen.update(face_hreps)
        assert report["f_vectors"] == [
            list(geometry.face_counts(h, geometry.vertices(h))) for h in face_hreps]
    assert len(sampled) == len(seen) == hreps
    assert len(walks) == len({_vertex_tight_sets(h) for h in seen}) == families


def test_degenerate_query_computes_the_linear_extension_once(ex52_file, tmp_path,
                                                              monkeypatch, capsys):
    calls = _count_property(monkeypatch, "_kahn")
    src, dst = tmp_path / "t.json", tmp_path / "u.json"
    src.write_text(json.dumps({"t": {"p": "1/3", "q": "1/2", "r": "2/3"}}))
    dst.write_text(json.dumps({"t": {"p": "1", "q": "1/2", "r": "0"}}))
    argv = ["degenerate", ex52_file, "--from-t", str(src), "--to-t", str(dst)]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["order_preserving"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("make", [make_ex52, make_double_star, lambda: make_grid(3, 4)],
                         ids=["ex52", "dstar", "grid3x4"])
def test_kahn_runs_once_per_poset(make, monkeypatch):
    # acyclicity, validation, the linear extension and the chain rows all
    # read one run of Kahn's algorithm
    calls = _count_property(monkeypatch, "_kahn")
    poset = make()
    assert validate(poset) == []
    assert len(poset.linear_extension()) == len(poset.elements)
    hrep_general(poset, generic_parameter(poset))
    assert len(calls) == 1


def test_hibi_li_sweep_runs_dd_once_per_partition(tmp_path, monkeypatch, capsys):
    # the tameness sweep and the face lattices share each partition's
    # (H-rep, V-rep): 32 DD runs for the double star's 32 partitions
    from mpp import degeneration, family

    path = tmp_path / "dstar.json"
    path.write_text(json.dumps(poset_to_json(make_double_star())))
    runs = [_count(monkeypatch, module, "vertices") for module in (family, degeneration)]
    assert cli.main(["sweep", str(path), "--check", "hibi-li"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] and data["tame"] and len(data["f_vectors"]) == 32
    assert sum(map(len, runs)) == 32


@pytest.mark.parametrize("argv", [["ehrhart", "{}", "--dilations", "4"],
                                  ["sweep", "{}", "--check", "ehrhart"]])
def test_ehrhart_runs_dd_once_per_polytope_and_never_dilates(ex52_file, monkeypatch,
                                                             capsys, argv):
    # dilation k scales the right-hand sides of the integer rows inside the
    # enumerator: no dilated H-rep.  O_0 (the ehrhart query at t = 0 and the
    # sweep's corner C = {}) is counted over the order ideals, and so is
    # every other corner of the sweep once the transfer map is certified
    # there, which reads the one DD run of the base polytope: no polytope
    # is enumerated, so vertices runs no DD
    import sys

    from mpp.geometry import HRep

    runs = [_count(monkeypatch, module, "vertices")
            for name, module in sorted(sys.modules.items())
            if name.startswith("mpp.") and hasattr(module, "vertices")]
    assert not hasattr(HRep, "dilate")  # dilating an H-rep is a test oracle only
    assert cli.main([a.format(ex52_file) for a in argv]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data.get("polynomials", [None])) == (8 if argv[0] == "sweep" else 1)
    assert sum(map(len, runs)) == 0


@pytest.mark.parametrize("make,checked", [(make_ex52, 2), (make_double_star, 8)],
                         ids=["ex52", "dstar"])
def test_ehrhart_sweep_searches_the_covector_cells_once(make, checked, tmp_path,
                                                       monkeypatch, capsys):
    # the certificate's rows and facets come from one covector search on the
    # one DD run of the base polytope, shared by every corner, and phi_t is
    # checked once per distinct corner H-rep: ex52's 7 corners past C = {}
    # have 2 H-reps (only t_r moves O_t), the double star's 31 have 8
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(poset_to_json(make())))
    runs = _count(monkeypatch, tropical, "homogenization_cone")
    searches = _count(monkeypatch, tropical, "_covector_cells")
    transfers = _count(monkeypatch, tropical, "transfer_theta_homogeneous")
    assert cli.main(["sweep", str(path), "--check", "ehrhart"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"]
    assert (len(runs), len(searches), len(transfers)) == (1, 1, checked)


def test_fvector_domination_check_builds_no_face_lattice(monkeypatch):
    # it compares face counts; a FaceLattice would be built only to count
    from mpp import degeneration
    from mpp.degeneration import DegenerationPair, check_fvector_domination
    from mpp.family import generic_parameter, zero_parameter

    counted = _count(monkeypatch, degeneration, "face_counts")
    monkeypatch.setattr(degeneration, "face_lattice", None)  # any call fails
    poset = make_ex52()
    pair = DegenerationPair(generic_parameter(poset), zero_parameter(poset))
    rep = check_fvector_domination(poset, pair)
    assert rep["pass"] and len(counted) == 2
    assert rep["source_f_vector"] == [14, 22, 10]


def test_subdivision_runs_no_dd_on_the_base_polytope_twice(ex52_file, monkeypatch, capsys):
    # DD runs once, on the base polytope in _base_data, and inserts the base
    # rows by one cut; each of the three sectors of ex52's one hyperplane,
    # a search node, continues that cone by a cut of its own rows
    runs = _count(monkeypatch, tropical, "homogenization_cone")
    kernel = _count(monkeypatch, tropical, "vertices")
    cuts = _count(monkeypatch, geometry.Cone, "cut")
    assert cli.main(["subdivision", ex52_file]) == 0
    assert json.loads(capsys.readouterr().out)["cells"]
    assert (len(runs), len(kernel), len(cuts)) == (1, 0, 1 + 3)


def test_ideal_chain_subdivision_cuts_the_one_base_cone(monkeypatch):
    # DD runs once, on the base polytope in _base_data; each compatible chain
    # cuts that cone with its block rows, and no cell runs DD of its own
    runs = _count(monkeypatch, tropical, "homogenization_cone")
    kernel = _count(monkeypatch, tropical, "vertices")
    cuts = _count(monkeypatch, geometry.Cone, "cut")
    poset = make_ex52()
    chains = len(tropical.compatible_ideal_chains(poset))
    assert tropical.ideal_chain_cells(poset)
    assert (len(runs), len(kernel), len(cuts)) == (1, 0, 1 + chains)


def test_subdivision_builds_no_hrep_per_cell(ex52_file, monkeypatch, capsys):
    # a maximal cell is its cone alone: its facets and dimension are read
    # against the base H-rep, so the base is the one H-rep built
    built = _count(monkeypatch, geometry.HRep, "with_rows")
    poset = make_ex52()
    hrep_general(poset, zero_parameter(poset), projected=True)
    base = len(built)
    built.clear()
    assert cli.main(["subdivision", ex52_file]) == 0
    assert json.loads(capsys.readouterr().out)["cells"]
    assert base and len(built) == base


def _count_fractions(monkeypatch) -> list:
    """Count every Fraction built from here on: by the constructor, and by
    the arithmetic shortcut that newer Pythons take around it."""
    built = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        built.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    if "_from_coprime_ints" in vars(Fraction):
        shortcut = Fraction._from_coprime_ints.__func__

        def counted_shortcut(cls, *args):
            built.append(1)
            return shortcut(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_shortcut))
    return built


def _fraction_vertices(h):
    """The vertices as the kernel once returned them: the Fraction points of
    the DD rays with x0 > 0, deduplicated and sorted by Fraction comparison."""
    rays = geometry.homogenization_cone(h).rays
    points = {tuple(Fraction(x, r[0]) for x in r[1:]) for r, _ in rays if r[0] > 0}
    return tuple(sorted(points))


def _random_rational_hrep(rnd: random.Random):
    """A box around the origin, possibly shifted to negative coordinates, cut
    by rows with mixed denominators."""
    d = rnd.randint(1, 4)
    coords = tuple(f"x{i}" for i in range(d))
    shift = [Fraction(rnd.randint(-9, 3), rnd.choice((1, 2, 3, 5))) for _ in range(d)]
    ineqs = []
    for i, s in enumerate(shift):
        unit = tuple(Fraction(int(j == i)) for j in range(d))
        ineqs.append((unit, s + rnd.randint(1, 4), ("hi",)))
        ineqs.append((tuple(-x for x in unit), -s + rnd.randint(0, 4), ("lo",)))
    for _ in range(rnd.randint(0, 3)):
        coeffs = tuple(Fraction(rnd.randint(-6, 6), rnd.choice((1, 2, 3, 4, 7)))
                       for _ in range(d))
        if any(coeffs):
            slack = Fraction(rnd.randint(1, 9), rnd.choice((2, 3, 5)))
            rhs = sum(c * s for c, s in zip(coeffs, shift)) + slack
            ineqs.append((coeffs, rhs, ("cut",)))
    return geometry.make_hrep(coords, [], ineqs)


def _grid3x4_interior_t(poset) -> Parameter:
    dens = (2, 3, 5, 7, 4, 6)
    return Parameter({p: Fraction(1 + i % (dens[i % 6] - 1), dens[i % 6])
                      for i, p in enumerate(sorted(poset.unmarked))})


def _grid3x4_interior():
    poset = make_grid(3, 4)
    return hrep_general(poset, _grid3x4_interior_t(poset), projected=True)


def test_vertices_builds_no_fraction(monkeypatch):
    # the V-rep holds integer rows; Fractions appear only when a caller reads
    # VRep.vertices, and then equal the Fraction points of the old kernel
    ex52q = make_ex52_rational()
    hreps = [_grid3x4_interior(),
             hrep_general(ex52q, Parameter({"p": Fraction(2, 7), "q": Fraction(3, 5),
                                            "r": Fraction(4, 7)}), projected=True)]
    rnd = random.Random(12)
    hreps += [_random_rational_hrep(rnd) for _ in range(50)]
    dens = set()
    for h in hreps:
        with monkeypatch.context() as m:
            built = _count_fractions(m)
            v = geometry.vertices(h)
            assert built == []
            assert v.vertices and built  # the first read builds them
        assert v.vertices == _fraction_vertices(h)
        assert v.rows == tuple(sorted(geometry.homogenized(v.vertices)))
        dens.add(v.rows[0][0])
    assert len(dens) > 3  # not vacuous: many common denominators besides 1


def test_vertices_bruteforce_builds_no_fraction(monkeypatch):
    # the brute-force oracle reads the integer rows as DD does: it builds no
    # Fraction on polytopes, empty H-reps (an inconsistent equation) and
    # unbounded ones, and gives DD's rows or refuses as DD does
    ex52q = make_ex52_rational()
    grid = make_grid(2, 3)
    hreps = [hrep_general(grid, generic_parameter(grid), projected=True),
             hrep_general(ex52q, Parameter({"p": Fraction(2, 7), "q": Fraction(3, 5),
                                            "r": Fraction(4, 7)}), projected=True)]
    rnd = random.Random(13)
    hreps += [_random_rational_hrep(rnd) for _ in range(30)]
    x, y, half = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), Fraction(1, 2))
    band = [(y, half, ()), (tuple(-c for c in y), half, ())]  # -1/2 <= y <= 1/2
    hreps.append(geometry.make_hrep(("x", "y"), [(x, half, ()), (x, 2 * half, ())], band))
    hreps.append(geometry.make_hrep(("x", "y"), [], band + [(tuple(-c for c in x), 0, ())]))
    seen = set()
    for h in hreps:
        with monkeypatch.context() as m:
            built = _count_fractions(m)
            try:
                got = geometry.vertices_bruteforce(h)
            except geometry.GeometryError as exc:
                got = type(exc)
            assert built == []
        try:
            v = geometry.vertices(h)
            assert got == (geometry.Unbounded if v.rays else v)
        except geometry.EmptyPolyhedron:
            assert got is geometry.EmptyPolyhedron
        seen.add(got if isinstance(got, type) else geometry.VRep)
    assert seen == {geometry.VRep, geometry.EmptyPolyhedron, geometry.Unbounded}


def test_hrep_builds_no_fraction(monkeypatch):
    # H-rep rows are integer rows from the start: building them, comparing
    # and hashing them, enumerating their vertices and running the covector
    # search build no Fraction
    from mpp.family import hrep_chain_order, partition_of_parameter

    ex52q = make_ex52_rational()
    t = Parameter({"p": Fraction(2, 7), "q": Fraction(3, 5), "r": Fraction(4, 7)})
    part = partition_of_parameter(ex52q, Parameter({"p": Fraction(1), "q": Fraction(0),
                                                    "r": Fraction(1)}))
    grid = make_grid(3, 4)
    grid_t = _grid3x4_interior_t(grid)
    interior = make_marked_interior()
    with monkeypatch.context() as m:
        built = _count_fractions(m)
        for poset, par in ((grid, grid_t), (ex52q, t)):
            for projected in (True, False):
                geometry.vertices(hrep_general(poset, par, projected))
        for projected in (True, False):
            geometry.vertices(hrep_chain_order(ex52q, part, projected))
        cells = []
        for poset in (ex52q, interior):
            base, root = tropical._base_data(poset)
            # each maximal cell's H-rep: the base with its cone's sector rows
            sectors = [cone.rows[len(root.rows):] for cone in tropical._covector_cells(
                poset, tropical.arrangement(poset), base, root)]
            cells.append([base.with_rows((), [(row, 1, ()) for row in rows]) for rows in sectors])
        h, copy = hrep_general(ex52q, t), hrep_general(ex52q, t)
        assert hash(h) == hash(copy) and h == copy and {h, copy} == {h}
        assert built == []
    assert all(cells)
    # read through the API, the rows are the Fraction builder's
    assert (h.coords, h.equations, h.inequalities) == fraction_hrep_general(ex52q, t)


def test_tropical_vertices_build_the_hrep_at_t_once(ex52_file, monkeypatch, capsys):
    hrep_at = []
    for module in (cli.family, tropical):
        def counted(poset, t, projected=True, inner=module.hrep_general):
            hrep_at.append(tuple(sorted(t.values.items())))
            return inner(poset, t, projected)

        monkeypatch.setattr(module, "hrep_general", counted)
    assert cli.main(["vertices", ex52_file, "--t", "generic", "--method", "tropical"]) == 0
    assert json.loads(capsys.readouterr().out)["vertices"]
    # the base polytope at t = 0, then the generic t for the kernel check
    zero = [t for t in hrep_at if not any(v for _, v in t)]
    assert (len(zero), len(hrep_at)) == (1, 2)


def _count_dd(monkeypatch) -> list:
    """Count the double description runs: homogenization_cone, which
    geometry.vertices calls and tropical imports by name."""
    runs = _count(monkeypatch, geometry, "homogenization_cone")
    monkeypatch.setattr(tropical, "homogenization_cone", geometry.homogenization_cone)
    return runs


@pytest.mark.parametrize("make, check, runs, lattices", [
    (make_ex52, "types", 7, 0),
    (lambda: make_grid(2, 2), "domination", 1, 1),
    (make_ex52, "domination", 3, 3),
    (lambda: make_grid(2, 3), "domination", 5, 5),
    (make_double_star, "domination", 9, 9),
    (make_ex52, "conjecture5", 3, 0),
    (lambda: make_grid(2, 3), "conjecture5", 5, 0),
], ids=["types-ex52", "domination-grid2x2", "domination-ex52", "domination-grid2x3",
        "domination-dstar", "conjecture5-ex52", "conjecture5-grid2x3"])
def test_sweeps_run_one_dd_per_distinct_hrep(tmp_path, monkeypatch, capsys, make, check,
                                             runs, lattices):
    # an element whose lower covers are all marked 0 multiplies only zero
    # terms, so its coordinate leaves the H-rep alone: ex52's types sweep
    # samples 7 distinct H-reps in 21 samples, grid2x2 has one H-rep for
    # every t, and the conjecture sweep runs O_0 (the base), the generic t
    # and each corner H-rep other than O_0's.  The domination sweep builds
    # one polytope (DD and face lattice) per distinct H-rep among the
    # generic t and the corners: its source is kept across the corners'
    # H-rep groups.  The other sweeps count faces without a lattice.  A
    # second run of the same command in the same process counts the same:
    # nothing outlives a command.
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(poset_to_json(make())))
    dd = _count_dd(monkeypatch)
    built = _count(monkeypatch, degeneration, "face_lattice")
    outputs = []
    for _ in range(2):
        dd.clear()
        built.clear()
        assert cli.main(["sweep", str(path), "--check", check]) == 0
        outputs.append(capsys.readouterr().out)
        assert (len(dd), len(built)) == (runs, lattices)
    assert outputs[0] == outputs[1] and json.loads(outputs[0])["pass"]


@pytest.mark.parametrize("make, builds", [
    (make_ex52, 1 + 8), (make_double_star, 1 + 32), (lambda: make_grid(2, 3), 1 + 16),
], ids=["ex52", "dstar", "grid2x3"])
def test_domination_sweep_builds_each_hrep_once(tmp_path, monkeypatch, capsys, make, builds):
    # the generic source's H-rep is built once for the sweep and each corner's
    # once, as its group key; the face maps take both from the sweep
    from mpp import family
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(poset_to_json(make())))
    built = _count(monkeypatch, family, "hrep_general")
    monkeypatch.setattr(degeneration, "hrep_general", family.hrep_general)
    assert cli.main(["sweep", str(path), "--check", "domination"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"]
    assert len(built) == builds


def test_composition_law_builds_each_hrep_once(monkeypatch):
    # one H-rep for each of u, u2 and u3, shared by the three face maps
    ex52 = make_ex52()
    t = generic_parameter(ex52)
    u2 = Parameter({**t.values, "p": 0})
    u3 = Parameter({**u2.values, "q": 1})
    built = _count(monkeypatch, degeneration, "hrep_general")
    assert degeneration.composition_law(ex52, t, u2, u3)
    assert len(built) == 3


def test_degenerate_runs_one_dd_when_the_hreps_agree(ex52_file, tmp_path, monkeypatch,
                                                     capsys):
    # only t_r enters ex52's H-rep: the target's polytope is the source's
    src, dst = tmp_path / "t.json", tmp_path / "u.json"
    src.write_text(json.dumps({"t": {"p": "1/2", "q": "1/3", "r": "1/2"}}))
    dst.write_text(json.dumps({"t": {"p": "0", "q": "1", "r": "1/2"}}))
    dd = _count_dd(monkeypatch)
    for _ in range(2):
        dd.clear()
        assert cli.main(["degenerate", ex52_file, "--from-t", str(src), "--to-t", str(dst)]) == 0
        assert json.loads(capsys.readouterr().out)["surjective"]
        assert len(dd) == 1
