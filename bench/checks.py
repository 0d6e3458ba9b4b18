"""Output checks for every query the benchmark sends to `mpp`.

`check_query` validates one query's JSON output on its own and returns the
problems it found plus a list of facts that must agree across queries of the
same pass (`check_pass`).  Expected answers come from `oracles`, never from
a stored copy of an earlier output.
"""

from __future__ import annotations

import json
from fractions import Fraction

import oracles as O

_posets: dict[str, O.Poset] = {}


def poset(path: str) -> O.Poset:
    if path not in _posets:
        _posets[path] = O.Poset.load(path)
    return _posets[path]


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def requested_t(P: O.Poset, argv) -> dict[str, Fraction] | None:
    """The parameter the query asked for; None for --t generic."""
    t_arg, part = _flag(argv, "--t"), _flag(argv, "--partition")
    if t_arg == "generic":
        return None
    if t_arg:
        return {p: Fraction(v) for p, v in _load(t_arg)["t"].items()}
    if part:
        chain = set(_load(part)["C"])
        return {p: Fraction(int(p in chain)) for p in P.unmarked}
    return {p: Fraction(0) for p in P.unmarked}


def used_t(P: O.Poset, argv, out, problems) -> dict[str, Fraction]:
    """The parameter recorded in the output, checked against the request."""
    t = {p: Fraction(v) for p, v in out["t"].items()}
    if set(t) != set(P.unmarked):
        problems.append("output parameter does not cover the unmarked elements")
        return {p: Fraction(0) for p in P.unmarked}
    want = requested_t(P, argv)
    if want is None:
        if not all(0 < v < 1 for v in t.values()):
            problems.append("--t generic gave a parameter outside the open cube")
    elif want != t:
        problems.append("output parameter differs from the requested one")
    return t


def is_corner(t) -> bool:
    return all(v in (0, 1) for v in t.values())


def is_interior(t) -> bool:
    return all(0 < v < 1 for v in t.values())


def half_t(P: O.Poset) -> dict[str, Fraction]:
    """The centre of the cube; O_t has one combinatorial type on its interior."""
    return {p: Fraction(1, 2) for p in P.unmarked}


def chain_part(t) -> frozenset[str]:
    return frozenset(p for p, v in t.items() if v == 1)


def tame_by_theory(P: O.Poset) -> bool:
    """Graded posets marked only at bottom and top are tame."""
    return P.bottom_top() is not None and P.graded()


def _points(P: O.Poset, out, problems):
    coords = out["coords"]
    if sorted(coords) != sorted(P.unmarked):
        problems.append("vertex coordinates are not the unmarked elements")
        return []
    pos = [coords.index(p) for p in P.unmarked]
    return [tuple(Fraction(v[i]) for i in pos) for v in out["vertices"]]


_expected: dict[tuple, set | None] = {}


def expected_vertices(P: O.Poset, t) -> set[tuple[Fraction, ...]] | None:
    """The vertex set of O_t worked out apart from `mpp`: closed forms at the
    corners of a bottom/top poset, the tight-cover description at t = 0,
    else brute force over bases when there are few.  None when no method
    is cheap enough."""
    key = (id(P), tuple(sorted(t.items())))
    if key not in _expected:
        if is_corner(t) and P.bottom_top() is not None:
            want = O.corner_vertices(P, chain_part(t))
        elif not any(t.values()):
            want = O.order_vertices(P)
        else:
            want = O.basic_points(O.projected_rows(P, t))
        _expected[key] = want
    return _expected[key]


def min_vertex_count(P: O.Poset, t) -> int:
    """A lower bound on the vertex count of O_t.  By f-vector domination
    (source paper) the face lattice at an interior t maps onto that of every
    corner, so it has at least the vertices of the order polytope (t = 0)
    and, on a bottom/top poset, of the chain polytope (t = 1)."""
    if not is_interior(t):
        return 1
    key = (id(P), "interior")
    if key not in _expected:
        n = len(O.order_vertices(P))
        if P.bottom_top() is not None:
            n = max(n, len(O.antichains(P)))
        _expected[key] = n
    return _expected[key]


def check_vertex_count(P, t, count, problems):
    want = expected_vertices(P, t)
    if want is not None and count != len(want):
        problems.append(f"{count} vertices, expected {len(want)}")
    elif count < min_vertex_count(P, t):
        problems.append(f"{count} vertices, fewer than the {min_vertex_count(P, t)} "
                        f"that f-vector domination requires")


def check_vertex_list(P, t, points, problems, facts, key):
    want = expected_vertices(P, t)
    if want is not None:
        if set(points) != want or len(points) != len(want):
            problems.append(f"vertices differ from the independent vertex set "
                            f"({len(points)} given, {len(want)} expected)")
    else:
        problems += O.vertex_problems(O.projected_rows(P, t), points)[:3]
        check_vertex_count(P, t, len(points), problems)
    if is_interior(t):
        facts.append(("interior_vertex_count", key, len(points)))


def check_vertices(argv, out, problems, facts):
    P = poset(argv[1])
    t = used_t(P, argv, out, problems)
    if out["rays"]:
        problems.append("a bounded polytope was given rays")
    check_vertex_list(P, t, _points(P, out, problems), problems, facts, argv[1])
    if _flag(argv, "--t") == "generic" and "tropical" in argv:
        facts.append(("generic_vertices", argv[1],
                      frozenset(tuple(p) for p in out["vertices"])))


def check_fvector(argv, out, problems, facts):
    P = poset(argv[1])
    t = used_t(P, argv, out, problems)
    f = tuple(out["f_vector"])
    if not O.euler_ok(f):
        problems.append(f"f-vector {f} breaks the Euler relation")
    if out["dim"] != len(f):
        problems.append("dim differs from the f-vector length")
    check_vertex_count(P, t, f[0], problems)
    if is_corner(t) and tame_by_theory(P) and f[-1] != O.corner_facets(P, chain_part(t)):
        problems.append(f"corner f-vector {f} has the wrong facet count")
    if is_interior(t):
        facts.append(("interior_f_vector", argv[1], f))


def _normalized(coeffs: dict, rhs) -> tuple:
    """The inequality scaled so that its coefficient at the least named
    element is +-1, whatever order the coefficients come in."""
    scale = 1 / abs(coeffs[min(k for k, v in coeffs.items() if v)])
    return tuple(sorted((k, v * scale) for k, v in coeffs.items() if v)), rhs * scale


def check_hrep(argv, out, problems, facts):
    P = poset(argv[1])
    t = used_t(P, argv, out, problems)
    h = out["hrep"]
    if sorted(h["coords"]) != sorted(P.elements):
        problems.append("hrep coordinates are not the poset's elements")
        return
    rows = {_normalized(r, Fraction(0)) for r in O.hrep_rows(P, t)}
    ineqs = [_normalized({k: Fraction(v) for k, v in r["coeffs"].items()}, Fraction(r["rhs"]))
             for r in h["inequalities"]]
    if any(r not in rows for r in ineqs):
        problems.append("an inequality is not one of the chain inequalities at t")
    if len(set(ineqs)) != len(ineqs):
        problems.append("an irredundant description repeats an inequality")
    marks = {}
    for r in h["equations"]:
        coeffs = {k: Fraction(v) for k, v in r["coeffs"].items()}
        if len(coeffs) == 1:
            (a, c), = coeffs.items()
            marks[a] = Fraction(r["rhs"]) / c
    if marks != P.marking or len(h["equations"]) != len(P.marking):
        problems.append("equations are not exactly the marking")
    if "--irredundant" in argv:
        if is_corner(t) and tame_by_theory(P):
            want = O.corner_facets(P, chain_part(t))
            if len(ineqs) != want:
                problems.append(f"{len(ineqs)} facets at a corner, expected {want}")
        elif len(ineqs) < len(P.unmarked) + 1:
            problems.append("too few facets for a full-dimensional polytope")


def _lattice_count(P: O.Poset, k: int) -> int:
    n = P.bottom_top()
    if n is not None:
        return O.multichain_count(P, k * n)
    return O.order_preserving_count(P, k)


def check_lattice_points(argv, out, problems, facts):
    P = poset(argv[1])
    t = used_t(P, argv, out, problems)
    if not is_corner(t):
        problems.append("lattice points were asked at a non-corner parameter")
        return
    coords = out["coords"]
    pos = {e: coords.index(e) for e in P.elements}
    pts = out["points"]
    want = _lattice_count(P, 1)
    if len(pts) != want:
        problems.append(f"{len(pts)} lattice points, expected {want}")
    if len(set(map(tuple, pts))) != len(pts):
        problems.append("repeated lattice point")
    rows = [[(pos[e], int(c)) for e, c in r.items() if c] for r in O.hrep_rows(P, t)]
    marks = [(pos[a], int(v)) for a, v in P.marking.items()]
    for x in pts:
        if any(x[i] != v for i, v in marks) or any(
                sum(c * x[i] for i, c in r) > 0 for r in rows):
            problems.append(f"{x} is not in the polytope")
            break


def check_ehrhart(argv, out, problems, facts):
    P = poset(argv[1])
    t = used_t(P, argv, out, problems)
    coeffs = [Fraction(c) for c in out["coefficients"]]
    if not is_corner(t):
        problems.append("Ehrhart data asked at a non-corner parameter")
    for k, c in out["counts"]:
        want = _lattice_count(P, k) if k else 1
        if c != want or O.eval_poly(coeffs, k) != c:
            problems.append(f"count {c} at dilation {k}, expected {want}")
    if len(coeffs) - 1 > len(P.unmarked):
        problems.append("Ehrhart polynomial degree exceeds the dimension")


def check_subdivision(argv, out, problems, facts):
    P = poset(argv[1])
    zero = {p: Fraction(0) for p in P.unmarked}
    rows = O.projected_rows(P, zero)
    verts = {tuple(v) for v in out["vertices"]}
    for v in verts:
        x = tuple(Fraction(a) for a in v)
        if any(sum(a * b for a, b in zip(c, x)) > r for c, r in rows):
            problems.append(f"subdivision vertex {v} lies outside O(P, lambda)")
            break
    if not out["cells"] or any(not {tuple(p) for p in c["vertices"]} <= verts
                               for c in out["cells"]):
        problems.append("a cell has a vertex that is not a subdivision vertex")
    check_vertex_count(P, half_t(P), len(verts), problems)
    facts.append(("interior_vertex_count", argv[1], len(verts)))


def check_degenerate(argv, out, problems, facts):
    fs = out["f_vector_domination"]
    src, tgt = tuple(fs["source_f_vector"]), tuple(fs["target_f_vector"])
    _f_vectors_ok(src, tgt, fs["pass"], problems)
    if not (out["surjective"] and out["order_preserving"] and out["dims_nondecreasing"]):
        problems.append("degeneration map is not a surjective order-preserving map")
    pairs = out["face_map"]
    n_src, n_tgt = sum(src) + 2, sum(tgt) + 2
    if sorted(s for s, _ in pairs) != list(range(n_src)):
        problems.append("face map does not send every source face once")
    if {g for _, g in pairs} != set(range(n_tgt)):
        problems.append("face map misses a target face")
    P = poset(argv[1])
    check_vertex_count(P, half_t(P), src[0], problems)
    facts.append(("interior_f_vector", argv[1], src))


def _f_vectors_ok(src, tgt, claimed, problems):
    for f in (src, tgt):
        if not O.euler_ok(f):
            problems.append(f"f-vector {f} breaks the Euler relation")
    width = max(len(src), len(tgt))
    pad = lambda f: f + (0,) * (width - len(f))
    if claimed != all(a <= b for a, b in zip(pad(tgt), pad(src))):
        problems.append("f-vector domination verdict is wrong")


def check_sweep(argv, out, problems, facts):
    P = poset(argv[1])
    kind = out["checked"]
    if not out["pass"] and kind not in ("conjecture5", "hibi-li"):
        problems.append(f"sweep {kind} did not pass")
    if kind == "types":
        for face in out["faces"]:
            fvs = {tuple(f) for f in face["f_vectors"]}
            if len(fvs) != 1 or not all(O.euler_ok(f) for f in fvs):
                problems.append("samples of one hypercube face differ in f-vector")
            if not face["face"]:
                check_vertex_count(P, half_t(P), next(iter(fvs))[0], problems)
                facts.append(("interior_f_vector", argv[1], fvs.pop()))
    elif kind == "domination":
        for r in out["targets"]:
            src, tgt = tuple(r["source_f_vector"]), tuple(r["target_f_vector"])
            _f_vectors_ok(src, tgt, r["pass"], problems)
            if not r["map_ok"]:
                problems.append("a degeneration map of the sweep is not valid")
            check_vertex_count(P, half_t(P), src[0], problems)
            facts.append(("interior_f_vector", argv[1], src))
        if len(out["targets"]) != 2 ** len(P.unmarked):
            problems.append("domination sweep skipped a hypercube vertex")
    elif kind == "ehrhart":
        polys = {tuple(r["coefficients"]) for r in out["polynomials"]}
        if len(out["polynomials"]) != 2 ** len(P.unmarked) or len(polys) != 1:
            problems.append("Ehrhart polynomials differ across corners")
        elif O.eval_poly([Fraction(c) for c in polys.pop()], 1) != _lattice_count(P, 1):
            problems.append("Ehrhart polynomial at 1 is not the lattice-point count")
    elif kind == "hibi-li":
        table = {tuple(r["C"]): r["f_vector"] for r in out["f_vectors"]}
        if len(table) != 2 ** len(P.unmarked):
            problems.append("hibi-li table skipped a partition")
        if not all(O.euler_ok(tuple(f)) for f in table.values()):
            problems.append("a chain-order f-vector breaks the Euler relation")
        ok = True
        for m in out["moves"]:
            fa, fb = m["f_vector_CO"], m["f_vector_C'O'"]
            if (table.get(tuple(m["C"])) != fa or table.get(tuple(m["C'"])) != fb
                    or m["facet_delta_lp"] != fb[-1] - fa[-1]):
                problems.append("a hibi-li move disagrees with the f-vector table")
                break
            ok = ok and m["dominated"] and m.get("facet_delta_match", True)
        if out["pass"] != ok:
            problems.append("hibi-li verdict disagrees with its moves")
    elif kind == "conjecture5":
        items = out["vertices"]
        if out["pass"] != all(i["witnesses"] for i in items):
            problems.append("conjecture verdict disagrees with its witnesses")
        if any(any(v not in ("0", "1") for v in w.values())
               for i in items for w in i["witnesses"]):
            problems.append("a witness is not a hypercube vertex")
        facts.append(("generic_vertices", argv[1],
                      frozenset(tuple(i["vertex"]) for i in items)))
        check_vertex_count(P, half_t(P), len(items), problems)
        facts.append(("interior_vertex_count", argv[1], len(items)))


def check_tame(argv, out, problems, facts):
    if not isinstance(out["pass"], bool):
        problems.append("tame verdict is not a boolean")
    elif tame_by_theory(poset(argv[1])) and not out["pass"]:
        problems.append("a graded bottom/top poset was reported not tame")


CHECKS = {"vertices": check_vertices, "fvector": check_fvector, "hrep": check_hrep,
          "lattice-points": check_lattice_points, "ehrhart": check_ehrhart,
          "subdivision": check_subdivision, "degenerate": check_degenerate,
          "sweep": check_sweep, "tame": check_tame}


def check_query(argv, out) -> tuple[list[str], list[tuple]]:
    problems: list[str] = []
    facts: list[tuple] = []
    if out.get("command") != argv[0]:
        return [f"output is for {out.get('command')!r}, not {argv[0]!r}"], facts
    try:
        CHECKS[argv[0]](argv, out, problems, facts)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, IndexError) as exc:
        problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return problems, facts


def check_pass(facts_by_query) -> dict[int, list[str]]:
    """Facts with the same (kind, poset) must agree across one pass; a
    disagreement is charged to the later query."""
    first: dict[tuple, object] = {}
    out: dict[int, list[str]] = {}
    for i, facts in facts_by_query:
        for kind, key, value in facts:
            if (kind, key) not in first:
                first[(kind, key)] = value
            elif first[(kind, key)] != value:
                out.setdefault(i, []).append(f"{kind} of {key} disagrees with an earlier query")
    return out
