"""Command-line front end.

JSON goes to stdout, a short human summary to stderr.  Exit codes: 0 success,
2 input validation failure, 3 computation error (an exhausted budget or an
internal fault, never reported as input).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from fractions import Fraction

# the modules every command reads; tropical, lattice and degeneration are
# imported by the commands that run them, so no other command compiles them
from . import family, jsonio
from .geometry import GeometryError, TooLarge, face_counts, vertices
from .poset import MarkedPoset, PosetError, regularize, validate
from .rationals import rat_str

EXIT_INPUT = 2
EXIT_COMPUTE = 3


class InputError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_poset(path: str) -> MarkedPoset:
    poset = jsonio.poset_from_json(_load_json(path))
    problems = validate(poset)
    if problems:
        raise InputError("invalid poset: " + "; ".join(problems))
    return poset


def _resolve_parameter(args, poset) -> tuple[family.Parameter, dict]:
    """Parameter from --t/--partition flags; records the choice for the header."""
    header = {}
    if args.partition and args.t:
        raise InputError("--t and --partition are mutually exclusive")
    if args.partition:
        part = jsonio.partition_from_json(_load_json(args.partition), poset)
        t = family.parameter_of_partition(poset, part)
        header["partition"] = jsonio.partition_to_json(part)
    elif args.t == "generic":
        t = family.generic_parameter(poset)
    elif args.t:
        t = jsonio.parameter_from_json(_load_json(args.t), poset)
    else:
        t = family.zero_parameter(poset)
    header.update(jsonio.parameter_to_json(t))
    return t, header


def _emit(payload: dict, summary: str) -> int:
    """Write payload as indented JSON, streamed by jsonio.dump, and a newline."""
    jsonio.dump(payload, sys.stdout.write)
    sys.stdout.write("\n")
    sys.stdout.flush()  # a closed pipe shows up here or in a write, inside main
    print(summary, file=sys.stderr)
    return 0


# -- subcommands ---------------------------------------------------------------

def cmd_hrep(args, poset) -> int:
    t, header = _resolve_parameter(args, poset)
    if "partition" in header:
        part = family.partition_of_parameter(poset, t)
        h = family.hrep_chain_order(poset, part, projected=args.projected)
    else:
        h = family.hrep_general(poset, t, projected=args.projected)
    if args.irredundant:
        h = family.eliminate_redundancy(h)
    payload = {"command": "hrep", **header, "hrep": jsonio.hrep_to_json(h)}
    return _emit(payload, f"hrep: {len(h.int_equations)} equations, "
                          f"{len(h.int_inequalities)} inequalities")


def cmd_vertices(args, poset) -> int:
    t, header = _resolve_parameter(args, poset)
    if args.method == "tropical":  # builds the H-rep at t itself, for its check
        from . import tropical
        v = tropical.generic_vrep(poset, t)
    elif args.method == "bruteforce":
        from .geometry import vertices_bruteforce
        v = vertices_bruteforce(family.hrep_general(poset, t, projected=True))
    else:
        v = vertices(family.hrep_general(poset, t, projected=True))
    payload = {"command": "vertices", **header, "method": args.method,
               **jsonio.vrep_to_json(v)}
    return _emit(payload, f"vertices: {len(v.rows)}, rays: {len(v.rays)}")


def cmd_fvector(args, poset) -> int:
    t, header = _resolve_parameter(args, poset)
    h = family.hrep_general(poset, t, projected=True)
    v = vertices(h)
    f = face_counts(h, v)
    # a polytope with one vertex is a point; otherwise f lists dims 0 .. dim - 1
    payload = {"command": "fvector", **header, "f_vector": list(f),
               "dim": len(f) if len(v.rows) > 1 else 0}
    return _emit(payload, f"f-vector: {f}")


def cmd_ehrhart(args, poset) -> int:
    from . import lattice
    t, header = _resolve_parameter(args, poset)
    data = lattice.ehrhart_at(poset, t, args.dilations)
    payload = {"command": "ehrhart", **header,
               "counts": [list(c) for c in data.counts],
               "coefficients": [rat_str(c) for c in data.coefficients]}
    return _emit(payload, f"ehrhart: {len(data.counts)} counts (dilations "
                          f"0..{data.counts[-1][0]}), degree {len(data.coefficients) - 1}")


def cmd_lattice_points(args, poset) -> int:
    from . import lattice
    t, header = _resolve_parameter(args, poset)
    h = family.hrep_general(poset, t, projected=False)
    # each point comes out of the search as its JSON row; "points" is a
    # value of the top-level object, so its rows sit at depth 1
    pts = lattice.lattice_points(h, jsonio.row_pieces(1, len(h.coords)))
    payload = {"command": "lattice-points", **header, "coords": list(h.coords),
               "points": jsonio.TextRows(1, pts)}
    return _emit(payload, f"lattice points: {len(pts)}")


def cmd_subdivision(args, poset) -> int:
    """The tropical subdivision's cells, each rendered to its text row of
    "cells" as its block is written, with the fields in sorted-key order,
    and its vertices.  The text of each distinct vertex (cells share their
    vertex tuples, deduplicated by id) and of each distinct covector is
    built once."""
    from . import tropical
    if args.off:
        tropical.off_dimension(poset)  # refuses before any cell is computed
    cells = tropical.tropical_subdivision(poset)
    string = jsonio._string

    def row(depth, texts):
        start, sep, close = jsonio.row_pieces(depth, len(texts))
        return start + sep.join(texts) + close

    # "cells" is a value of the top-level object, so a cell sits at depth 2,
    # its fields' lists at depth 3 and their rows at depth 4
    shared = {id(p): p for c in cells for p in c.vertices}
    vertex = {key: row(3, [string(rat_str(x)) for x in p]) for key, p in shared.items()}
    origin = row(2, [string("tropical")])
    covectors = {}

    def covector(cov):
        if not cov:
            return "{}"
        return "{\n        " + ",\n        ".join(
            f"{string(r)}: {row(3, list(map(string, m)))}" for r, m in sorted(cov)) + "\n      }"

    def render(c):
        cov = covectors.get(c.covector)
        if cov is None:
            cov = covectors[c.covector] = covector(c.covector)
        return (f'{{\n      "covector": {cov},\n      "dim": {c.dim},'
                f'\n      "origin": {origin},'
                f'\n      "tight": {row(2, list(map(str, sorted(c.tight))))},'
                f'\n      "vertices": {row(2, [vertex[id(p)] for p in c.vertices])}\n    }}')

    sub_vertices = sorted(set(shared.values()))
    payload = {"command": "subdivision", "kind": "tropical",
               "cells": jsonio.TextRows(1, cells, render),
               "vertices": [[rat_str(x) for x in p] for p in sub_vertices]}
    if args.off:  # the text first, so that a refused export leaves the file alone
        off = tropical.export_off(poset, cells)
        try:
            with open(args.off, "w", encoding="utf-8") as fh:
                fh.write(off)
        except OSError as exc:
            raise InputError(f"cannot write {args.off}: {exc}") from exc
    return _emit(payload, f"tropical subdivision: {len(cells)} cells, "
                          f"{len(sub_vertices)} vertices")


def cmd_degenerate(args, poset) -> int:
    from . import degeneration as dg
    u = jsonio.parameter_from_json(_load_json(args.from_t), poset)
    u2 = jsonio.parameter_from_json(_load_json(args.to_t), poset)
    pair = dg.DegenerationPair(u, u2)
    fmap = dg.degeneration_map(poset, pair)
    dom = dg.fvector_domination(pair, fmap.source, fmap.target)
    checks = {"surjective": fmap.is_surjective(),
              "order_preserving": fmap.is_order_preserving(),
              "dims_nondecreasing": fmap.dims_nondecreasing()}
    payload = {"command": "degenerate",
               "from": jsonio.parameter_to_json(u)["t"],
               "to": jsonio.parameter_to_json(u2)["t"],
               "face_map": fmap.as_index_pairs(),
               **checks,
               "f_vector_domination": dom}
    ok = all(checks.values()) and dom["pass"]
    return _emit(payload, f"degeneration map: {'PASS' if ok else 'FAIL'}")


def _sweep(fn, items, label, key=None) -> tuple[list, list]:
    """fn over every item: (results, errors).  A kernel error on one item
    becomes an error entry {**label(item), "error": ...} instead of ending the
    sweep, so that it can emit a partial report.  With key, the items of one
    key(item) run one after another, groups in the order of their first
    item, so that they can share what they build; the results and errors
    keep the items' order."""
    items = list(items)
    groups: dict = {}
    for i, item in enumerate(items):
        groups.setdefault(i if key is None else key(item), []).append(i)
    outcome = [None] * len(items)
    for i in itertools.chain.from_iterable(groups.values()):
        try:
            outcome[i] = True, fn(items[i])
        except GeometryError as exc:
            outcome[i] = False, {**label(items[i]), "error": f"{type(exc).__name__}: {exc}"}
    return [v for ok, v in outcome if ok], [v for ok, v in outcome if not ok]


# Each sweep returns (report, errors); cmd_sweep fails a report with errors.

def _sweep_ehrhart(poset):
    from . import lattice
    corners = [(t, family.partition_of_parameter(poset, t))
               for t in family.hypercube_vertices(poset)]

    def one(corner):
        t, part = corner
        data = lattice.ehrhart_at(poset, t)
        return {"C": sorted(part.C), "coefficients": [rat_str(c) for c in data.coefficients]}

    rows, errors = _sweep(one, corners, lambda corner: {"C": sorted(corner[1].C)})
    polys = {tuple(r["coefficients"]) for r in rows}
    return {"check": "ehrhart", "pass": len(polys) == 1, "polynomials": rows}, errors


def _sweep_types(poset):
    from . import degeneration as dg
    faces = [{}] + [{p: Fraction(v)} for p in sorted(poset.unmarked) for v in (0, 1)]
    samples = {}  # H-rep -> _type_sample, shared by the samples of every face
    reports, errors = _sweep(
        lambda f: dg.combinatorial_type_sweep(poset, f, samples), faces,
        lambda f: {"face": {k: rat_str(v) for k, v in sorted(f.items())}})
    return {"check": "types", "pass": bool(reports) and all(r["pass"] for r in reports),
            "faces": reports}, errors


def _sweep_domination(poset):
    from . import degeneration as dg
    t = family.generic_parameter(poset)
    source = family.hrep_general(poset, t)
    # the corners of one H-rep run together; the memo holds the source and the
    # target being mapped, and a failure is not cached, so each corner reports it
    polytope = functools.lru_cache(maxsize=2)(dg._polytope)

    def one(corner):
        u, h = corner
        pair = dg.DegenerationPair(t, u)
        fmap = dg._face_map(poset, pair, polytope, (source, h))
        rep = dg.fvector_domination(pair, fmap.source, fmap.target)
        rep["map_ok"] = (fmap.is_surjective() and fmap.is_order_preserving()
                         and fmap.dims_nondecreasing())
        return rep

    corners = [(u, family.hrep_general(poset, u)) for u in family.hypercube_vertices(poset)]
    reports, errors = _sweep(one, corners,
                             lambda corner: {"t": jsonio.parameter_to_json(corner[0])["t"]},
                             key=lambda corner: corner[1])
    return {"check": "domination", "generic_t": jsonio.parameter_to_json(t)["t"],
            "pass": bool(reports) and all(r["pass"] and r["map_ok"] for r in reports),
            "targets": reports}, errors


def _sweep_hibi_li(poset):
    from . import degeneration as dg
    unmarked = sorted(poset.unmarked)
    # each partition's polytope (H-rep and DD) is built once and shared by the
    # tameness sweep and the f-vectors; each f-vector is counted on first use
    # and shared by the table and the moves; a failure is not cached, so each
    # item reports it
    polytope_of = functools.cache(lambda part: family.chain_order_polytope(poset, part))
    tame = family.is_tame(poset, polytope_of)
    fvector_of = functools.cache(lambda part: face_counts(*polytope_of(part)))

    def partition(C):
        return family.Partition(frozenset(C), frozenset(unmarked) - frozenset(C))

    def f_vector(C):
        return {"C": list(C), "f_vector": list(fvector_of(partition(C)))}

    def move(item):
        C, q = item
        return dg.hibi_li_check(poset, partition(C), partition(C + (q,)), tame=tame,
                                fvector_of=fvector_of)

    rows, table_errors = _sweep(
        f_vector, [C for k in range(len(unmarked) + 1)
                   for C in itertools.combinations(unmarked, k)],
        lambda C: {"C": list(C)})
    moves, errors = _sweep(
        move, [(C, q) for k in range(len(unmarked))
               for C in itertools.combinations(unmarked, k) for q in unmarked if q not in C],
        lambda item: {"C": list(item[0]), "moved": item[1]})
    ok = all(r["dominated"] and r.get("facet_delta_match", True) for r in moves)
    return {"check": "hibi-li", "tame": tame, "pass": ok, "f_vectors": rows,
            "moves": moves}, table_errors + errors


def _sweep_conjecture5(poset):
    from . import tropical
    t = family.generic_parameter(poset)
    return tropical.check_vertex_degeneration_conjecture(poset, t), []


SWEEPS = {"ehrhart": _sweep_ehrhart, "types": _sweep_types,
          "domination": _sweep_domination,
          "tame": lambda poset: ({"check": "tame", "pass": family.is_tame(poset)}, []),
          "hibi-li": _sweep_hibi_li, "conjecture5": _sweep_conjecture5}


def cmd_sweep(args, poset) -> int:
    if len(poset.unmarked) > family.SWEEP_CAP:
        raise TooLarge(f"sweeps are capped at {family.SWEEP_CAP} unmarked elements, "
                       f"got {len(poset.unmarked)}")
    report, errors = SWEEPS[args.check](poset)
    if errors:
        report["pass"] = False
        report["errors"] = errors
    payload = {"command": "sweep", "checked": args.check, **report}
    status = "PASS" if report["pass"] else "FAIL"
    if errors:
        _emit(payload, f"sweep {args.check}: {status} "
                       f"({len(errors)} items failed to compute)")
        return EXIT_COMPUTE
    return _emit(payload, f"sweep {args.check}: {status}")


def cmd_regularize(args, poset) -> int:
    result, elem_map = regularize(poset)
    payload = {"command": "regularize",
               "poset": jsonio.poset_to_json(result),
               "element_map": {k: elem_map[k] for k in sorted(elem_map)}}
    return _emit(payload, f"regularized: {len(result.elements)} elements, "
                          f"{len(result.covers)} covers")


def cmd_tame(args, poset) -> int:
    result = family.is_tame(poset)
    payload = {"command": "tame", "pass": result}
    return _emit(payload, f"tame: {'PASS' if result else 'FAIL'}")


def cmd_hibi_li(args, poset) -> int:
    from . import degeneration as dg
    part_a = jsonio.partition_from_json(_load_json(args.part_a), poset)
    part_b = jsonio.partition_from_json(_load_json(args.part_b), poset)
    report = dg.hibi_li_check(poset, part_a, part_b)
    payload = {"command": "hibi-li", **report}
    return _emit(payload, f"hibi-li dominated: {report['dominated']}")


@functools.cache  # built once per process; parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mpp",
                                 description="marked poset polyhedra toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("poset", help="poset JSON file")
        p.set_defaults(fn=fn)
        return p

    def add_param_flags(p):
        p.add_argument("--t", help="parameter JSON file, or 'generic'")
        p.add_argument("--partition", help="partition JSON file")

    p = add("hrep", cmd_hrep, help="inequality description of O_t")
    add_param_flags(p)
    p.add_argument("--irredundant", action="store_true")
    p.add_argument("--projected", action="store_true",
                   help="eliminate marked coordinates")

    p = add("vertices", cmd_vertices, help="vertex enumeration")
    add_param_flags(p)
    p.add_argument("--method", choices=("dd", "bruteforce", "tropical"),
                   default="dd")

    p = add("fvector", cmd_fvector, help="f-vector of a bounded member")
    add_param_flags(p)

    p = add("ehrhart", cmd_ehrhart, help="Ehrhart counts and polynomial")
    add_param_flags(p)
    p.add_argument("--dilations", type=int, default=None)

    p = add("lattice-points", cmd_lattice_points, help="integer points")
    add_param_flags(p)

    p = add("subdivision", cmd_subdivision, help="tropical subdivision of O(P,lambda)")
    p.add_argument("--off", help="also write the OFF 2-skeleton of the tropical "
                                 "subdivision to this path")

    p = add("degenerate", cmd_degenerate, help="degeneration face map")
    p.add_argument("--from-t", required=True, dest="from_t")
    p.add_argument("--to-t", required=True, dest="to_t")

    p = add("sweep", cmd_sweep, help="family-wide checks")
    p.add_argument("--check", required=True, choices=SWEEPS)

    add("regularize", cmd_regularize, help="contract + remove redundant covers")
    add("tame", cmd_tame, help="tameness sweep")

    p = add("hibi-li", cmd_hibi_li, help="compare two chain-order polytopes")
    p.add_argument("--part-a", required=True, dest="part_a")
    p.add_argument("--part-b", required=True, dest="part_b")
    ap.commands = sub.choices  # by name, the parsers that ap hands a command's arguments to
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = ap.commands.get(argv[0]) if argv else None
    args = command.parse_args(argv[1:]) if command else ap.parse_args(argv)
    try:
        return _run(args)
    except BrokenPipeError:
        # the reader closed stdout early (e.g. `mpp ... | head`): send the
        # rest of the output, and the exit-time flush, to devnull and stop
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(args) -> int:
    try:
        return args.fn(args, _load_poset(args.poset))
    except (InputError, jsonio.SchemaError, PosetError, ValueError) as exc:
        return _fail(exc, "input", EXIT_INPUT)
    except (GeometryError, AssertionError) as exc:
        return _fail(exc, "computation", EXIT_COMPUTE)


def _fail(exc, kind: str, code: int) -> int:
    print(json.dumps({"error": str(exc), "kind": kind}), file=sys.stdout, flush=True)
    print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
