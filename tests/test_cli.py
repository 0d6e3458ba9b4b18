import importlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
import types
from fractions import Fraction

import pytest

from conftest import (make_chain_poset, make_double_star, make_ex52, make_ex52_rational,
                      make_grid, make_pinned_branch, random_hrep)
from mpp import family, lattice, tropical
from mpp.cli import _emit, main
from mpp.family import Parameter, hrep_general, zero_parameter
from mpp.jsonio import encode, jsonable, poset_from_json, poset_to_json
from mpp.lattice import lattice_points
from mpp.poset import MarkedPoset, is_regular
from mpp.rationals import rat_str

EX52 = {"elements": ["0", "2", "3", "4", "p", "q", "r"],
        "covers": [["0", "p"], ["0", "q"], ["p", "r"], ["q", "r"],
                   ["2", "r"], ["r", "4"], ["p", "3"], ["q", "3"]],
        "marking": {"0": "0", "2": "2", "3": "3", "4": "4"}}

CHAIN = {"elements": ["a", "p", "q", "b"],
         "covers": [["a", "p"], ["p", "q"], ["q", "b"]],
         "marking": {"a": "0", "b": "2"}}


@pytest.fixture
def ex52_file(tmp_path):
    path = tmp_path / "ex52.json"
    path.write_text(json.dumps(EX52))
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN))
    return str(path)


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "mpp.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc


def test_hrep_chain_tagged(ex52_file):
    proc = run_cli("hrep", ex52_file, "--t", "generic")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    origins = {tuple(row["origin"]) for row in data["hrep"]["inequalities"]}
    assert ("chain", "0", "p", "r") in origins
    assert "t" in data  # generic parameter recorded for reproducibility


def test_hrep_partition_irredundant(ex52_file, tmp_path):
    co = tmp_path / "co.json"
    co.write_text(json.dumps({"C": ["p", "q", "r"], "O": []}))
    proc = run_cli("hrep", ex52_file, "--partition", str(co), "--irredundant")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert len(data["hrep"]["inequalities"]) == 8


def test_invalid_marking_exit_2(tmp_path):
    bad = dict(EX52, marking={"0": "5", "2": "2", "3": "3", "4": "4"})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    proc = run_cli("hrep", str(path))
    assert proc.returncode == 2
    assert "order-preserving" in proc.stderr


@pytest.mark.parametrize("marking, message", [
    ({"a": "1/2", "b": "1/3"}, "marking not order-preserving: a < b"),
    ({"a": "\u0661", "b": "2"}, "not a rational literal"),  # an Arabic-Indic one
], ids=["rational-not-order-preserving", "non-ascii-digit"])
def test_bad_rational_marking_exit_2(tmp_path, capsys, marking, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": ["a", "b"], "covers": [["a", "b"]],
                                "marking": marking}))
    assert main(["vertices", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_vertices_methods_agree(ex52_file):
    results = {}
    for method in ("dd", "tropical"):
        proc = run_cli("vertices", ex52_file, "--t", "generic", "--method", method)
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        results[method] = {tuple(v) for v in data["vertices"]}
    assert results["dd"] == results["tropical"]
    assert len(results["dd"]) == 14


def test_vertices_default_order_polytope(ex52_file):
    proc = run_cli("vertices", ex52_file)
    data = json.loads(proc.stdout)
    assert len(data["vertices"]) == 11


def test_fvector(ex52_file):
    proc = run_cli("fvector", ex52_file)
    data = json.loads(proc.stdout)
    assert data["f_vector"] == [11, 17, 8]


def test_ehrhart_chain_poset(chain_file):
    proc = run_cli("ehrhart", chain_file, "--dilations", "4")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["coefficients"] == ["1", "3", "2"]
    assert data["counts"] == [[0, 1], [1, 6], [2, 15], [3, 28], [4, 45]]


@pytest.mark.parametrize("dilations", ["2", "-1"])
def test_ehrhart_dilations_below_the_dimension(ex52_file, capsys, dilations):
    # ex52 is 3-dimensional: its polynomial needs the counts at dilations 0..3
    from mpp.cli import main
    assert main(["ehrhart", ex52_file, "--dilations", dilations]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "input"
    assert "dimension 3" in out["error"] and "least value accepted is 3" in out["error"]
    assert f"up to {dilations} " in out["error"]


def test_ehrhart_at_t0_is_counted_over_ideals_however_t0_is_given(ex52_file, tmp_path,
                                                                capsys, monkeypatch):
    # t = 0 by default, by a --t file of zeros and by a partition with C
    # empty: each is counted over the order ideals, with no double description
    zeros = tmp_path / "zeros.json"
    zeros.write_text(json.dumps({"t": {"p": "0", "q": "0", "r": "0"}}))
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"C": [], "O": ["p", "q", "r"]}))
    monkeypatch.setattr(lattice, "vertices", None)  # the enumeration would call it
    answers = []
    for flags in ([], ["--t", str(zeros)], ["--partition", str(empty)]):
        assert main(["ehrhart", ex52_file, *flags]) == 0
        out = json.loads(capsys.readouterr().out)
        answers.append((out["counts"], out["coefficients"]))
    assert answers == [([[0, 1], [1, 41], [2, 208], [3, 594]],
                        ["1", "43/6", "35/2", "46/3"])] * 3


def test_ehrhart_names_a_non_integral_vertex_in_rationals(tmp_path, capsys):
    # a < p < b marked 0 and 1/2: O_0 is the segment from (0, 0, 0) to (0, 0, 1/2)
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"elements": ["a", "p", "b"], "covers": [["a", "p"], ["p", "b"]],
                                "marking": {"a": "0", "b": "1/2"}}))
    assert main(["ehrhart", str(path)]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": "non-integral vertex (0, 0, 1/2)",
                                        "kind": "computation"}
    assert "non-integral vertex (0, 0, 1/2)" in captured.err


def test_lattice_points(chain_file):
    proc = run_cli("lattice-points", chain_file)
    data = json.loads(proc.stdout)
    assert len(data["points"]) == 6


@pytest.mark.parametrize("t", ["0", "1"])
def test_lattice_points_grid2x3_order_polynomial(tmp_path, t):
    # Stanley: the order polytope of the 2x3 grid (bottom 0, top 5) has
    # Omega(P, 5) = 371 lattice points, and so does every hypercube vertex
    poset = poset_to_json(make_grid(2, 3))
    path = tmp_path / "grid2x3.json"
    path.write_text(json.dumps(poset))
    param = tmp_path / "t.json"
    param.write_text(json.dumps({"t": {e: t for e in poset["elements"]
                                       if e not in poset["marking"]}}))
    proc = run_cli("lattice-points", str(path), "--t", str(param))
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert len(data["points"]) == 371
    assert data["points"] == sorted(data["points"])


def test_emit_bytes_match_a_jsonable_walk(capsys):
    payload = {"b": [Fraction(1, 2), (Fraction(3), ("x", (Fraction(-2, 3),)))],
               "a": {"z": frozenset({Fraction(10), Fraction(9)}),
                     "y": frozenset({("p", "q"), ("a",)}), "x": None},
               "c": [True, 1, "s", [], {}]}
    assert _emit(payload, "summary") == 0
    old = io.StringIO()
    json.dump(jsonable(payload), old, indent=2, sort_keys=True)
    assert capsys.readouterr().out == old.getvalue() + "\n"


def test_subdivision_with_off(ex52_file, tmp_path):
    off = tmp_path / "sub.off"
    proc = run_cli("subdivision", ex52_file, "--off", str(off))
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert len(data["vertices"]) == 14
    assert off.read_text().startswith("OFF")


def dict_per_cell_payload(cells) -> dict:
    """The subdivision payload with one dict per cell, for the generic
    writer: the rendering oracle of cmd_subdivision's text rows."""
    shared = {id(p): p for c in cells for p in c.vertices}
    text = {key: [rat_str(x) for x in p] for key, p in shared.items()}
    return {"command": "subdivision", "kind": "tropical",
            "cells": [{"vertices": [text[id(p)] for p in c.vertices],
                       "dim": c.dim,
                       "covector": {r: list(m) for r, m in c.covector},
                       "tight": sorted(c.tight),
                       "origin": list(c.origin)} for c in cells],
            "vertices": [[rat_str(x) for x in p] for p in sorted(set(shared.values()))]}


def escaped_ex52() -> MarkedPoset:
    """ex52 with element names that JSON escapes: a quote, a backslash, a
    non-ASCII letter and a tab, in the hyperplane's name and its terms."""
    names = {"p": 'p"', "q": "q\\", "r": "r\té", "2": "é2"}
    poset = make_ex52()
    return MarkedPoset(tuple(names.get(e, e) for e in poset.elements),
                       frozenset((names.get(a, a), names.get(b, b)) for a, b in poset.covers),
                       {names.get(e, e): x for e, x in poset.marking.items()})


@pytest.mark.parametrize("make", [make_ex52, make_double_star, lambda: make_grid(2, 3),
                                  lambda: make_grid(3, 3), make_ex52_rational,
                                  make_chain_poset, escaped_ex52],
                         ids=["ex52", "dstar", "grid2x3", "grid3x3", "ex52-rational",
                              "chain", "escaped"])
def test_subdivision_text_rows_equal_the_dict_per_cell_payload(make, tmp_path, capsys):
    poset = make()
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(poset_to_json(poset)))
    assert main(["subdivision", str(path)]) == 0
    cells = tropical.tropical_subdivision(poset)
    out = capsys.readouterr().out
    assert out == encode(dict_per_cell_payload(cells)) + "\n"
    if make is make_chain_poset:  # no hyperplane: one maximal cell, its faces
        assert {c.covector for c in cells} == {()} and '"covector": {},' in out
    if make is escaped_ex52:
        assert '"r\\t\\u00e9": [' in out and '"p\\"",' in out


def test_subdivision_has_no_ideal_chain_option(ex52_file, capsys):
    # the ideal-chain cells are the library's (mpp.ideal_chain_cells) only
    with pytest.raises(SystemExit) as exit_:
        main(["subdivision", ex52_file, "--ideal-chains"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --ideal-chains" in capsys.readouterr().err


def test_refused_off_export_keeps_the_existing_file(tmp_path, monkeypatch, capsys):
    # the double star has 5 unmarked elements, beyond what OFF can draw: the
    # refusal comes before the base polytope, or any cell, is computed
    base_runs = []
    base_data = tropical._base_data
    monkeypatch.setattr(tropical, "_base_data",
                        lambda poset: base_runs.append(1) or base_data(poset))
    poset = tmp_path / "dstar.json"
    poset.write_text(json.dumps(poset_to_json(make_double_star())))
    off = tmp_path / "old.off"
    off.write_text("OFF\n0 0 0\n")
    assert main(["subdivision", str(poset), "--off", str(off)]) == 2
    assert off.read_text() == "OFF\n0 0 0\n"
    assert json.loads(capsys.readouterr().out) == {
        "error": "OFF export supports ambient dimension <= 3", "kind": "input"}
    assert base_runs == []


def test_degenerate(ex52_file, tmp_path):
    t1 = tmp_path / "t1.json"
    t1.write_text(json.dumps({"t": {"p": "1/2", "q": "1/2", "r": "1/2"}}))
    t2 = tmp_path / "t2.json"
    t2.write_text(json.dumps({"t": {"p": "0", "q": "1", "r": "0"}}))
    proc = run_cli("degenerate", ex52_file, "--from-t", str(t1), "--to-t", str(t2))
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["surjective"] and data["order_preserving"]
    assert data["f_vector_domination"]["pass"]


def test_sweep_ehrhart(ex52_file):
    proc = run_cli("sweep", ex52_file, "--check", "ehrhart")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["pass"]
    assert len(data["polynomials"]) == 8


def test_sweep_tame(ex52_file):
    proc = run_cli("sweep", ex52_file, "--check", "tame")
    assert json.loads(proc.stdout)["pass"]


def test_sweep_is_deterministic(ex52_file, tmp_path):
    # the transfer certificate keeps its vertices and facets in dicts and
    # sets; no answer may follow the string hash seed
    dstar = tmp_path / "dstar.json"
    dstar.write_text(json.dumps(poset_to_json(make_double_star())))
    for path in (ex52_file, str(dstar)):
        a, b = (run_cli("sweep", path, "--check", "ehrhart",
                        env_extra={"PYTHONHASHSEED": seed}) for seed in ("0", "1"))
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout and json.loads(a.stdout)["pass"]


def test_sweep_with_the_opposite_corners_map_exits_3(ex52_file, monkeypatch, capsys):
    # a certificate that fails is a computation error of the whole sweep,
    # never a corner counted instead
    transfer = tropical.transfer_theta_homogeneous
    monkeypatch.setattr(tropical, "transfer_theta_homogeneous", lambda poset, t, t2: transfer(
        poset, t, Parameter({p: 1 - v for p, v in t2.values.items()})))
    monkeypatch.setattr(lattice, "ehrhart", None)  # any call fails
    assert main(["sweep", ex52_file, "--check", "ehrhart"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out == {"error": "phi_t maps a vertex of the tropical subdivision of O_0 outside "
                            "O_t at t: p = 0, q = 0, r = 1", "kind": "computation"}


def test_sweep_of_a_lower_dimensional_o_0_counts_its_corners(tmp_path, capsys):
    # x_p is pinned to 1: O_0 is a segment in R^{p, q} and has no
    # certificate, so the corners are enumerated, as they were before it
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(poset_to_json(make_pinned_branch())))
    assert main(["sweep", str(path), "--check", "ehrhart"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] and data["polynomials"] == [
        {"C": C, "coefficients": ["1", "2"]} for C in ([], ["q"], ["p"], ["p", "q"])]


def test_ehrhart_at_a_certified_corner_passes_the_box_gate(tmp_path, capsys):
    # grid3x3 at C = {x01, x11}: its box at dilation 7 is past BOX_GATE, and
    # the certified corner is counted over the order ideals
    grid = make_grid(3, 3)
    path, part = tmp_path / "grid3x3.json", tmp_path / "part.json"
    path.write_text(json.dumps(poset_to_json(grid)))
    part.write_text(json.dumps({"C": ["x01", "x11"],
                                "O": ["x02", "x10", "x12", "x20", "x21"]}))
    assert main(["ehrhart", str(path), "--partition", str(part)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["counts"] == [list(c) for c in lattice.ideal_ehrhart(grid).counts]
    assert out["counts"][1] == [1, 17472]


def test_sweep_conjecture5(ex52_file):
    proc = run_cli("sweep", ex52_file, "--check", "conjecture5")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"]


def test_sweep_types(chain_file):
    proc = run_cli("sweep", chain_file, "--check", "types")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["pass"] and len(data["faces"]) == 5  # open cube + 2 coords x {0,1}


def test_sweep_domination(chain_file):
    proc = run_cli("sweep", chain_file, "--check", "domination")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["pass"] and len(data["targets"]) == 4


def test_sweep_hibi_li(chain_file):
    proc = run_cli("sweep", chain_file, "--check", "hibi-li")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["pass"] and data["tame"]
    assert len(data["f_vectors"]) == 4


def test_regularize_idempotent_and_valid(tmp_path):
    poset = {"elements": ["a", "p", "b", "t"],
             "covers": [["a", "p"], ["p", "b"], ["b", "t"]],
             "marking": {"a": "1", "b": "1", "t": "2"}}
    path = tmp_path / "ci.json"
    path.write_text(json.dumps(poset))
    proc = run_cli("regularize", str(path))
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["element_map"]["p"] == "a"
    out_path = tmp_path / "out.json"
    out_path.write_text(json.dumps(data["poset"]))
    proc2 = run_cli("regularize", str(out_path))
    data2 = json.loads(proc2.stdout)
    assert data2["poset"] == data["poset"]
    # output must be consumable by other subcommands
    proc3 = run_cli("vertices", str(out_path))
    assert proc3.returncode == 0


def test_regularize_contracts_and_drops_redundant_covers(tmp_path, capsys):
    # the constant interval b < c (both marked 1) contracts to b; then p < q
    # (witnessed by a <= q, p <= b, lambda(a) >= lambda(b)) and b < t are
    # redundant and go
    poset = {"elements": ["z", "p", "b", "c", "a", "q", "t"],
             "covers": [["z", "p"], ["p", "b"], ["b", "c"], ["c", "t"], ["p", "q"],
                        ["a", "q"], ["q", "t"]],
             "marking": {"z": "0", "b": "1", "c": "1", "a": "1", "t": "2"}}
    path = tmp_path / "redundant.json"
    path.write_text(json.dumps(poset))
    assert main(["regularize", str(path)]) == 0
    out, err = capsys.readouterr()
    data = json.loads(out)
    assert data["element_map"] == {"a": "a", "b": "b", "c": "b", "p": "p", "q": "q",
                                   "t": "t", "z": "z"}
    assert data["poset"] == {"elements": ["z", "p", "b", "a", "q", "t"],
                             "covers": [["a", "q"], ["p", "b"], ["q", "t"], ["z", "p"]],
                             "marking": {"a": "1", "b": "1", "t": "2", "z": "0"}}
    assert err == "regularized: 6 elements, 4 covers\n"
    assert is_regular(poset_from_json(data["poset"]))


def test_sweep_with_failed_items_reports_them_and_exits_3(tmp_path, capsys):
    # ex52 with a rational marking: no corner polytope has lattice vertices,
    # so each of the 8 Ehrhart items fails, and the partial report says so
    path = tmp_path / "ex52q.json"
    path.write_text(json.dumps(poset_to_json(make_ex52_rational())))
    assert main(["sweep", str(path), "--check", "ehrhart"]) == 3
    out, err = capsys.readouterr()
    data = json.loads(out)
    assert data["pass"] is False and data["polynomials"] == []
    assert len(data["errors"]) == 8
    assert all(e["error"].startswith("NonLatticeVertices: ") for e in data["errors"])
    assert sorted(map(tuple, (e["C"] for e in data["errors"]))) == sorted(
        tuple(sorted(c)) for k in range(4) for c in itertools.combinations("pqr", k))
    assert err == "sweep ehrhart: FAIL (8 items failed to compute)\n"


def test_tame_command(ex52_file):
    proc = run_cli("tame", ex52_file)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"]


def test_hibi_li_command(ex52_file, tmp_path):
    pa = tmp_path / "a.json"
    pa.write_text(json.dumps({"C": [], "O": ["p", "q", "r"]}))
    pb = tmp_path / "b.json"
    pb.write_text(json.dumps({"C": ["p", "q", "r"], "O": []}))
    proc = run_cli("hibi-li", ex52_file, "--part-a", str(pa), "--part-b", str(pb))
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["dominated"]


def test_byte_identical_reruns(ex52_file):
    a = run_cli("vertices", ex52_file, "--t", "generic")
    b = run_cli("vertices", ex52_file, "--t", "generic")
    assert a.stdout == b.stdout


def test_missing_file_exit_2():
    proc = run_cli("vertices", "/nonexistent/poset.json")
    assert proc.returncode == 2
    out = json.loads(proc.stdout)
    assert out["kind"] == "input"
    assert out["error"].startswith("cannot read /nonexistent/poset.json: ")


def test_t_and_partition_mutually_exclusive(ex52_file, tmp_path):
    co = tmp_path / "co.json"
    co.write_text(json.dumps({"C": ["p", "q", "r"], "O": []}))
    proc = run_cli("vertices", ex52_file, "--t", "generic",
                   "--partition", str(co))
    assert proc.returncode == 2
    assert "mutually exclusive" in proc.stderr
    assert json.loads(proc.stdout) == {"error": "--t and --partition are mutually exclusive",
                                       "kind": "input"}


def test_computation_error_exit_3(tmp_path):
    # unbounded polyhedron: f-vector computation must fail with exit 3
    poset = {"elements": ["a", "p"], "covers": [["a", "p"]], "marking": {"a": "0"}}
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(poset))
    proc = run_cli("fvector", str(path))
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["kind"] == "computation"


def test_sweep_partial_report_exit_3(tmp_path):
    # unbounded members make per-item kernel failures: exit 3, partial report
    poset = {"elements": ["a", "p"], "covers": [["a", "p"]], "marking": {"a": "0"}}
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(poset))
    proc = run_cli("sweep", str(path), "--check", "ehrhart")
    assert proc.returncode == 3
    data = json.loads(proc.stdout)
    assert data["checked"] == "ehrhart" and not data["pass"]
    assert len(data["errors"]) == 2  # both partitions unbounded
    assert data["polynomials"] == []


def test_domination_sweep_reports_a_failed_target_for_each_corner_of_its_hrep(
        ex52_file, monkeypatch, capsys):
    # ex52's corners have two H-reps, by t_r; a DD failure on the one with
    # r = 1 is an error entry for each of its four corners, in the corners'
    # order, and the other four report as without the failure
    from conftest import make_ex52
    from mpp import degeneration
    from mpp.geometry import TooLarge

    assert main(["sweep", ex52_file, "--check", "domination"]) == 0
    full = json.loads(capsys.readouterr().out)
    corner = family.Parameter({"p": Fraction(0), "q": Fraction(0), "r": Fraction(1)})
    bad = hrep_general(make_ex52(), corner)
    honest = degeneration._polytope
    tried = []

    def failing(h):
        if h == bad:
            tried.append(h)
            raise TooLarge("double description refused")
        return honest(h)

    monkeypatch.setattr(degeneration, "_polytope", failing)
    assert main(["sweep", ex52_file, "--check", "domination"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert not data["pass"] and len(tried) == 4
    assert data["errors"] == [{"t": r["target_t"], "error": "TooLarge: double description refused"}
                              for r in full["targets"] if r["target_t"]["r"] == "1"]
    assert data["targets"] == [r for r in full["targets"] if r["target_t"]["r"] == "0"]


def test_main_in_process_parses_each_call(ex52_file, capsys):
    # the parser is built once per process; each call must parse on its own
    from mpp.cli import main
    assert main(["vertices", ex52_file, "--method", "bruteforce"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["hrep", ex52_file, "--irredundant"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert main(["vertices", ex52_file]) == 0
    third = json.loads(capsys.readouterr().out)
    assert first["method"] == "bruteforce" and third["method"] == "dd"
    assert third["vertices"] == first["vertices"]
    assert second["command"] == "hrep" and "method" not in second


# a representative argv of every subcommand, with each of its options
DISPATCH_ARGVS = [
    ["hrep", "p.json", "--t", "generic", "--irredundant", "--projected"],
    ["hrep", "p.json", "--partition", "c.json"],
    ["vertices", "p.json"],
    ["vertices", "p.json", "--t", "t.json", "--method", "tropical"],
    ["fvector", "p.json", "--partition", "c.json"],
    ["ehrhart", "p.json", "--t", "generic", "--dilations", "4"],
    ["lattice-points", "p.json", "--t", "t.json"],
    ["subdivision", "p.json", "--off", "out.off"],
    ["degenerate", "p.json", "--from-t", "a.json", "--to-t", "b.json"],
    ["sweep", "p.json", "--check", "hibi-li"],
    ["regularize", "p.json"],
    ["tame", "p.json"],
    ["hibi-li", "p.json", "--part-a", "a.json", "--part-b", "b.json"],
]


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=[" ".join(a) for a in DISPATCH_ARGVS])
def test_main_parses_with_the_command_parser(argv, monkeypatch):
    # main hands argv[1:] to the command's own parser: the namespace is the
    # top-level parser's less the command name
    from mpp import cli
    seen = []
    monkeypatch.setattr(cli, "_run", lambda args: seen.append(args) or 0)
    assert cli.main(argv) == 0
    expected = vars(cli.build_parser().parse_args(argv))
    assert expected.pop("cmd") == argv[0]
    assert vars(seen[0]) == expected


def test_dispatch_argvs_cover_every_command():
    from mpp.cli import build_parser
    assert {argv[0] for argv in DISPATCH_ARGVS} == set(build_parser().commands)


@pytest.mark.parametrize("argv,code,stream,text", [
    (["vertices", "{poset}", "--bogus"], 2, "err",
     "mpp vertices: error: unrecognized arguments: --bogus"),
    (["nosuch", "{poset}"], 2, "err", "invalid choice: 'nosuch'"),
    ([], 2, "err", "the following arguments are required: cmd"),
    (["vertices"], 2, "err", "mpp vertices: error: the following arguments are required: poset"),
    (["-h"], 0, "out", "usage: mpp [-h]"),
    (["vertices", "-h"], 0, "out", "usage: mpp vertices [-h]"),
])
def test_argument_errors_and_help(argv, code, stream, text, ex52_file, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([a.format(poset=ex52_file) for a in argv])
    assert exit_.value.code == code
    captured = capsys.readouterr()
    assert text in getattr(captured, stream)
    if argv[:1] == ["vertices"] and code:
        # the command's own usage line
        assert captured.err.startswith("usage: mpp vertices [-h]")


def test_closed_stdout_exits_quietly(ex52_file):
    # the reader goes away before anything is written, as `mpp ... | head` can
    proc = subprocess.Popen([sys.executable, "-m", "mpp.cli", "vertices", ex52_file],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


@pytest.fixture
def grid2x4_file(tmp_path):
    path = tmp_path / "grid2x4.json"
    path.write_text(json.dumps(poset_to_json(make_grid(2, 4))))
    return str(path)


def test_reader_closing_mid_stream_exits_quietly(grid2x4_file):
    # grid2x4's 5,040 lattice points are about 424 KB of JSON, more than a pipe
    # holds: the reader takes the first bytes and goes away while the CLI is
    # still writing
    proc = subprocess.Popen([sys.executable, "-m", "mpp.cli", "lattice-points",
                             grid2x4_file],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.read(100).startswith("{")
    proc.stdout.close()
    assert proc.stderr.read() == ""
    assert proc.wait() == 1


class RecordingStdout:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_emit_streams_the_text_in_chunks(monkeypatch):
    poset = make_grid(2, 4)
    h = hrep_general(poset, zero_parameter(poset), projected=False)
    payload = {"command": "lattice-points", "coords": list(h.coords),
               "points": lattice_points(h)}
    text = encode(payload)
    assert len(text) > 400_000
    out = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert _emit(payload, "summary") == 0
    assert "".join(out.writes) == text + "\n"
    assert len(out.writes) > 1
    assert max(map(len, out.writes)) < len(text)


def test_lattice_points_streams_its_rows(grid2x4_file, monkeypatch):
    out = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["lattice-points", grid2x4_file]) == 0
    text = "".join(out.writes)
    assert len(text) > 400_000 and len(json.loads(text)["points"]) == 5040
    assert len(out.writes) > 1
    assert max(map(len, out.writes)) < len(text)


# -- lattice-points: rows rendered by the search, byte for byte the tuple rows -

def _assert_rows_match_tuple_rows(argv, capsys, monkeypatch, h=None):
    """Run lattice-points on argv, building the H-rep as the CLI does unless
    h is given, and compare its stdout with the text of the tuple payload."""
    built = []

    def build(*args, **kwargs):
        built.append(hrep_general(*args, **kwargs) if h is None else h)
        return built[-1]

    monkeypatch.setattr(family, "hrep_general", build)
    assert main(["lattice-points", *argv]) == 0
    out = capsys.readouterr().out
    [hrep] = built
    header = {k: v for k, v in json.loads(out).items() if k in ("t", "partition")}
    payload = {"command": "lattice-points", **header, "coords": list(hrep.coords),
               "points": lattice_points(hrep)}
    # encode, and the json module as a reference independent of jsonio's row
    # templates
    assert out == encode(payload) + "\n"
    assert out == json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"
    return json.loads(out)["points"]


@pytest.mark.parametrize("seed", range(50))
def test_lattice_points_rows_on_random_polytopes(seed, chain_file, capsys, monkeypatch):
    rnd = random.Random(seed)
    h = random_hrep(rnd, rnd.randint(1, 4))
    _assert_rows_match_tuple_rows([chain_file], capsys, monkeypatch, h)


@pytest.mark.parametrize("poset,points", [
    ({"elements": [], "covers": [], "marking": {}}, [[]]),
    ({"elements": ["a", "p", "b"], "covers": [["a", "p"], ["p", "b"]],
      "marking": {"a": "1/3", "b": "2/3"}}, []),
    ({"elements": ["a"], "covers": [], "marking": {"a": "2"}}, [[2]]),
    ({"elements": ["a", "p", "b"], "covers": [["a", "p"], ["p", "b"]],
      "marking": {"a": "1", "b": "1"}}, [[1, 1, 1]]),
    (CHAIN, [[0, p, q, 2] for p in range(3) for q in range(p, 3)]),
], ids=["empty-poset", "no-lattice-point", "single-point", "all-pinned",
        "pins-at-both-ends"])
def test_lattice_points_rows_on_edge_cases(tmp_path, capsys, monkeypatch, poset, points):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(poset))
    assert _assert_rows_match_tuple_rows([str(path)], capsys, monkeypatch) == points


def test_lattice_points_rows_under_t_and_partition_headers(ex52_file, tmp_path, capsys,
                                                           monkeypatch):
    t = tmp_path / "t.json"
    t.write_text(json.dumps({"t": {"p": "1", "q": "0", "r": "1/2"}}))
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"C": ["p", "r"], "O": ["q"]}))
    for flags in (["--t", str(t)], ["--partition", str(part)], ["--t", "generic"]):
        assert _assert_rows_match_tuple_rows([ex52_file, *flags], capsys, monkeypatch)


def test_lattice_points_grid2x5_answers(tmp_path, capsys):
    # its bounding box of 8^8 candidates was refused before the search ran
    path = tmp_path / "grid2x5.json"
    path.write_text(json.dumps(poset_to_json(make_grid(2, 5))))
    assert main(["lattice-points", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["points"]) == 67320


@pytest.mark.parametrize("budget,value,counted", [
    ("POINT_BUDGET", 5000, "listed"), ("NODE_BUDGET", 162, "visited"),
    # the 85th to 168th points are a replay from the search's memo
    ("POINT_BUDGET", 167, "listed 168 points")])
def test_lattice_points_budget_writes_only_the_error(grid2x4_file, monkeypatch, budget,
                                                    value, counted):
    out = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(lattice, budget, value)
    assert main(["lattice-points", grid2x4_file]) == 3
    text = "".join(out.writes)
    assert text.count("\n") == 1
    error = json.loads(text)
    assert error["kind"] == "computation" and set(error) == {"error", "kind"}
    assert counted in error["error"] and f"budget {value}" in error["error"]


def _expect_input_error(proc):
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["kind"] == "input"
    assert "Traceback" not in proc.stderr


def test_boolean_marking_rejected(tmp_path):
    poset = dict(EX52, marking={"0": False, "2": "2", "3": "3", "4": "4"})
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(poset))
    _expect_input_error(run_cli("vertices", str(path)))


@pytest.mark.parametrize("bad", [True, 0.5])
def test_non_rational_parameter_rejected(ex52_file, tmp_path, bad):
    # a JSON boolean posing as 1, and a float, are input errors (exit 2)
    t = tmp_path / "t.json"
    t.write_text(json.dumps({"t": {"p": bad, "q": "1/2", "r": "1/2"}}))
    _expect_input_error(run_cli("vertices", ex52_file, "--t", str(t)))


def test_conjecture_cap_is_a_budget_error(tmp_path, capsys, monkeypatch):
    # a chain with 11 unmarked elements between a marked bottom and top: the
    # conjecture sweep refuses it (exit 3) before any vertex enumeration
    from mpp import geometry
    from mpp.cli import main

    names = ["bot"] + [f"u{i:02d}" for i in range(11)] + ["top"]
    poset = {"elements": names,
             "covers": [[a, b] for a, b in zip(names, names[1:])],
             "marking": {"bot": "0", "top": "12"}}
    path = tmp_path / "chain11.json"
    path.write_text(json.dumps(poset))
    dd_runs = []
    real = geometry.Cone.cut  # every DD run, from scratch or continued
    monkeypatch.setattr(geometry.Cone, "cut",
                        lambda cone, rows: dd_runs.append(rows) or real(cone, rows))
    assert main(["sweep", str(path), "--check", "conjecture5"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "computation" and "10 unmarked" in out["error"]
    assert dd_runs == []


def test_face_budget_is_a_computation_error(ex52_file, capsys, monkeypatch):
    # ex52 at t=0 has 38 faces, the empty face and the polytope included; the
    # depth-first walk passes 20 at the third facet's edges: the empty face,
    # the polytope, 8 facets and 5 + 3 + 3 edges are 21
    from mpp import geometry
    from mpp.cli import main
    monkeypatch.setattr(geometry, "FACE_GATE", 38)
    assert main(["fvector", ex52_file]) == 0
    assert json.loads(capsys.readouterr().out)["f_vector"] == [11, 17, 8]
    monkeypatch.setattr(geometry, "FACE_GATE", 20)
    assert main(["fvector", ex52_file]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "computation"
    assert "more than 20 faces (21 enumerated, the last batch at dimension 1)" in out["error"]


def test_dd_budget_refuses_the_20_cube(tmp_path, capsys):
    # a < m0..m19 < z with a = 0 and z = 1: O_0 is the 20-cube, whose 2^20
    # vertices double description refuses, by its budget, within seconds
    from mpp import geometry
    middle = [f"m{i}" for i in range(20)]
    path = tmp_path / "cube20.json"
    path.write_text(json.dumps({"elements": ["a", "z"] + middle,
                                "covers": [["a", m] for m in middle] + [[m, "z"] for m in middle],
                                "marking": {"a": "0", "z": "1"}}))
    start = time.perf_counter()
    assert main(["vertices", str(path)]) == 3
    assert time.perf_counter() - start < 5
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "computation"
    assert f"budget of {geometry.DD_BUDGET}" in out["error"]


def test_degenerate_builds_each_lattice_once(ex52_file, tmp_path, capsys, monkeypatch):
    from mpp import degeneration
    from mpp.cli import main
    t1 = tmp_path / "t1.json"
    t1.write_text(json.dumps({"t": {"p": "1/2", "q": "1/3", "r": "1/2"}}))
    t2 = tmp_path / "t2.json"
    t2.write_text(json.dumps({"t": {"p": "0", "q": "1", "r": "1/2"}}))
    built = []
    real = degeneration.face_lattice
    monkeypatch.setattr(degeneration, "face_lattice",
                        lambda h, v: built.append(h) or real(h, v))
    assert main(["degenerate", ex52_file, "--from-t", str(t1), "--to-t", str(t2)]) == 0
    data = json.loads(capsys.readouterr().out)
    # only t_r enters ex52's H-rep (p and q cover the marked 0), so the two
    # parameters share one polytope
    assert len(built) == 1
    assert data["f_vector_domination"]["pass"] and data["dims_nondecreasing"]


def test_degenerate_builds_two_lattices_when_r_differs(ex52_file, tmp_path, capsys,
                                                       monkeypatch):
    from mpp import degeneration
    from mpp.cli import main
    t1 = tmp_path / "t1.json"
    t1.write_text(json.dumps({"t": {"p": "1/2", "q": "1/3", "r": "1/2"}}))
    t2 = tmp_path / "t2.json"
    t2.write_text(json.dumps({"t": {"p": "0", "q": "1", "r": "0"}}))
    built = []
    real = degeneration.face_lattice
    monkeypatch.setattr(degeneration, "face_lattice",
                        lambda h, v: built.append(h) or real(h, v))
    assert main(["degenerate", ex52_file, "--from-t", str(t1), "--to-t", str(t2)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(built) == 2
    assert data["f_vector_domination"]["pass"] and data["dims_nondecreasing"]


def test_internal_fault_is_a_computation_error_under_O(ex52_file):
    # an internal fault is raised explicitly, so `python -O` keeps it, and it
    # is reported as a computation error, never as input: with no transferred
    # subdivision vertex, the tropical method disagrees with the kernel
    code = ("import sys\n"
            "from mpp import cli, tropical\n"
            "tropical._transferred = lambda *a: set()\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code, "vertices", ex52_file,
                           "--t", "generic", "--method", "tropical"],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    data = json.loads(proc.stdout)
    assert data["kind"] == "computation" and "disagree" in data["error"]


def test_non_antisymmetric_contraction_is_a_computation_error_under_O(tmp_path):
    # the quotient of a valid poset by its constant intervals is antisymmetric,
    # so crossing blocks, patched in here, are an internal fault and not input
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"elements": ["a", "b", "c", "d"],
                                "covers": [["a", "b"], ["b", "c"], ["c", "d"]],
                                "marking": {"a": "0", "d": "1"}}))
    code = ("import sys\n"
            "from mpp import cli, poset\n"
            "poset.constant_intervals = lambda p: [('a', 'c'), ('b', 'd')]\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code, "regularize", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    data = json.loads(proc.stdout)
    assert data["kind"] == "computation" and "non-antisymmetric" in data["error"]


def _run_fresh(code: str, *args):
    """The JSON that code prints last, run in a fresh interpreter, where
    mpp_modules() lists the mpp modules loaded so far."""
    prelude = ("import contextlib, io, json, sys\n"
               "def mpp_modules():\n"
               "    return sorted(m for m in sys.modules if m.startswith('mpp'))\n")
    proc = subprocess.run([sys.executable, "-c", prelude + code, *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_no_query_loads_the_simplex(ex52_file):
    # redundancy, tameness, the covector search and the brute-force oracle
    # run without a linear program: mpp.lp is a test-side oracle only
    queries = [["hrep", "--irredundant"], ["hrep", "--t", "generic", "--irredundant"],
               ["tame"], ["subdivision"],
               ["vertices", "--t", "generic", "--method", "tropical"],
               ["vertices", "--method", "bruteforce"]]
    code = ("from mpp import cli\n"
            "codes = []\n"
            "for argv in json.loads(sys.argv[2]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(cli.main([argv[0], sys.argv[1]] + argv[1:]))\n"
            "print(json.dumps([codes, mpp_modules()]))\n")
    codes, loaded = _run_fresh(code, ex52_file, json.dumps(queries))
    assert codes == [0] * len(queries)
    assert "mpp.lp" not in loaded


@pytest.mark.parametrize("argv, extra", [
    (["vertices"], []),
    (["vertices", "--method", "bruteforce"], []),
    (["hrep", "--irredundant"], []),
    (["fvector"], []),
    (["tame"], []),
    (["regularize"], []),
    (["lattice-points"], ["mpp.lattice"]),
    (["ehrhart"], ["mpp.lattice"]),
    (["subdivision"], ["mpp.tropical"]),
    (["degenerate", "--from-t", "t1", "--to-t", "t2"], ["mpp.degeneration"]),
    (["sweep", "--check", "types"], ["mpp.degeneration"]),
])
def test_each_query_loads_only_the_modules_it_runs(ex52_file, tmp_path, argv, extra):
    # `import mpp.cli` loads what every command reads; a query adds only
    # the modules its subcommand runs, and none of the others (mpp.lp is
    # loaded by no query at all).  Nor does anything load dataclasses or
    # inspect, which cost about as much to import as the whole CLI.
    ts = {"t1": {"p": "1/2", "q": "1/2", "r": "1/2"}, "t2": {"p": "0", "q": "1", "r": "0"}}
    for name, t in ts.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"t": t}))
    argv = [str(tmp_path / f"{a}.json") if a in ts else a for a in argv]
    code = ("def heavy():\n"
            "    return [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
            "from mpp import cli\n"
            "before, heavy_before = mpp_modules(), heavy()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = cli.main([sys.argv[1], sys.argv[2]] + sys.argv[3:])\n"
            "print(json.dumps([status, before, mpp_modules(), heavy_before, heavy()]))\n")
    status, before, after, heavy_before, heavy_after = _run_fresh(
        code, argv[0], ex52_file, *argv[1:])
    assert status == 0
    assert before == ["mpp", "mpp.cli", "mpp.family", "mpp.geometry", "mpp.jsonio",
                      "mpp.linalg", "mpp.poset", "mpp.rationals", "mpp.records"]
    assert sorted(set(after) - set(before)) == extra
    assert heavy_before == heavy_after == []


def test_bare_import_loads_no_submodule():
    assert _run_fresh("import mpp\nprint(json.dumps(mpp_modules()))") == ["mpp"]


def test_public_names_are_their_submodules_objects():
    import mpp
    namespace = {}
    exec("from mpp import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == mpp.__all__
    for name in mpp.__all__:
        obj = getattr(mpp, name)
        assert namespace[name] is obj
        if isinstance(obj, types.ModuleType):
            assert obj.__name__ == f"mpp.{name}"
        else:
            assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert set(mpp.__all__) <= set(dir(mpp))
    assert not hasattr(mpp, "no_such_name")


@pytest.mark.parametrize("check", ["ehrhart", "types", "domination", "tame",
                                   "hibi-li", "conjecture5"])
def test_sweep_cap_is_a_budget(tmp_path, monkeypatch, capsys, check):
    # 13 unmarked elements exceed the sweep budget of 12: a computation
    # error (exit 3) that names the count, raised before any DD run
    import mpp.geometry
    from mpp.cli import main

    runs = []
    dd = mpp.geometry.Cone.cut  # every DD run, from scratch or continued
    monkeypatch.setattr(mpp.geometry.Cone, "cut",
                        lambda cone, rows: runs.append(1) or dd(cone, rows))
    names = ["bot"] + [f"u{i:02d}" for i in range(13)] + ["top"]
    poset = {"elements": names, "covers": [list(c) for c in zip(names, names[1:])],
             "marking": {"bot": "0", "top": "14"}}
    path = tmp_path / "chain13.json"
    path.write_text(json.dumps(poset))
    assert main(["sweep", str(path), "--check", check]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "computation" and "got 13" in out["error"]
    assert runs == []
    # the tame command reads the same cap, from the tameness sweep itself
    assert family.SWEEP_CAP == 12
    assert main(["tame", str(path)]) == 3
    assert json.loads(capsys.readouterr().out) == {
        "error": "tameness sweep capped at 12 unmarked elements", "kind": "computation"}
    assert runs == []


# -- refusals: each names its cause in the JSON error on stdout ------------------

def _refused(capsys, argv, code: int, kind: str) -> str:
    assert main(argv) == code
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == kind and set(out) == {"error", "kind"}
    return out["error"]


def _poset(**changes):
    return dict({"elements": ["a", "p"], "covers": [["a", "p"]], "marking": {"a": "0"}},
                **changes)


@pytest.mark.parametrize("poset,message", [
    ([1, 2], "poset must be a JSON object"),
    (_poset(elements=["a", 1]), "elements must be a list of strings"),
    (_poset(covers=[["a"]]), "covers must be a list of [lower, upper] pairs"),
    (_poset(marking=["a"]), "marking must map elements to rational strings"),
    (_poset(elements=["a", "a", "p"]), "duplicate element identifiers"),
    (_poset(covers=[["a", "p"], ["p", "p"]]), "self-cover on p"),
    (_poset(covers=[["a", "x"]]), "cover (a, x) references unknown element"),
    (_poset(elements=["a", "p", "q"], covers=[["a", "p"], ["p", "q"], ["q", "p"]]),
     "invalid poset: cycle in covering relations"),
    (_poset(elements=["a", "p", "q"]), "invalid poset: unmarked minimal element q"),
])
def test_malformed_poset_is_an_input_error(tmp_path, capsys, poset, message):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(poset))
    assert _refused(capsys, ["vertices", str(path)], 2, "input") == message


def test_malformed_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert _refused(capsys, ["vertices", str(path)], 2, "input").startswith(
        f"cannot read {path}: ")


def test_non_utf8_input_is_an_input_error_naming_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"elements": ["\xe9"], "covers": [], "marking": {}}')
    message = _refused(capsys, ["vertices", str(path)], 2, "input")
    assert message.startswith(f"cannot read {path}: ") and "utf-8" in message


@pytest.mark.parametrize("target", ["dir", "missing/out.off"])
def test_unwritable_off_path_is_an_input_error(ex52_file, tmp_path, capsys, target):
    # a directory, or a file under a missing directory: exit 2 with the JSON
    # error naming the path, and nothing else on stdout
    off = tmp_path / target
    if target == "dir":
        off.mkdir()
    message = _refused(capsys, ["subdivision", ex52_file, "--off", str(off)], 2, "input")
    assert message.startswith(f"cannot write {off}: ")


@pytest.mark.parametrize("flag,data,message", [
    ("--t", {"t": ["p"]}, "t must map unmarked elements to rational strings"),
    ("--partition", {"C": "p", "O": []}, "C must be a list of element names"),
])
def test_malformed_parameter_is_an_input_error(chain_file, tmp_path, capsys, flag, data,
                                               message):
    path = tmp_path / "flag.json"
    path.write_text(json.dumps(data))
    assert _refused(capsys, ["vertices", chain_file, flag, str(path)], 2, "input") == message


@pytest.fixture
def unbounded_file(tmp_path):
    # a < p < q with only a marked: every O_t is unbounded above
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(_poset(elements=["a", "p", "q"],
                                      covers=[["a", "p"], ["p", "q"]])))
    (tmp_path / "t.json").write_text(json.dumps({"t": {"p": "0", "q": "0"}}))
    return str(path)


@pytest.mark.parametrize("argv,message", [
    (["fvector"], "face lattices are computed for polytopes only"),
    (["lattice-points"], "lattice-point scan needs a bounded polyhedron"),
    (["ehrhart"], "Ehrhart counting needs a polytope"),
    (["subdivision"], "tropical subdivision implemented for polytopes only"),
    (["degenerate", "--from-t", "{t}", "--to-t", "{t}"],
     "degeneration maps are implemented for polytopes"),
])
def test_unbounded_polyhedron_is_a_computation_error(unbounded_file, tmp_path, capsys,
                                                     argv, message):
    command, *flags = [a.format(t=tmp_path / "t.json") for a in argv]
    assert _refused(capsys, [command, unbounded_file, *flags], 3, "computation") == message


def test_unbounded_vertices_lists_its_rays(unbounded_file, capsys):
    assert main(["vertices", unbounded_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["vertices"] == [["0", "0"]] and out["rays"] == [["0", "1"], ["1", "1"]]


def test_unbounded_types_sweep_names_combinatorial_types(unbounded_file, capsys):
    # the types sweep maps no faces: each hypercube face's error names what it compares
    assert main(["sweep", unbounded_file, "--check", "types"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert not out["pass"] and out["faces"] == [] and len(out["errors"]) == 5
    assert {e["error"] for e in out["errors"]} == {
        "UnsupportedUnbounded: combinatorial types are implemented for polytopes"}


def test_point_ehrhart_answers_many_dilations(tmp_path, capsys):
    # a < p < b marked 2 and 2: every dilation holds one point
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"elements": ["a", "p", "b"],
                                "covers": [["a", "p"], ["p", "b"]],
                                "marking": {"a": "2", "b": "2"}}))
    assert main(["ehrhart", str(path), "--dilations", "20000"]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["coefficients"] == ["1"]
    assert out["counts"] == [[k, 1] for k in range(20001)]
    # the summary names the range, not every count
    assert captured.err == "ehrhart: 20001 counts (dilations 0..20000), degree 0\n"
    assert len(captured.err.encode()) < 120 and captured.err.count("\n") == 1
