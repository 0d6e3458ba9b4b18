"""The benchmark's checkers against answers known by hand.

    python3 -m pytest bench/test_oracles.py
"""

import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import oracles as O  # noqa: E402
from workloads import EX52, grid  # noqa: E402

CHAIN = {"elements": ["a", "p", "q", "b"], "covers": [["a", "p"], ["p", "q"], ["q", "b"]],
         "marking": {"a": "0", "b": "2"}}
DIAMOND = {"elements": ["bot", "p", "q", "top"],
           "covers": [["bot", "p"], ["bot", "q"], ["p", "top"], ["q", "top"]],
           "marking": {"bot": "0", "top": "2"}}


def P(data):
    return O.Poset.from_json(data)


def test_chain_by_hand():
    chain = P(CHAIN)
    assert chain.bottom_top() == 2 and chain.graded()
    assert sorted(map(sorted, O.filters(chain))) == [[], ["p", "q"], ["q"]]
    assert sorted(map(sorted, O.antichains(chain))) == [[], ["p"], ["q"]]
    assert O.corner_vertices(chain, []) == {(0, 0), (0, 2), (2, 2)}
    assert O.corner_vertices(chain, ["p", "q"]) == {(0, 0), (2, 0), (0, 2)}
    # C = {p}: 0 <= x_p <= x_q <= 2 again
    assert O.corner_vertices(chain, ["p"]) == {(0, 0), (0, 2), (2, 2)}
    assert O.corner_facets(chain, []) == 3            # three covers
    assert O.corner_facets(chain, ["p", "q"]) == 3    # one maximal chain + two elements
    assert O.corner_facets(chain, ["p"]) == 3
    # order-preserving maps of a 2-chain into {0, 1, 2}
    assert O.multichain_count(chain, 2) == 6 == O.order_preserving_count(chain)


def test_diamond_by_hand():
    d = P(DIAMOND)
    assert len(O.filters(d)) == 4 and len(O.antichains(d)) == 4
    assert O.corner_facets(d, []) == 4                # four covers
    assert O.corner_facets(d, ["p", "q"]) == 4        # two maximal chains + two elements
    assert O.maximal_chains(d) == 2
    assert O.multichain_count(d, 2) == 9 == O.order_preserving_count(d)
    assert O.multichain_count(d, 4) == 25 == O.order_preserving_count(d, 2)


def test_corner_formulas_meet_stanley_at_t1():
    # the general corner formulas against the chain polytope's closed forms
    for data in (grid(2, 3), grid(3, 3), DIAMOND):
        p = P(data)
        n, every = p.bottom_top(), p.unmarked
        stanley = {tuple(n * (e in A) for e in every) for A in O.antichains(p)}
        assert O.corner_vertices(p, every) == stanley
        assert O.corner_facets(p, every) == O.maximal_chains(p) + len(every)


def test_grid_lattice_counts():
    g23, g33 = P(grid(2, 3)), P(grid(3, 3))
    assert O.multichain_count(g23, 5) == 371 == O.order_preserving_count(g23)
    assert O.multichain_count(g33, 6) == 17472


def test_ex52_count_by_hand():
    # r in [max(p, q, 2), 4] for p, q in 0..3: 9 * 3 + 7 * 2
    ex = P(EX52)
    assert ex.bottom_top() is None
    assert O.order_preserving_count(ex) == 41


def test_euler():
    for f in [(1,), (3, 3), (4, 4), (8, 12, 6), (11, 17, 8)]:
        assert O.euler_ok(f)
    assert not O.euler_ok((4, 5))
    assert not O.euler_ok((8, 12, 7))


def test_vertex_problems_square():
    one, zero = Fraction(1), Fraction(0)
    rows = [((-one, zero), zero), ((zero, -one), zero), ((one, zero), one), ((zero, one), one)]
    assert O.vertex_problems(rows, [(zero, zero), (one, one)]) == []
    assert O.vertex_problems(rows, [(Fraction(1, 2), zero)])   # on an edge, not a vertex
    assert O.vertex_problems(rows, [(Fraction(2), zero)])      # outside
    assert O.vertex_problems(rows, [(zero, zero), (zero, zero)])  # repeated


def test_hrep_rows_interpolate_order_and_chain():
    chain = P(CHAIN)
    half = {"p": Fraction(1, 2), "q": Fraction(1, 2)}
    rows = O.hrep_rows(chain, half)
    # a < p < q < b at t = 1/2: the chain a, p, q into b reads
    # 1/4 x_a + 1/2 x_p + x_q - x_b <= 0 (b is marked, so t_b = 0)
    assert {"a": Fraction(1, 4), "p": Fraction(1, 2), "q": 1, "b": -1} in rows


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_check_vertices_accepts_closed_form_and_rejects_a_missing_vertex(tmp_path):
    path = _write(tmp_path, "chain.json", CHAIN)
    out = {"command": "vertices", "coords": ["p", "q"], "rays": [], "method": "dd",
           "t": {"p": "0", "q": "0"}, "vertices": [["0", "0"], ["0", "2"], ["2", "2"]]}
    assert checks.check_query(["vertices", path], out)[0] == []
    out["vertices"].pop()
    assert checks.check_query(["vertices", path], out)[0]


def test_check_lattice_points_counts_and_membership(tmp_path):
    path = _write(tmp_path, "diamond.json", DIAMOND)
    pts = [[0, x, y, 2] for x in range(3) for y in range(3)]
    out = {"command": "lattice-points", "coords": ["bot", "p", "q", "top"],
           "t": {"p": "0", "q": "0"}, "points": pts}
    assert checks.check_query(["lattice-points", path], out)[0] == []
    out["points"] = pts[:-1] + [[0, 3, 0, 2]]
    assert checks.check_query(["lattice-points", path], out)[0]


def test_check_pass_flags_disagreeing_interior_counts():
    facts = [(0, [("interior_vertex_count", "x", 14)]),
             (1, [("interior_vertex_count", "x", 14)]),
             (2, [("interior_vertex_count", "x", 13)])]
    assert list(checks.check_pass(facts)) == [2]


def test_order_vertices_by_hand():
    # a (0) and c (1) below p, b (3) above: p is 1 or 3
    data = {"elements": ["a", "c", "p", "b"], "covers": [["a", "p"], ["c", "p"], ["p", "b"]],
            "marking": {"a": "0", "c": "1", "b": "3"}}
    p = P(data)
    assert O.order_vertices(p) == {(1,), (3,)}
    assert O.basic_points(O.projected_rows(p, {"p": Fraction(0)})) == {(1,), (3,)}
    assert O.order_vertices(P(CHAIN)) == {(0, 0), (0, 2), (2, 2)}


def test_basic_points_meet_the_closed_forms():
    for data in (grid(2, 3), DIAMOND, CHAIN):
        p = P(data)
        for C in ([], list(p.unmarked), list(p.unmarked)[:1]):
            t = {e: Fraction(int(e in C)) for e in p.unmarked}
            assert O.basic_points(O.projected_rows(p, t)) == O.corner_vertices(p, C)
    ex = P(EX52)
    assert O.basic_points(O.projected_rows(ex, checks.half_t(ex))) is not None
    assert O.basic_points(O.projected_rows(ex, {e: Fraction(0) for e in ex.unmarked})) \
        == O.order_vertices(ex)


def _vertices_out(p, t, points):
    return {"command": "vertices", "coords": list(p.unmarked), "rays": [], "method": "dd",
            "t": {e: str(v) for e, v in t.items()},
            "vertices": [[str(x) for x in v] for v in points]}


def test_check_vertices_rejects_short_lists_at_interior_t(tmp_path):
    for name, data in (("ex52.json", EX52), ("grid3x3.json", grid(3, 3))):
        path = _write(tmp_path, name, data)
        p = P(data)
        t = checks.half_t(p)
        tpath = _write(tmp_path, name + ".t", {"t": {e: "1/2" for e in p.unmarked}})
        argv = ["vertices", path, "--t", tpath]
        assert checks.check_query(argv, _vertices_out(p, t, []))[0]
        # the full list passes, a sound but truncated one does not
        full = O.basic_points(O.projected_rows(p, t))
        if full is not None:
            assert checks.check_query(argv, _vertices_out(p, t, sorted(full)))[0] == []
            assert checks.check_query(argv, _vertices_out(p, t, sorted(full)[1:]))[0]


def test_check_vertices_rejects_short_lists_at_multi_marked_corners(tmp_path):
    path = _write(tmp_path, "ex52.json", EX52)
    p = P(EX52)
    for C in ([], list(p.unmarked)):
        t = {e: Fraction(int(e in C)) for e in p.unmarked}
        ppath = _write(tmp_path, f"part{len(C)}.json",
                       {"C": C, "O": [e for e in p.unmarked if e not in C]})
        argv = ["vertices", path, "--partition", ppath]
        full = sorted(O.basic_points(O.projected_rows(p, t)))
        assert checks.check_query(argv, _vertices_out(p, t, full))[0] == []
        assert checks.check_query(argv, _vertices_out(p, t, full[:-1]))[0]


def test_hrep_normalization_ignores_key_order():
    a = {"z": Fraction(2), "b": Fraction(-4)}
    b = {"b": Fraction(-4), "z": Fraction(2)}
    assert checks._normalized(a, Fraction(6)) == checks._normalized(b, Fraction(6))
