from fractions import Fraction

import pytest

from mpp import lp
from mpp.lp import LPStatus, lp_solve


def F(n, d=1):
    return Fraction(n, d)


def square_rows():
    ineqs = [((F(1), F(0)), F(1)), ((F(-1), F(0)), F(0)),
             ((F(0), F(1)), F(1)), ((F(0), F(-1)), F(0))]
    return [], ineqs


def test_maximize_over_square():
    eqs, ineqs = square_rows()
    status, value, x = lp_solve(2, [F(1), F(1)], eqs, ineqs, maximize=True)
    assert status is LPStatus.OPTIMAL
    assert value == 2
    assert x == (F(1), F(1))


def test_minimize_over_square():
    eqs, ineqs = square_rows()
    status, value, x = lp_solve(2, [F(1), F(2)], eqs, ineqs, maximize=False)
    assert status is LPStatus.OPTIMAL
    assert value == 0


def test_equality_constraint():
    eqs = [((F(1), F(1)), F(1))]
    _, ineqs = square_rows()
    status, value, x = lp_solve(2, [F(1), F(0)], eqs, ineqs, maximize=True)
    assert status is LPStatus.OPTIMAL
    assert value == 1
    assert x[0] + x[1] == 1


def test_unbounded():
    status, value, x = lp_solve(1, [F(1)], [], [((F(-1),), F(0))], maximize=True)
    assert status is LPStatus.UNBOUNDED


def test_infeasible():
    ineqs = [((F(1),), F(0)), ((F(-1),), F(-1))]
    status, _, _ = lp_solve(1, [F(1)], [], ineqs, maximize=True)
    assert status is LPStatus.INFEASIBLE


def test_fractional_optimum():
    # max x + y s.t. 2x + y <= 2, x + 3y <= 3, x,y >= 0 -> (3/5, 4/5)
    ineqs = [((F(2), F(1)), F(2)), ((F(1), F(3)), F(3)),
             ((F(-1), F(0)), F(0)), ((F(0), F(-1)), F(0))]
    status, value, x = lp_solve(2, [F(1), F(1)], [], ineqs, maximize=True)
    assert status is LPStatus.OPTIMAL
    assert value == F(7, 5)
    assert x == (F(3, 5), F(4, 5))


def test_degenerate_cycling_guard():
    # Beale-style degeneracy; Bland's rule must terminate.  The optimum 5/4 at
    # (1, 0, 1, 0) was frozen from an independent solver run.
    ineqs = [((F(1, 4), F(-8), F(-1), F(9)), F(0)),
             ((F(1, 2), F(-12), F(-1, 2), F(3)), F(0)),
             ((F(0), F(0), F(1), F(0)), F(1)),
             ((F(-1), F(0), F(0), F(0)), F(0)),
             ((F(0), F(-1), F(0), F(0)), F(0)),
             ((F(0), F(0), F(-1), F(0)), F(0)),
             ((F(0), F(0), F(0), F(-1)), F(0))]
    obj = [F(3, 4), F(-20), F(1, 2), F(-6)]
    status, value, _ = lp_solve(4, obj, [], ineqs, maximize=True)
    assert status is LPStatus.OPTIMAL
    assert value == F(5, 4)


def test_zero_dimensional():
    status, value, x = lp_solve(0, [], [], [])
    assert status is LPStatus.OPTIMAL and x == ()


def _unit_rows(n, lo=None, hi=None):
    rows = []
    for i in range(n):
        e = [F(0)] * n
        e[i] = F(1)
        if hi is not None:
            rows.append((tuple(e), F(hi)))
        if lo is not None:
            rows.append((tuple(-c for c in e), F(-lo)))
    return rows


# Degenerate LPs with ratio-test ties and several optimal points.  Bland's rule
# picks one optimum deterministically; (status, value, x) below were recorded
# from the Fraction-tableau simplex, and the integer kernel must reproduce them.
PINNED = {
    "square_edge_optimum": (
        2, [F(1), F(0)], [], _unit_rows(2, lo=0, hi=1), True,
        (F(1), (F(1), F(0)))),
    "triangle_ratio_tie": (
        2, [F(1), F(1)], [],
        [((F(1), F(1)), F(1))] + _unit_rows(2, lo=0, hi=1), True,
        (F(1), (F(1), F(0)))),
    "beale": (
        4, [F(3, 4), F(-20), F(1, 2), F(-6)], [],
        [((F(1, 4), F(-8), F(-1), F(9)), F(0)),
         ((F(1, 2), F(-12), F(-1, 2), F(3)), F(0)),
         ((F(0), F(0), F(1), F(0)), F(1))] + _unit_rows(4, lo=0), True,
        (F(5, 4), (F(1), F(0), F(1), F(0)))),
    "dependent_equations": (
        3, [F(1), F(0), F(-1)],
        [((F(1), F(1), F(1)), F(1)), ((F(2), F(2), F(2)), F(2))],
        _unit_rows(3, lo=0), True,
        (F(1), (F(1), F(0), F(0)))),
    "rational_parallel_facets": (
        2, [F(1, 2), F(1, 3)], [],
        [((F(1, 2), F(1, 3)), F(1)), ((F(3, 2), F(1)), F(3))] + _unit_rows(2, lo=0),
        True, (F(1), (F(2), F(0)))),
    "negative_rhs_minimum": (
        2, [F(1), F(1)], [((F(1), F(-1)), F(-1, 2))],
        [((F(-1), F(0)), F(3, 2)), ((F(0), F(-1)), F(-1, 3))], False,
        (F(1, 6), (F(-1, 6), F(1, 3)))),
    "degenerate_cone_apex": (
        3, [F(1), F(1), F(1)], [],
        [((F(1), F(0), F(0)), F(0)), ((F(0), F(1), F(0)), F(0)),
         ((F(0), F(0), F(1)), F(0)), ((F(1), F(1), F(0)), F(0)),
         ((F(0), F(1), F(1)), F(0)), ((F(-1), F(-1), F(-1)), F(1))], True,
        (F(0), (F(0), F(0), F(0)))),
    # found by random search: the lowest-basic-index tie-break of the ratio
    # test decides x here (the highest index would end at (1, 0, 0))
    "bland_tie_break_decides_x": (
        3, [F(0), F(-1, 3), F(-2)], [],
        [((F(0), F(1), F(0)), F(0)), ((F(-1, 3), F(5, 2), F(1)), F(0)),
         ((F(1), F(-1), F(0)), F(2)), ((F(-2), F(1), F(1, 2)), F(0)),
         ((F(-1), F(0), F(-2)), F(0)), ((F(0), F(2), F(-2)), F(1)),
         ((F(0), F(-2), F(3, 4)), F(0)), ((F(0), F(-1), F(0)), F(0)),
         ((F(1), F(0), F(0)), F(1)), ((F(-1), F(0), F(0)), F(1)),
         ((F(0), F(1), F(0)), F(2)), ((F(0), F(-1), F(0)), F(0)),
         ((F(0), F(0), F(1)), F(1)), ((F(0), F(0), F(-1)), F(3))], False,
        (F(0), (F(0), F(0), F(0)))),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_degenerate_optima(name):
    n, obj, eqs, ineqs, maximize, (value, x) = PINNED[name]
    got = lp_solve(n, obj, eqs, ineqs, maximize=maximize)
    assert got == (LPStatus.OPTIMAL, value, x)
    assert all(type(c) is Fraction for c in (got[1], *got[2]))


def test_integer_inputs_match_fraction_inputs():
    n, obj, eqs, ineqs, maximize, _ = PINNED["triangle_ratio_tie"]
    as_int = [(tuple(int(c) for c in coeffs), int(rhs)) for coeffs, rhs in ineqs]
    assert (lp_solve(n, [1, 1], eqs, as_int, maximize=maximize)
            == lp_solve(n, obj, eqs, ineqs, maximize=maximize))


def test_all_rows_redundant():
    # 0 = 0 leaves no row after phase 1; x = u - w is then free
    assert lp_solve(1, [F(0)], [((F(0),), F(0))], []) == (LPStatus.OPTIMAL, 0, (0,))
    status, _, _ = lp_solve(1, [F(1)], [((F(0),), F(0))], [], maximize=True)
    assert status is LPStatus.UNBOUNDED


def test_combine_clears_the_column_against_a_negative_pivot():
    # |p| row - sgn(p) row[col] prow with p = -2: the col entry is cleared and
    # the positive factor 2 comes back
    assert lp._combine([1, 2, 3], [-2, 4, 1], 0) == ([0, 8, 7], 2)


def test_no_variables():
    # n = 0: each row is a constant, feasible iff 0 = rhs and 0 <= rhs
    assert lp_solve(0, [], [((), F(0))], [((), F(1))]) == (LPStatus.OPTIMAL, 0, ())
    assert lp_solve(0, [], [((), F(1))], [])[0] is LPStatus.INFEASIBLE
    assert lp_solve(0, [], [], [((), F(-1))])[0] is LPStatus.INFEASIBLE


def test_no_rows():
    # unconstrained: the optimum is 0 iff the objective is zero
    assert lp_solve(2, [F(0), F(0)], [], []) == (LPStatus.OPTIMAL, 0, (0, 0))
    assert lp_solve(2, [F(1), F(0)], [], [])[0] is LPStatus.UNBOUNDED


def test_unbounded_phase_one_is_an_internal_fault(monkeypatch):
    # the sum of the artificials is bounded below by 0, so an unbounded
    # phase 1 can only come from a fault in the simplex itself
    monkeypatch.setattr(lp, "_simplex", lambda *args: (LPStatus.UNBOUNDED, None, None))
    eqs, ineqs = square_rows()
    with pytest.raises(lp.SimplexError, match="phase 1"):
        lp_solve(2, [F(1), F(1)], eqs, ineqs)
