"""Exact rational linear programming via two-phase simplex with Bland's rule.

Sized for redundancy elimination and feasibility probes on desk-scale
polyhedra (tens of variables and constraints).  Bland's rule guarantees
termination.  Arithmetic is integer inside and Fraction at the boundary:
each input row is scaled to integers by the lcm of its denominators, and the
pivots are fraction-free (cross-multiplied, then divided by the row's gcd).
A tableau row R stands for R / R[b], where b is its basic column, so its
positive denominator is stored in the row itself; the objective row carries
its denominator alongside.  Only the returned value and x are Fractions.
"""

from __future__ import annotations

from enum import Enum, auto
from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)


class LPStatus(Enum):
    OPTIMAL = auto()
    UNBOUNDED = auto()
    INFEASIBLE = auto()


class SimplexError(RuntimeError):
    """An internal fault of the simplex, never a property of the input."""


def _combine(row, prow, col):
    """|p|·row − sgn(p)·row[col]·prow with p = prow[col]: the row with its col
    entry cleared, scaled by the positive factor |p|, which is returned too."""
    p, f = prow[col], row[col]
    if p < 0:
        p, f = -p, -f
    return [p * a - f * b for a, b in zip(row, prow)], p


def _pivot(tableau, basis, r, col):
    prow = tableau[r]
    if prow[col] < 0:  # the basic entry is the row's denominator: keep it > 0
        tableau[r] = prow = [-a for a in prow]
    basis[r] = col
    for i, row in enumerate(tableau):
        if i != r and row[col]:
            new, _ = _combine(row, prow, col)
            g = gcd(*new)
            tableau[i] = [a // g for a in new] if g > 1 else new


def _price(z, dz, prow, col):
    """Clear z[col] against the tableau row prow; (z, dz) stays primitive."""
    new, p = _combine(z, prow, col)
    dz *= p
    g = gcd(dz, *new)
    if g > 1:
        return [a // g for a in new], dz // g
    return new, dz


def _simplex(tableau, basis, z, dz):
    """Minimize the cost row z / dz (full length, rhs slot 0) given a feasible
    basis.  tableau rows are [coeffs..., rhs]; z is priced out against the
    basis before iterating.  Returns (status, z, dz); the priced-out row holds
    minus the objective value in its rhs slot.
    """
    ncols = len(z) - 1
    for i, b in enumerate(basis):
        if z[b]:
            z, dz = _price(z, dz, tableau[i], b)
    while True:
        enter = next((j for j in range(ncols) if z[j] < 0), None)
        if enter is None:
            return LPStatus.OPTIMAL, z, dz
        best = None
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                if best is None:
                    best, brow = i, row
                    continue
                # rhs_i / a against rhs_best / brow[enter]; denominators cancel
                lhs, rhs = row[-1] * brow[enter], brow[-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best, brow = i, row
        if best is None:
            return LPStatus.UNBOUNDED, z, dz
        _pivot(tableau, basis, best, enter)
        z, dz = _price(z, dz, tableau[best], enter)


def _integer_row(values):
    """The rationals (ints or Fractions) scaled by the lcm of their
    denominators, and that lcm."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def lp_solve(n, objective, equations, inequalities, maximize=False):
    """Optimize objective . x over {x free : A x = b, C x <= d}.

    equations / inequalities are lists of (coeffs, rhs) with len(coeffs) == n,
    entries ints or Fractions.  Returns (status, value, x) with x a tuple of
    Fractions (None unless OPTIMAL).
    """
    if n == 0:
        for coeffs, rhs in equations:
            if rhs != 0:
                return LPStatus.INFEASIBLE, None, None
        for coeffs, rhs in inequalities:
            if rhs < 0:
                return LPStatus.INFEASIBLE, None, None
        return LPStatus.OPTIMAL, ZERO, ()

    m = len(equations) + len(inequalities)
    if m == 0:
        # unconstrained: optimum 0 iff objective is zero
        if all(c == 0 for c in objective):
            return LPStatus.OPTIMAL, ZERO, tuple([ZERO] * n)
        return LPStatus.UNBOUNDED, None, None

    # columns: x = u - w, one slack per inequality, one artificial per row;
    # each row is scaled by s to integers, so its slack and artificial are s
    nineq = len(inequalities)
    nvars = 2 * n + nineq
    tableau = []
    for i, (coeffs, rhs) in enumerate(list(equations) + list(inequalities)):
        ints, s = _integer_row([*coeffs, rhs])
        row = ints[:-1] + [-c for c in ints[:-1]] + [0] * (nineq + m) + ints[-1:]
        k = i - len(equations)
        if k >= 0:
            row[2 * n + k] = s
        if ints[-1] < 0:
            row = [-a for a in row]
        row[nvars + i] = s
        tableau.append(row)
    basis = [nvars + i for i in range(m)]

    # phase 1: minimize the sum of the artificials
    status, z, _ = _simplex(tableau, basis, [0] * nvars + [1] * m + [0], 1)
    if status is not LPStatus.OPTIMAL:
        raise SimplexError("phase 1 reported an unbounded sum of artificials")
    if z[-1]:
        return LPStatus.INFEASIBLE, None, None

    # drive artificials out of the basis; rows that cannot pivot are redundant
    drop_rows = []
    for i in range(m):
        if basis[i] >= nvars:
            col = next((j for j in range(nvars) if tableau[i][j]), None)
            if col is None:
                drop_rows.append(i)
            else:
                _pivot(tableau, basis, i, col)
    for i in sorted(drop_rows, reverse=True):
        del tableau[i]
        del basis[i]
    # no artificial is basic or may enter again: drop their columns
    tableau = [row[:nvars] + row[-1:] for row in tableau]

    obj, scale = _integer_row(objective)
    sense = -1 if maximize else 1
    cost = [sense * c for c in obj] + [-sense * c for c in obj] + [0] * (nineq + 1)
    status, z, dz = _simplex(tableau, basis, cost, scale)
    if status is LPStatus.UNBOUNDED:
        return LPStatus.UNBOUNDED, None, None
    value = Fraction(-sense * z[-1], dz)
    x = [ZERO] * n
    for row, b in zip(tableau, basis):
        if b < n:
            x[b] += Fraction(row[-1], row[b])
        elif b < 2 * n:
            x[b - n] -= Fraction(row[-1], row[b])
    return LPStatus.OPTIMAL, value, tuple(x)
