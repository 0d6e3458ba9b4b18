"""Exact linear algebra by one fraction-free integer elimination.

`_eliminate` makes a list of primitive integer lines orthogonal to one more
row (Bareiss 1968, each new line divided by its gcd).  `kernel` runs it from
the unit vectors over every row; ranks, nullspaces and solves read its
result, and double description runs it on its equations and lines.
Fraction rows are scaled to integers first, and no floating point is used.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), ZERO)


def vsub(a, b) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def is_zero(a) -> bool:
    return all(x == 0 for x in a)


# -- the integer elimination ---------------------------------------------------

def _primitive(v: tuple[int, ...]) -> tuple[int, ...]:
    g = gcd(*v)
    return v if g <= 1 else tuple(x // g for x in v)


def _idot(a, b) -> int:
    return sum(map(operator.mul, a, b))


def _eliminate(row, lines):
    """(l0, v0, others): a line with l0 . row = v0 != 0 (None if there is
    none) and the other lines made orthogonal to row as v0 * l - v * l0."""
    vals = [_idot(row, l) for l in lines]
    j0 = next((j for j, v in enumerate(vals) if v != 0), None)
    if j0 is None:
        return None, 0, lines
    l0, v0 = lines[j0], vals[j0]
    others = [l if v == 0 else _primitive(tuple(v0 * x - v * y for x, y in zip(l, l0)))
              for j, (l, v) in enumerate(zip(lines, vals)) if j != j0]
    return l0, v0, others


def kernel(rows, n: int) -> list[tuple[int, ...]]:
    """A basis of {x : row . x = 0 for every row} in R^n, as primitive
    integer vectors: the n unit vectors with each row eliminated in turn.
    An int row is used as it is, a Fraction row over its least common
    denominator."""
    lines = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    for row in rows:
        if not lines:
            break
        if not all(type(x) is int for x in row):
            den = lcm(*(x.denominator for x in row))
            row = [x.numerator * (den // x.denominator) for x in row]
        lines = _eliminate(row, lines)[2]
    return lines


def rank(rows) -> int:
    """The rank of the rows: their width minus the dimension of their kernel."""
    n = len(rows[0]) if rows else 0
    return n - len(kernel(rows, n))


def nullspace(a_rows, n: int | None = None) -> list[Vector]:
    """Basis of {x : A x = 0}."""
    if n is None:
        n = len(a_rows[0]) if a_rows else 0
    return [tuple(map(Fraction, v)) for v in kernel(a_rows, n)]


def _solutions(a_rows, b) -> tuple[int, list[tuple[int, ...]]]:
    """(n, the kernel of [A | -b]): the solutions x of A x = b are the
    points v[:n] / v[n] of its vectors with v[n] != 0."""
    n = len(a_rows[0])
    return n, kernel([tuple(r) + (-bv,) for r, bv in zip(a_rows, b)], n + 1)


def solve(a_rows, b) -> Vector | None:
    """One solution of A x = b, or None if inconsistent (ignores non-uniqueness)."""
    if not a_rows:
        return ()
    n, ker = _solutions(a_rows, b)
    v = next((v for v in ker if v[n]), None)
    return None if v is None else tuple(Fraction(x, v[n]) for x in v[:n])


def solve_unique(a_rows, b) -> Vector | None:
    """Unique solution of A x = b, or None if inconsistent or underdetermined:
    the solution is unique exactly when the kernel of [A | -b] is one vector
    whose last entry is nonzero."""
    if not a_rows:
        return None
    n, ker = _solutions(a_rows, b)
    if len(ker) != 1 or not ker[0][n]:
        return None
    return tuple(Fraction(x, ker[0][n]) for x in ker[0][:n])


def homogenized(points) -> list[tuple[int, ...]]:
    """Rational points as integer rows (D, D * x) over their least common
    denominator D.  A VRep already holds its vertices this way (VRep.rows);
    this converts points that arrive as Fractions."""
    den = lcm(*(x.denominator for p in points for x in p))
    return [(den,) + tuple(x.numerator * (den // x.denominator) for x in p)
            for p in points]


def dehomogenized(rows) -> tuple[Vector, ...]:
    """The rational points of integer rows (w0, w) with w0 > 0: each w / w0."""
    return tuple(tuple(Fraction(x, r[0]) for x in r[1:]) for r in rows)


def common_denominator(rows) -> list[tuple[int, ...]]:
    """Primitive integer rows (x0, x), x0 > 0, rescaled in the same order to
    (D, D * x / x0) over one D, the lcm of the x0.  A primitive row's x0 is
    the least common denominator of its point, so D is that of all points,
    and rows over one D sort as their points do."""
    den = lcm(*(r[0] for r in rows))
    return [r if r[0] == den else (den,) + tuple(x * (den // r[0]) for x in r[1:])
            for r in rows]


def affine_rank(points) -> int:
    """Dimension of the affine hull of a set of points (-1 for the empty set):
    the rank of their homogenized integer rows, minus 1."""
    return rank(homogenized(points)) - 1
