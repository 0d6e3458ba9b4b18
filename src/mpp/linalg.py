"""Dense exact linear algebra over Fraction, sized for desk-scale polyhedra.

Vectors are tuples of Fractions, matrices are tuples of row tuples.  No
floating point anywhere; everything here is used by the polyhedral kernel
where a single rounding error would corrupt combinatorial conclusions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), ZERO)


def vsub(a, b) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def is_zero(a) -> bool:
    return all(x == 0 for x in a)


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (in place on a copy); returns (rref, pivot columns)."""
    m = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows) -> int:
    """Rank by fraction-free elimination on the rows scaled to integers."""
    m = []
    for r in rows:
        if not is_zero(r):
            d = lcm(*(x.denominator for x in r))
            m.append([x.numerator * (d // x.denominator) for x in r])
    done = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(done, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[done], m[pr] = m[pr], m[done]
        piv = m[done]
        for i in range(done + 1, len(m)):
            a = m[i][c]
            if a:
                row = [piv[c] * x - a * y for x, y in zip(m[i], piv)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        done += 1
    return done


def solve(a_rows, b) -> Vector | None:
    """One solution of A x = b, or None if inconsistent (ignores non-uniqueness)."""
    aug = [list(r) + [Fraction(bv)] for r, bv in zip(a_rows, b)]
    if not aug:
        return ()
    n = len(a_rows[0])
    m, pivots = rref(aug)
    for row in m:
        if is_zero(row[:-1]) and row[-1] != 0:
            return None
    x = [ZERO] * n
    for i, c in enumerate(pivots):
        if c == n:
            return None
        x[c] = m[i][-1]
    return tuple(x)


def solve_unique(a_rows, b) -> Vector | None:
    """Unique solution of A x = b, or None if inconsistent or underdetermined."""
    if not a_rows:
        return None
    n = len(a_rows[0])
    x = solve(a_rows, b)
    if x is None:
        return None
    if rank(a_rows) < n:
        return None
    return x


def nullspace(a_rows, n: int | None = None) -> list[Vector]:
    """Basis of {x : A x = 0}."""
    rows = [list(r) for r in a_rows]
    if n is None:
        n = len(rows[0]) if rows else 0
    if not rows:
        return [tuple(ONE if j == i else ZERO for j in range(n)) for i in range(n)]
    m, pivots = rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * n
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(tuple(v))
    return basis


def inverse(a_rows) -> Matrix | None:
    """Inverse of a square matrix, or None if singular."""
    n = len(a_rows)
    aug = [list(r) + [ONE if j == i else ZERO for j in range(n)] for i, r in enumerate(a_rows)]
    m, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in m)


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
