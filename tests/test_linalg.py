import random
from fractions import Fraction

from mpp import linalg

from conftest import det, primitive


def F(n, d=1):
    return Fraction(n, d)


def test_solve_unique():
    a = [[F(1), F(1)], [F(1), F(-1)]]
    assert linalg.solve_unique(a, [F(3), F(1)]) == (F(2), F(1))


def test_solve_inconsistent():
    a = [[F(1), F(1)], [F(2), F(2)]]
    assert linalg.solve(a, [F(1), F(3)]) is None


def test_solve_underdetermined_not_unique():
    a = [[F(1), F(1)]]
    assert linalg.solve(a, [F(2)]) is not None
    assert linalg.solve_unique(a, [F(2)]) is None


def test_rank_and_nullspace():
    a = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    assert linalg.rank(a) == 1
    ns = linalg.nullspace(a)
    assert len(ns) == 2
    for v in ns:
        assert all(linalg.dot(row, v) == 0 for row in a)


def test_inverse_round_trip():
    rnd = random.Random(7)
    for _ in range(20):
        n = rnd.randint(1, 4)
        a = [[F(rnd.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        inv = linalg.inverse(a)
        if inv is None:
            assert det(a) == 0
            continue
        prod = [[linalg.dot(a[i], [inv[k][j] for k in range(n)]) for j in range(n)]
                for i in range(n)]
        assert prod == [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]


def test_det_matches_permutation_expansion():
    a = [[F(2), F(1)], [F(5), F(3)]]
    assert det(a) == 1


def test_primitive_and_sign():
    assert primitive((F(2, 3), F(-4, 3))) == (F(1), F(-2))
    # the scale is positive, so the sign pattern is kept
    assert primitive((F(-2), F(4))) == (F(-1), F(2))


def test_affine_rank():
    pts = [(F(0), F(0)), (F(1), F(0)), (F(2), F(0))]
    assert linalg.affine_rank(pts) == 1
    assert linalg.affine_rank([]) == -1
    assert linalg.affine_rank([(F(5), F(5))]) == 0
    assert linalg.affine_rank([()]) == 0


def difference_rank(points) -> int:
    """Oracle: the rank of the differences to the first point, in Fractions."""
    if not points:
        return -1
    return linalg.rank([tuple(x - y for x, y in zip(p, points[0])) for p in points[1:]])


def test_affine_rank_matches_difference_rank():
    # integer homogenized rank against the Fraction difference rank, on
    # rational point sets with repeated points and points on a common flat
    rnd = random.Random(29)
    for _ in range(300):
        d, k = rnd.randint(1, 5), rnd.randint(0, 7)
        pts = [tuple(F(rnd.randint(-4, 4), rnd.randint(1, 5)) for _ in range(d))
               for _ in range(k)]
        if k >= 2 and rnd.random() < 0.5:  # an affine combination of two points
            a, b = rnd.sample(pts, 2)
            s = F(rnd.randint(-3, 3), rnd.randint(1, 3))
            pts.append(tuple(x + s * (y - x) for x, y in zip(a, b)))
        if pts and rnd.random() < 0.3:
            pts.append(rnd.choice(pts))
        if pts and rnd.random() < 0.3:  # all on the hyperplane x_0 = c
            pts = [(pts[0][0],) + p[1:] for p in pts]
        rnd.shuffle(pts)
        assert linalg.affine_rank(pts) == difference_rank(pts)


def test_rank_matches_rref_pivots():
    # fraction-free rank against the pivot count of the Fraction rref, on
    # rational rows with zero, repeated and combined rows
    rnd = random.Random(23)
    for _ in range(200):
        n, k = rnd.randint(1, 5), rnd.randint(1, 6)
        rows = [[F(rnd.randint(-4, 4), rnd.randint(1, 4)) for _ in range(n)]
                for _ in range(k)]
        if rnd.random() < 0.5:
            a, b = rnd.sample(rows, 2) if k > 1 else (rows[0], rows[0])
            s = F(rnd.randint(-3, 3), rnd.randint(1, 3))
            rows.append([x + s * y for x, y in zip(a, b)])
        if rnd.random() < 0.3:
            rows.append([F(0)] * n)
        rnd.shuffle(rows)
        expected = len(linalg.rref(rows)[1]) if any(map(any, rows)) else 0
        assert linalg.rank(rows) == expected
    assert linalg.rank([]) == 0
    assert linalg.rank([[F(0), F(0)]]) == 0
