import random
from fractions import Fraction

from mpp import linalg

from conftest import det, primitive, rref


def F(n, d=1):
    return Fraction(n, d)


# -- seeded rows, checked against the Fraction rref --------------------------

def random_rows(rnd, k, n):
    """k rational rows of width n, sparse or dense, some of them plain ints,
    with zero, repeated and combined rows mixed in."""
    zeros = rnd.random() < 0.3
    rows = [[F(rnd.randint(-4, 4), rnd.randint(1, 4)) if not zeros or rnd.random() < 0.4
             else F(0) for _ in range(n)] for _ in range(k)]
    if k and rnd.random() < 0.3:
        rows[rnd.randrange(k)] = [F(0)] * n
    if k and rnd.random() < 0.3:
        rows.append(list(rnd.choice(rows)))
    if k >= 2 and rnd.random() < 0.4:
        a, b = rnd.sample(rows, 2)
        s = F(rnd.randint(-3, 3), rnd.randint(1, 3))
        rows.append([x + s * y for x, y in zip(a, b)])
    rnd.shuffle(rows)
    if rnd.random() < 0.3:
        rows = [[int(x * 12) for x in r] for r in rows]
    return rows


def oracle_rank(rows) -> int:
    return len(rref(rows)[1])


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
    # integer rank and kernel against the pivot count of the Fraction rref,
    # on rows as random_rows gives them, 0 x n and k x 0 included
    rnd = random.Random(23)
    for _ in range(400):
        k, n = rnd.randint(0, 6), rnd.randint(0, 5)
        rows = random_rows(rnd, k, n)
        r = oracle_rank(rows)
        assert linalg.rank(rows) == r
        ker = linalg.kernel(rows, n)
        assert len(ker) == n - r
        assert all(type(x) is int for v in ker for x in v)
        assert all(linalg.dot(row, v) == 0 for row in rows for v in ker)
        assert oracle_rank(ker) == len(ker)  # a basis: independent vectors
    assert linalg.rank([]) == 0
    assert linalg.rank([[F(0), F(0)]]) == 0
    assert linalg.rank([[F(1), F(2), F(3)], [F(2), F(4), F(6)]]) == 1
