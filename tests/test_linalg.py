import random
from fractions import Fraction

from mpp import linalg

from conftest import det, primitive, rref


def F(n, d=1):
    return Fraction(n, d)


# -- seeded rows and systems, checked against the Fraction rref --------------

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


def random_rhs(rnd, rows, n):
    """b = A x0 for a random x0 (a consistent system), or a random b."""
    if rnd.random() < 0.5:
        x0 = [F(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in range(n)]
        return [linalg.dot(r, x0) for r in rows]
    return [F(rnd.randint(-3, 3), rnd.randint(1, 2)) for _ in rows]


def oracle_rank(rows) -> int:
    return len(rref(rows)[1])


def consistent(rows, b, n) -> bool:
    """A x = b has a solution: no pivot of rref [A | b] in the last column."""
    return n not in rref([list(r) + [bv] for r, bv in zip(rows, b)])[1]


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
    # integer rank and nullspace against the pivot count of the Fraction
    # rref, on rows as random_rows gives them, 0 x n and k x 0 included
    rnd = random.Random(23)
    for _ in range(400):
        k, n = rnd.randint(0, 6), rnd.randint(0, 5)
        rows = random_rows(rnd, k, n)
        r = oracle_rank(rows)
        assert linalg.rank(rows) == r
        ns = linalg.nullspace(rows, n)
        assert len(ns) == n - r
        assert all(linalg.dot(row, v) == 0 for row in rows for v in ns)
        assert oracle_rank(ns) == len(ns)  # a basis: independent vectors
    assert linalg.rank([]) == 0
    assert linalg.rank([[F(0), F(0)]]) == 0


def test_solve_and_solve_unique_match_rref():
    rnd = random.Random(43)
    seen = {"inconsistent": 0, "unique": 0, "underdetermined": 0}
    for _ in range(600):
        k, n = rnd.randint(1, 6), rnd.randint(0, 5)
        rows = random_rows(rnd, k, n)
        b = random_rhs(rnd, rows, n)
        ok = consistent(rows, b, n)
        full = oracle_rank(rows) == n
        x = linalg.solve(rows, b)
        assert (x is not None) == ok
        if ok:
            assert [linalg.dot(r, x) for r in rows] == b
        xu = linalg.solve_unique(rows, b)
        assert (xu is not None) == (ok and full)
        if xu is not None:
            assert xu == x
        seen["inconsistent" if not ok else "unique" if full else "underdetermined"] += 1
    assert min(seen.values()) >= 50  # not vacuous: every case occurs
    assert linalg.solve([], []) == ()
    assert linalg.solve_unique([], []) is None
