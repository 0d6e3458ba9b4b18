"""Lattice points, Ehrhart interpolation, and integral-closure checks.

Lattice points are enumerated depth-first over the coordinates inside the
exact vertex bounding box, each coordinate bounded by the constraint rows
given the coordinates fixed before it, so no box point is tested on its own.
The rows are the H-rep's cached primitive integer rows, a dilation k scales
their right-hand sides, and coordinates the box pins to one value are folded
into the right-hand sides, so the search is in Python ints over the free
coordinates only.  Ehrhart counts add up the width of the last free
coordinate's range instead of listing points.

A point is built as the search goes: each level extends its parent's prefix
by one step, and the last level's range is emitted in one pass.  The steps
are tuples of ints, or, when the caller passes a row's text pieces (open,
separator, close), strings, so that a point comes out as its finished text
row and each prefix's digits are formatted once per search node, not once
per point.

The vertex bounding box bounds the search but does not gate a listing:
`lattice_points` may list at most POINT_BUDGET points and visit at most
NODE_BUDGET search nodes per free coordinate, and raises TooLarge, naming
what it counted, when either runs out.  `ehrhart` and `is_integrally_closed`
gate their boxes at BOX_GATE candidates before they search.

EhrhartData is an immutable record (see mpp.records): a named tuple, so it
also iterates, sorts and equals the plain tuple of its fields.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction

from .geometry import (EmptyPolyhedron, HRep, NonLatticeVertices, TooLarge,
                       UnsupportedUnbounded, vertices)
from .linalg import rank
from .rationals import rat_str

BOX_GATE = 10 ** 7      # box candidates of an Ehrhart count or a closure check
POINT_BUDGET = 10 ** 7  # points a listing returns
NODE_BUDGET = 10 ** 7   # search nodes a listing visits, per free coordinate


def _extremes(rows) -> tuple[int, list[int], list[int]]:
    """(D, least, most) of the vertices' homogenized rows (D, D * v): per
    coordinate the least and the greatest vertex value, times D."""
    cols = list(zip(*rows))[1:]
    return rows[0][0], [min(c) for c in cols], [max(c) for c in cols]


def _box(extremes, k=1, gated=True):
    """Integer bounding box of k * conv(verts), from _extremes; if gated,
    refused past BOX_GATE candidates."""
    den, least, most = extremes
    lows = [-(-k * a // den) for a in least]
    highs = [k * b // den for b in most]
    size = math.prod(max(0, hi - lo + 1) for lo, hi in zip(lows, highs))
    if gated and size > BOX_GATE:
        raise TooLarge(f"bounding box of dilation {k} holds {size} candidates "
                       f"(gate {BOX_GATE})")
    return lows, highs


def _scan(h: HRep, lows, highs, k=1, count=False, text=None):
    """Integer points of k * h in the box [lows, highs], in itertools.product
    order; with count=True only their number.  A point is a tuple, or with
    text=(open, separator, close) the string open + separator.join(map(str,
    point)) + close.

    The rows are h.int_inequalities and h.int_equations (an equation is two
    opposite rows) with their right-hand sides times k.  A coordinate whose
    box is one value is pinned: its term moves into the right-hand sides,
    and points get its value back in place.  The search runs depth-first
    over the free coordinates in order.  With s the sum of a_i * x_i over
    the coordinates already fixed and m the least value the terms after x_j
    take in the box, a row a . x <= b requires a_j * x_j <= b - s - m: a cap
    on x_j if a_j > 0, a floor if a_j < 0.  At the row's last nonzero
    coordinate m = 0 and this is the row itself, so every point is checked
    exactly; before it, the bound cuts prefixes with no completion in the
    box.  Bounds that cannot cut inside the box are dropped.  At the last
    free coordinate the points are the whole range left, so counting adds
    its width.

    The search raises TooLarge when it has listed more than POINT_BUDGET
    points or visited more than NODE_BUDGET nodes per free coordinate.
    """
    empty = 0 if count else []
    if any(lo > hi for lo, hi in zip(lows, highs)):
        return empty
    free = [j for j, (lo, hi) in enumerate(zip(lows, highs)) if lo < hi]
    pins = [(1 + j, lo) for j, (lo, hi) in enumerate(zip(lows, highs)) if lo == hi]
    eqs = h.int_equations
    rows = []  # (coefficients on the free coordinates, right-hand side)
    for row in h.int_inequalities + eqs + tuple(tuple(-a for a in r) for r in eqs):
        coeffs = [row[1 + j] for j in free]
        rhs = -row[0] * k - sum(row[j] * v for j, v in pins)
        if any(coeffs):
            rows.append((coeffs, rhs))
        elif rhs < 0:
            return empty
    if not free:
        if count:
            return 1
        return [tuple(lows) if text is None else
                text[0] + text[1].join(map(str, lows)) + text[2]]
    lows_f = [lows[j] for j in free]
    highs_f = [highs[j] for j in free]
    n = len(free)
    bounds = [[] for _ in range(n)]  # (row, a_j, c): a_j * x_j <= c - sums[row]
    feeds = [[] for _ in range(n)]   # (row, a_j) for rows bounding a later x_i
    for r, (coeffs, rhs) in enumerate(rows):
        least = [min(a * lo, a * hi) for a, lo, hi in zip(coeffs, lows_f, highs_f)]
        most = [max(a * lo, a * hi) for a, lo, hi in zip(coeffs, lows_f, highs_f)]
        # rest: least of the terms after x_j, top: most of the terms up to x_j
        rest, top, later = 0, sum(most), False
        for j in reversed(range(n)):
            a = coeffs[j]
            if a and later:
                feeds[j].append((r, a))
            if a and rhs - rest < top:  # the row can cut x_j inside the box
                bounds[j].append((r, a, rhs - rest))
                later = True
            top -= most[j]
            rest += least[j]
    # each level's steps cover its whole box range, built before the search
    wide = max(free, key=lambda j: highs[j] - lows[j])
    if highs[wide] - lows[wide] >= NODE_BUDGET:
        raise TooLarge(f"coordinate {h.coords[wide]} takes {highs[wide] - lows[wide] + 1} "
                       f"values in the box (budget {NODE_BUDGET} search nodes)")
    # steps[i][x - lows_f[i]]: x, then the pinned values up to the next free
    # coordinate; a point is the pinned head followed by one step per level
    last = n - 1
    ends = free[1:] + [len(lows)]
    tails = [lows[j + 1:end] for j, end in zip(free, ends)]
    if text is None:
        head = tuple(lows[:free[0]])
        steps = [[(x, *tail) for x in range(lows[j], highs[j] + 1)]
                 for j, tail in zip(free, tails)]
    else:  # every value but the point's last is followed by the separator
        start, sep, close = text
        head = start + "".join(f"{v}{sep}" for v in lows[:free[0]])
        tails = ["".join(f"{sep}{v}" for v in tail) + (close if i == last else sep)
                 for i, tail in enumerate(tails)]
        steps = [[f"{x}{tail}" for x in range(lows[j], highs[j] + 1)]
                 for j, tail in zip(free, tails)]
    sums = [0] * len(rows)  # a . x over the free coordinates fixed so far
    out = None if count else []
    nodes, node_budget = 1, NODE_BUDGET * n

    def visit(i, prefix):
        nonlocal nodes
        lo, hi = lows_f[i], highs_f[i]
        for r, a, b in bounds[i]:
            if a > 0:
                hi = min(hi, (b - sums[r]) // a)
            else:
                lo = max(lo, -((b - sums[r]) // -a))
        if lo > hi:
            return 0
        step, base = steps[i], lows_f[i]
        if i == last:
            if out is not None:
                listed = len(out) + hi - lo + 1
                if listed > POINT_BUDGET:
                    raise TooLarge(f"the lattice-point search listed {listed} points "
                                   f"before it ended (budget {POINT_BUDGET})")
                out.extend(map(prefix.__add__, step[lo - base:hi - base + 1]))
            return hi - lo + 1
        nodes += hi - lo + 1
        if nodes > node_budget:
            raise TooLarge(f"the lattice-point search visited {nodes} nodes over {n} "
                           f"free coordinates (budget {NODE_BUDGET} per coordinate)")
        feed = feeds[i]
        saved = [sums[r] for r, _ in feed]
        found = 0
        for x in range(lo, hi + 1):
            for (r, a), s in zip(feed, saved):
                sums[r] = s + a * x
            found += visit(i + 1, prefix + step[x - base])
        for (r, _), s in zip(feed, saved):
            sums[r] = s
        return found

    found = visit(0, head)
    return found if count else out


def _lattice_polytope(h: HRep, what: str):
    """The vertex rows (1, v) of h, which must be a polytope with integral
    vertices: their common denominator is 1."""
    v = vertices(h)
    if v.rays:
        raise UnsupportedUnbounded(f"{what} needs a polytope")
    if v.rows[0][0] != 1:
        p = next(p for p in v.vertices if any(x.denominator != 1 for x in p))
        raise NonLatticeVertices(f"non-integral vertex ({', '.join(map(rat_str, p))})")
    return v.rows


def lattice_points(h: HRep, text=None) -> list:
    """All integer points of a bounded polyhedron, sorted lexicographically:
    tuples of ints, or with text=(open, separator, close) each point as the
    string open + separator.join(map(str, point)) + close.

    The vertex bounding box bounds the search without gating it; the search
    raises TooLarge past POINT_BUDGET points or NODE_BUDGET nodes per free
    coordinate."""
    try:
        v = vertices(h)
    except EmptyPolyhedron:
        return []
    if v.rays:
        raise UnsupportedUnbounded("lattice-point scan needs a bounded polyhedron")
    return _scan(h, *_box(_extremes(v.rows), gated=False), text=text)


class EhrhartData(namedtuple("EhrhartData", "counts coefficients")):
    __slots__ = ()
    counts: tuple[tuple[int, int], ...]        # (dilation k, #lattice points of kQ)
    coefficients: tuple[Fraction, ...]         # polynomial, lowest degree first

    def evaluate(self, k) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * k + c
        return acc


def _interpolate(values: list[int]) -> tuple[list[int], int]:
    """(a, D): the polynomial of degree < len(values) that takes values[k] at
    k = 0, 1, ... is sum_i a_i k^i / D, with D = (len(values) - 1)!.

    Newton's form on the forward differences d_j of values, sum_j d_j C(k, j),
    is expanded in integers: C(k, j) = k (k - 1) ... (k - j + 1) / j!."""
    n = len(values)
    diffs = list(values)
    for j in range(1, n):
        for i in reversed(range(j, n)):
            diffs[i] -= diffs[i - 1]
    den = math.factorial(n - 1)
    coeffs = [0] * n
    falling = [1]  # k (k - 1) ... (k - j + 1), lowest degree first
    for j, d in enumerate(diffs):
        scale = d * (den // math.factorial(j))
        for i, c in enumerate(falling):
            coeffs[i] += scale * c
        falling = [0] + falling  # times (k - j)
        for i in range(j + 1):
            falling[i] -= j * falling[i + 1]
    return coeffs, den


def ehrhart(h: HRep, max_dilation: int | None = None) -> EhrhartData:
    """Counts at dilations 0..max_dilation plus the interpolated polynomial.

    Requires a bounded lattice polytope; max_dilation defaults to dim (at
    least 1).  The polynomial, of degree dim (its leading coefficient is the
    relative volume), interpolates the counts at 0..dim; every further count
    must agree with it.
    """
    rows = _lattice_polytope(h, "Ehrhart counting")
    dim = rank(rows) - 1  # the affine rank of the vertices
    if max_dilation is None:
        max_dilation = max(dim, 1)
    if max_dilation < dim:
        raise ValueError(f"dilations up to {max_dilation} are too few for a polytope of "
                         f"dimension {dim}: the interpolation needs dilations 0..{dim}, "
                         f"so the least value accepted is {dim}")
    # the vertices of kQ are k * V(Q); boxes grow with k, so gate the largest
    # one before scanning any
    extremes = _extremes(rows)
    _box(extremes, max_dilation)
    counts = [(0, 1)]
    for k in range(1, max_dilation + 1):
        counts.append((k, _scan(h, *_box(extremes, k), k=k, count=True)))
    coeffs, den = _interpolate([c for _, c in counts[:dim + 1]])
    for k, c in counts[dim + 1:]:
        if sum(a * k ** i for i, a in enumerate(coeffs)) != c * den:
            raise AssertionError("Ehrhart interpolation failed to reproduce a count")
    return EhrhartData(tuple(counts), tuple(Fraction(a, den) for a in coeffs))


def is_integrally_closed(h: HRep, dilations=(2, 3)) -> bool:
    """Check that every lattice point of kQ is a sum of k lattice points of Q,
    for each k in dilations (k = 0 and k = 1 hold for every polytope).

    Each fold adds every point of Q to every sum so far; a fold of more than
    BOX_GATE such pairs raises TooLarge before it starts."""
    dilations = sorted(set(dilations))
    if dilations and dilations[0] < 0:
        raise ValueError(f"dilations must be nonnegative, got {dilations[0]}")
    extremes = _extremes(_lattice_polytope(h, "integral closure"))
    base = _scan(h, *_box(extremes))
    sums, done = {(0,) * len(extremes[1])}, 0  # the done-fold sums of base
    for k in dilations:
        for fold in range(done + 1, k + 1):
            pairs = len(sums) * len(base)
            if pairs > BOX_GATE:
                raise TooLarge(f"the {fold}-fold sumset takes {pairs} pairs "
                               f"(gate {BOX_GATE})")
            sums = {tuple(map(operator.add, p, q)) for p in sums for q in base}
        done = k
        if not sums.issuperset(_scan(h, *_box(extremes, k), k=k)):
            return False
    return True
