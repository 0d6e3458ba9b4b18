"""Lattice points, Ehrhart interpolation, and integral-closure checks.

Lattice points are enumerated depth-first over the coordinates inside the
exact vertex bounding box, each coordinate bounded by the constraint rows
given the coordinates fixed before it, so no box point is tested on its own.
The documented complexity gate is still a box of at most 10^7 candidate
points, checked before any enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .geometry import (EmptyPolyhedron, HRep, NonLatticeVertices, TooLarge,
                       UnsupportedUnbounded, vertices)
from .linalg import affine_rank

BOX_GATE = 10 ** 7


def _box(verts, k=1):
    """Integer bounding box of k * conv(verts), gated at BOX_GATE candidates."""
    lows = [math.ceil(k * min(col)) for col in zip(*verts)]
    highs = [math.floor(k * max(col)) for col in zip(*verts)]
    size = math.prod(max(0, hi - lo + 1) for lo, hi in zip(lows, highs))
    if size > BOX_GATE:
        raise TooLarge(f"bounding box of dilation {k} holds {size} candidates "
                       f"(gate {BOX_GATE})")
    return lows, highs


def _scan(h: HRep, lows, highs) -> list[tuple[int, ...]]:
    """Integer points of h in the box [lows, highs], in itertools.product order.

    Depth-first over the coordinates in order.  With s the sum of a_i * x_i
    over the coordinates already fixed and m the least value the terms after
    x_j take in the box, a row a . x <= b requires a_j * x_j <= b - s - m: a
    cap on x_j if a_j > 0, a floor if a_j < 0.  At the row's last nonzero
    coordinate m = 0 and this is the row itself, so every point is checked
    exactly; before it, the bound cuts prefixes with no completion in the
    box.  Bounds that cannot cut inside the box are dropped, and an equation
    is two opposite rows.
    """
    n = len(lows)
    if not n:
        return [()]
    rows = []
    for c in h.equations + h.inequalities:
        m = math.lcm(*[x.denominator for x in c.coeffs + (c.rhs,)])
        rows.append(([int(x * m) for x in c.coeffs], int(c.rhs * m)))
    rows += [([-a for a in coeffs], -rhs) for coeffs, rhs in rows[:len(h.equations)]]
    bounds = [[] for _ in range(n)]  # (row, a_j, c): a_j * x_j <= c - sums[row]
    feeds = [[] for _ in range(n)]   # (row, a_j) for rows bounding a later x_i
    for r, (coeffs, rhs) in enumerate(rows):
        least = [min(a * lo, a * hi) for a, lo, hi in zip(coeffs, lows, highs)]
        most = [max(a * lo, a * hi) for a, lo, hi in zip(coeffs, lows, highs)]
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
    sums = [0] * len(rows)  # a . x over the coordinates fixed so far
    out = []

    def visit(j, prefix):
        lo, hi = lows[j], highs[j]
        for r, a, b in bounds[j]:
            if a > 0:
                hi = min(hi, (b - sums[r]) // a)
            else:
                lo = max(lo, -((b - sums[r]) // -a))
        if j == n - 1:
            out.extend(prefix + (x,) for x in range(lo, hi + 1))
            return
        feed = feeds[j]
        base = [sums[r] for r, _ in feed]
        for x in range(lo, hi + 1):
            for (r, a), s in zip(feed, base):
                sums[r] = s + a * x
            visit(j + 1, prefix + (x,))
        for (r, _), s in zip(feed, base):
            sums[r] = s

    visit(0, ())
    return out


def _lattice_polytope(h: HRep, what: str):
    """Vertices of h, which must be a polytope with integral vertices."""
    v = vertices(h)
    if v.rays:
        raise UnsupportedUnbounded(f"{what} needs a polytope")
    for p in v.vertices:
        if any(x.denominator != 1 for x in p):
            raise NonLatticeVertices(f"non-integral vertex {p}")
    return v.vertices


def lattice_points(h: HRep) -> list[tuple[int, ...]]:
    """All integer points of a bounded polyhedron, sorted lexicographically."""
    try:
        v = vertices(h)
    except EmptyPolyhedron:
        return []
    if v.rays:
        raise UnsupportedUnbounded("lattice-point scan needs a bounded polyhedron")
    return _scan(h, *_box(v.vertices))


@dataclass(frozen=True)
class EhrhartData:
    counts: tuple[tuple[int, int], ...]        # (dilation k, #lattice points of kQ)
    coefficients: tuple[Fraction, ...]         # polynomial, lowest degree first

    def evaluate(self, k) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * k + c
        return acc


def _lagrange(points: list[tuple[int, int]]) -> tuple[Fraction, ...]:
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        poly = [Fraction(1)]  # prod_{j != i} (x - xj), expanded
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            new = [Fraction(0)] * (len(poly) + 1)
            for k, c in enumerate(poly):
                new[k + 1] += c
                new[k] -= xj * c
            poly = new
            denom *= xi - xj
        for k, c in enumerate(poly):
            coeffs[k] += Fraction(yi) * c / denom
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def ehrhart(h: HRep, max_dilation: int | None = None) -> EhrhartData:
    """Counts at dilations 0..max_dilation plus the interpolated polynomial.

    Requires a bounded lattice polytope; max_dilation defaults to dim and the
    interpolation is asserted to reproduce every recorded count exactly.
    """
    verts = _lattice_polytope(h, "Ehrhart counting")
    dim = affine_rank(verts)
    if max_dilation is None:
        max_dilation = max(dim, 1)
    if max_dilation < dim:
        raise ValueError("need at least dim+1 interpolation points")
    # the vertices of kQ are k * V(Q); boxes grow with k, so gate the largest
    # one before scanning any
    _box(verts, max_dilation)
    counts = [(0, 1)]
    for k in range(1, max_dilation + 1):
        counts.append((k, len(_scan(h.dilate(k), *_box(verts, k)))))
    coeffs = _lagrange(counts)
    data = EhrhartData(tuple(counts), coeffs)
    if len(coeffs) - 1 > dim:
        raise AssertionError("Ehrhart interpolation exceeded polytope dimension")
    for k, c in counts:
        if data.evaluate(k) != c:
            raise AssertionError("Ehrhart interpolation failed to reproduce a count")
    return data


def is_integrally_closed(h: HRep, dilations=(2, 3)) -> bool:
    """Check that every lattice point of kQ is a sum of k lattice points of Q."""
    verts = _lattice_polytope(h, "integral closure")
    base = _scan(h, *_box(verts))
    base_set = set(base)
    sums = {1: base_set}
    for k in sorted(dilations):
        prev = sums.get(k - 1)
        if prev is None:
            prev = _ksums(base, base_set, k - 1)
        cur = {tuple(a + b for a, b in zip(p, q)) for p in prev for q in base}
        sums[k] = cur
        for z in _scan(h.dilate(k), *_box(verts, k)):
            if z not in cur:
                return False
    return True


def _ksums(base, base_set, k):
    cur = set(base_set)
    for _ in range(k - 1):
        cur = {tuple(a + b for a, b in zip(p, q)) for p in cur for q in base}
    return cur
