"""Lattice points, Ehrhart interpolation, and integral-closure checks.

Lattice points are enumerated depth-first over the coordinates inside the
exact vertex bounding box, each coordinate bounded by the constraint rows
given the coordinates fixed before it, so no box point is tested on its own.
The rows are the H-rep's cached primitive integer rows, each distinct row
once, a dilation k scales their right-hand sides, and coordinates the box
pins to one value are folded into the right-hand sides, so the search is in
Python ints over the free coordinates only.  The last free coordinate's
range is taken inline, in its parent's loop.  Ehrhart counts add up its
width and build no point.

The search is memoized on its frontier.  Below a prefix, the points left
depend only on the level and on the running sums of the live rows: those
that a coordinate before the level feeds and a bound at or after it reads.
Each level keeps a memo keyed by those sums, so each residual subproblem is
searched once.  A count stores its subtree's count.  A listing stores the
range of its output that the first visit wrote, with that visit's prefix
length, and a repeat appends the same suffixes after its own prefix.  The
memo holds no text of its own.

A listed point is built as the search goes: each level extends its parent's
prefix by one step, and the last level's range is emitted in one pass.  The
steps are tuples of ints, or, when the caller passes a row's text pieces
(open, separator, close), strings, so that a point comes out as its
finished text row and each prefix's digits are formatted once per search
node, not once per point.

The vertex bounding box bounds the search but does not gate a listing:
`lattice_points` may list at most POINT_BUDGET points, replayed ones
included, and visit at most NODE_BUDGET search nodes per free coordinate,
nodes below a memo hit not counted, and raises TooLarge, naming what it
counted, when either runs out.  `ehrhart` and `is_integrally_closed`
gate their boxes at BOX_GATE candidates before they search.

The Ehrhart counts of O_0(P, lambda) with an integral marking, bounded,
need no polytope: `ideal_ehrhart` sums Stanley's chain-of-ideals count over
the poset's levels of order ideals (see there), `counted_by_ideals` says
when it applies, and `ehrhart_at` takes it then.  The count refuses while it
grows the ideals, once their number times the unmarked elements + 1 times
the dilations + 1 exceeds IDEAL_BUDGET.

EhrhartData is an immutable record (see mpp.records): a named tuple, so it
also iterates, sorts and equals the plain tuple of its fields.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction

from .family import hrep_general
from .geometry import (EmptyPolyhedron, HRep, NonLatticeVertices, TooLarge,
                       UnsupportedUnbounded, VRep, _dimension, vertices)
from .poset import MarkedPoset, _grow_ideals, require_valid
from .rationals import rat_str

BOX_GATE = 10 ** 7      # box candidates of an Ehrhart count or a closure check
POINT_BUDGET = 10 ** 7  # points a listing returns
NODE_BUDGET = 10 ** 7   # search nodes a listing visits, per free coordinate
IDEAL_BUDGET = 10 ** 7  # order ideals x (unmarked + 1) x (dilations + 1) at t = 0


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
    opposite rows) with their right-hand sides times k, each distinct row
    once.  A coordinate whose box is one value is pinned: its term moves
    into the right-hand sides, and points get its value back in place.  The
    search runs depth-first over the free coordinates in order.  With s the
    sum of a_i * x_i over the coordinates already fixed and m the least
    value the terms after x_j take in the box, a row a . x <= b requires
    a_j * x_j <= b - s - m: a cap on x_j if a_j > 0, a floor if a_j < 0.
    At the row's last nonzero coordinate m = 0 and this is the row itself,
    so every point is checked exactly; before it, the bound cuts prefixes
    with no completion in the box.  Bounds that cannot cut inside the box
    are dropped.  At the last free coordinate the points are the whole
    range left, taken in the parent's loop, so counting adds its width and
    builds no point.

    The subtree below a prefix fixed up to x_{i-1} depends only on i and on
    sums[r] for the live rows r of level i: rows with a bound at some x_j,
    j >= i, and a nonzero coefficient before x_i.  Every other row's sum is
    0 there or is never read below.  So memo[i] maps those sums to the
    subtree's count, or for a listing to (start, end, cut): out[start:end]
    are the points the first visit wrote, each its prefix of length cut
    followed by a suffix.  A repeat appends prefix + p[cut:] for each p in
    that range, in the same order, so the listing is the unmemoized one
    point for point.

    The search raises TooLarge when it has listed more than POINT_BUDGET
    points, a repeat's points included, or visited more than NODE_BUDGET
    nodes per free coordinate; a memo hit visits no node below it.
    """
    empty = 0 if count else []
    if any(lo > hi for lo, hi in zip(lows, highs)):
        return empty
    free = [j for j, (lo, hi) in enumerate(zip(lows, highs)) if lo < hi]
    pins = [(1 + j, lo) for j, (lo, hi) in enumerate(zip(lows, highs)) if lo == hi]
    eqs = h.int_equations
    rows = {}  # the distinct (coefficients on the free coordinates, right-hand side)
    for row in h.int_inequalities + eqs + tuple(tuple(-a for a in r) for r in eqs):
        coeffs = tuple(row[1 + j] for j in free)
        rhs = -row[0] * k - sum(row[j] * v for j, v in pins)
        if any(coeffs):
            rows[coeffs, rhs] = None
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
    live = [[] for _ in range(n)]    # rows fed before x_i that bound an x_j, j >= i
    for r, (coeffs, rhs) in enumerate(rows):
        # the row's nonzero terms a * x_j, with the least and the most that
        # each takes in the box
        terms = [(j, a, a * lows_f[j], a * highs_f[j]) if a > 0 else
                 (j, a, a * highs_f[j], a * lows_f[j]) for j, a in enumerate(coeffs) if a]
        # rest: least of the terms after x_j, top: most of the terms up to x_j;
        # reach - 1: the last level not yet recorded where a bound reads the
        # row, so a coefficient on x_j makes it live at j + 1 .. reach - 1
        rest, top, reach = 0, sum(t[3] for t in terms), 0
        for j, a, least, most in reversed(terms):
            if reach:
                feeds[j].append((r, a))
                for i in range(j + 1, reach):
                    live[i].append(r)
                reach = j + 1
            if rhs - rest < top:  # the row can cut x_j inside the box
                bounds[j].append((r, a, rhs - rest))
                reach = reach or j + 1
            top -= most
            rest += least
    # a listing builds each level's steps over its whole box range first
    wide = max(free, key=lambda j: highs[j] - lows[j])
    if highs[wide] - lows[wide] >= NODE_BUDGET:
        raise TooLarge(f"coordinate {h.coords[wide]} takes {highs[wide] - lows[wide] + 1} "
                       f"values in the box (budget {NODE_BUDGET} search nodes)")
    last = n - 1
    out = head = steps = None  # a count builds no point
    if not count:
        # steps[i][x - lows_f[i]]: x, then the pinned values up to the next
        # free coordinate; a point is the pinned head followed by one step per
        # level.  Each level's steps cover its whole box range.
        out = []
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
    nodes, node_budget = 1, NODE_BUDGET * n

    def span(i):
        """The range of x_i that the coordinates fixed before it leave."""
        lo, hi = lows_f[i], highs_f[i]
        for r, a, b in bounds[i]:
            if a > 0:
                hi = min(hi, (b - sums[r]) // a)
            else:
                lo = max(lo, -((b - sums[r]) // -a))
        return lo, hi

    def room(more):
        """Refuse a listing that more points would take past POINT_BUDGET."""
        listed = len(out) + more
        if listed > POINT_BUDGET:
            raise TooLarge(f"the lattice-point search listed {listed} points "
                           f"before it ended (budget {POINT_BUDGET})")

    def emit(prefix, lo, hi):
        """List the points prefix + each last-level step from lo to hi."""
        room(hi - lo + 1)
        base = lows_f[last]
        out.extend(map(prefix.__add__, steps[last][lo - base:hi - base + 1]))

    # per level, the live rows' sums -> the subtree's count, or for a listing
    # (start, end, cut): out[start:end] are its points, each after a prefix
    # of length cut
    memo = [{} for _ in range(n)]

    def visit(i, prefix):
        """The points below a prefix fixed up to x_{i-1}, for i < last,
        searched once per key and then taken from the memo."""
        key = tuple(map(sums.__getitem__, live[i]))
        seen = memo[i].get(key)
        if seen is not None:
            if count:
                return seen
            start, end, cut = seen
            room(end - start)
            out.extend([prefix + p[cut:] for p in out[start:end]])
            return end - start
        found = search(i, prefix)
        memo[i][key] = found if count else (len(out) - found, len(out), len(prefix))
        return found

    def search(i, prefix):
        """visit's search itself, when the subtree is not in the memo."""
        nonlocal nodes
        lo, hi = span(i)
        if lo > hi:
            return 0
        nodes += hi - lo + 1
        if nodes > node_budget:
            raise TooLarge(f"the lattice-point search visited {nodes} nodes over {n} "
                           f"free coordinates (budget {NODE_BUDGET} per coordinate)")
        feed, found, base = feeds[i], 0, lows_f[i]
        step = None if steps is None else steps[i]
        if i + 1 < last:
            saved = [sums[r] for r, _ in feed]
            for x in range(lo, hi + 1):
                for (r, a), s in zip(feed, saved):
                    sums[r] = s + a * x
                found += visit(i + 1, None if step is None else prefix + step[x - base])
            for (r, _), s in zip(feed, saved):
                sums[r] = s
            return found
        # the last level's range for each x, inline: a cap or a floor
        # (c - d * x) // a per bound, d the row's coefficient on x
        coef = dict(feed)
        caps = [(a, b - sums[r], coef.get(r, 0)) for r, a, b in bounds[last] if a > 0]
        floors = [(-a, b - sums[r], coef.get(r, 0)) for r, a, b in bounds[last] if a < 0]
        low, high = lows_f[last], highs_f[last]
        for x in range(lo, hi + 1):
            top = high
            for a, c, d in caps:
                v = (c - d * x) // a
                if v < top:
                    top = v
            bottom = low
            for a, c, d in floors:
                v = -((c - d * x) // a)
                if v > bottom:
                    bottom = v
            if bottom <= top:
                found += top - bottom + 1
                if step is not None:
                    emit(prefix + step[x - base], bottom, top)
        return found

    if n > 1:
        # visit and search refer to each other: the del breaks the cycle, so
        # that the memo is freed now and not at the next full collection
        try:
            found = visit(0, head)
        finally:
            del visit, search
        return found if count else out
    lo, hi = span(0)
    if lo > hi:
        return empty
    if count:
        return hi - lo + 1
    emit(head, lo, hi)
    return out


def _lattice_polytope(h: HRep, what: str) -> VRep:
    """The V-rep of h, which must be a polytope with integral vertices: its
    rows are (1, v), over the common denominator 1."""
    v = vertices(h)
    if v.rays:
        raise UnsupportedUnbounded(f"{what} needs a polytope")
    if v.rows[0][0] != 1:
        p = next(p for p in v.vertices if any(x.denominator != 1 for x in p))
        raise NonLatticeVertices(f"non-integral vertex ({', '.join(map(rat_str, p))})")
    return v


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


def _dilations(max_dilation: int | None, dim: int) -> int:
    """The last dilation to report: max_dilation, by default max(dim, 1).
    Raises ValueError if the counts at 0..max_dilation cannot fix a
    polynomial of degree dim."""
    if max_dilation is None:
        return max(dim, 1)
    if max_dilation < dim:
        raise ValueError(f"dilations up to {max_dilation} are too few for a polytope of "
                         f"dimension {dim}: the interpolation needs dilations 0..{dim}, "
                         f"so the least value accepted is {dim}")
    return max_dilation


def _fit(counts: list[tuple[int, int]], through: int) -> EhrhartData:
    """EhrhartData of the counts at dilations 0, 1, ...: the polynomial
    through the counts at 0..through, with its zero leading coefficients
    trimmed; every later count must agree with it."""
    coeffs, den = _interpolate([c for _, c in counts[:through + 1]])
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    for k, c in counts[through + 1:]:
        if sum(a * k ** i for i, a in enumerate(coeffs)) != c * den:
            raise AssertionError("Ehrhart interpolation failed to reproduce a count")
    return EhrhartData(tuple(counts), tuple(Fraction(a, den) for a in coeffs))


def ehrhart(h: HRep, max_dilation: int | None = None) -> EhrhartData:
    """Counts at dilations 0..max_dilation plus the interpolated polynomial.

    Requires a bounded lattice polytope; max_dilation defaults to dim (at
    least 1).  The polynomial, of degree dim (its leading coefficient is the
    relative volume), interpolates the counts at 0..dim; every further count
    must agree with it.
    """
    v = _lattice_polytope(h, "Ehrhart counting")
    rows, dim = v.rows, _dimension(h, v)
    max_dilation = _dilations(max_dilation, dim)
    # the vertices of kQ are k * V(Q); boxes grow with k, so gate the largest
    # one before scanning any
    extremes = _extremes(rows)
    _box(extremes, max_dilation)
    counts = [(0, 1)]
    for k in range(1, max_dilation + 1):
        counts.append((k, _scan(h, *_box(extremes, k), k=k, count=True)))
    return _fit(counts, dim)


# -- Ehrhart counts of O_0 over the order ideals -----------------------------

def counted_by_ideals(poset: MarkedPoset, t) -> bool:
    """Whether ideal_ehrhart counts O_t(P, lambda): t = 0, the marking is
    integral, and every maximal element is marked.  O_0 is then a lattice
    polytope; it is bounded exactly when every maximal element is marked."""
    return (not any(t.values.values())
            and all(v.denominator == 1 for v in poset.marking.values())
            and all(e in poset.marking for e in poset.elements if not poset.upper_covers(e)))


def _levels(poset: MarkedPoset, values: list[int], weight: int):
    """Per level l = 0..len(values), (base, free, ideals) of the order
    ideals of P whose marked elements are those of the l least values: base
    and the bits of free from MarkedPoset._ideal_levels (level 0 is the
    empty ideal alone), and ideals those of the free elements, grown from 0.
    Raises TooLarge as soon as the ideals built, over all levels, times
    weight exceed IDEAL_BUDGET."""
    levels, built = [], 0
    for base, free in [(0, ())] + [poset._ideal_levels[v] for v in values]:
        ideals = _grow_ideals(free, 0, IDEAL_BUDGET // weight - built)
        built += len(ideals)
        if built * weight > IDEAL_BUDGET:
            raise TooLarge(f"the Ehrhart count at t = 0 built {built} order ideals before "
                           f"it ended, and that times {weight} (unmarked elements + 1, "
                           f"times dilations + 1) exceeds its budget of {IDEAL_BUDGET}")
        levels.append((base, [b for b, _ in free], ideals))
    return levels


def _pack(values: list[int], size: int) -> int:
    """One int holding values in slots of size bytes, the first lowest."""
    return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in values), "little")


def _unpack(value: int, size: int, count: int) -> list[int]:
    """The count slots of size bytes of value, lowest first."""
    data = value.to_bytes(size * count, "little")
    return [int.from_bytes(data[k:k + size], "little") for k in range(0, size * count, size)]


def ideal_ehrhart(poset: MarkedPoset, max_dilation: int | None = None) -> EhrhartData:
    """ehrhart of O_0(P, lambda) in the full space, counted over the order
    ideals of P without a polytope: counted_by_ideals(poset, 0) must hold.

    A point x of k * O_0 has one chain of level sets, the order ideals
    {x <= y}: blocks of equal values, with strictly increasing values from
    block to block.  A block with marked elements takes their value k * w,
    and must hold every marked element of value w not in an earlier block;
    a run of j unmarked blocks between marked values k * v < k * w takes
    any j values in between, C(k (w - v) - 1, j) ways (Stanley's count of
    the order polynomial by chains of ideals, "Two poset polytopes", 1986,
    with marked blocks).  So every ideal of the chain lies on a level (see
    _levels), and the marked blocks step from one level to the next.  On a
    level, R_j(I) counts the ways to reach I with j unmarked blocks since
    the last marked one: R_{j+1}(I) is the sum of R_j over the ideals of the
    level strictly inside I, from one zeta transform over the level's ideals
    (one addition per cover), and an ideal I' of the next level starts with
    the sum over j of that transform at the largest ideal of the level
    inside I', its free part I' & free, times C(k (w - v) - 1, j).

    The values are ints.  Up to level 1 they do not depend on k.  From
    level 2 on, one int holds the values at every dilation, one slot of
    whole bytes per dilation, so that a sum is one int addition.  On a level
    with m free elements, every value at dilation k is at most the sum of
    the level's starting values at k times (m + 1)^m, the strict chains of
    ideals of length at most m from one ideal (each free element joins one
    of their blocks or none), so slots as wide as the largest such bound
    never carry.  The count of k * O_0 is the value of P, the one ideal of
    the last level.

    The polynomial interpolates the counts at 0..n, n the number of
    unmarked elements and at least dim, so its trimmed degree is dim;
    counts past n must agree with it.  The work is at most about the
    number of ideals times n + 1 block counts times the dilations + 1, and
    _levels refuses past IDEAL_BUDGET of it before any sum."""
    require_valid(poset)
    n = len(poset.unmarked)
    last = max(n, 1, max_dilation or 0)  # the dilations counted: 1..last
    values = sorted({int(v) for v in poset.marking.values()})
    levels = _levels(poset, values, (n + 1) * (last + 1))
    # R_0 on level 1 (on level 0 for the empty poset): the first block
    # reaches each ideal there in one way
    r, size = [1] * len(levels[min(1, len(values))][2]), 0
    for level, ((_, free, ideals), (base, free_above, above)) in enumerate(
            zip(levels[1:], levels[2:]), 1):
        pos = {i: p for p, i in enumerate(ideals)}
        # (I, I - e) over the covers of the level's ideals, e along the
        # linear extension: the zeta transform's order
        covers = [(p, pos[i ^ b]) for b in free for p, i in enumerate(ideals)
                  if i & b and i ^ b in pos]
        mask = sum(free)
        inside = [pos[(base | i) & mask] for i in above]
        starts = {p: [0] * last for p in inside}  # by inside, per dilation
        for j in itertools.count():
            z = list(r)  # its zeta transform: the sums over the ideals inside
            for p, q in covers:
                z[p] += z[q]
            weight = [math.comb(k * (values[level] - values[level - 1]) - 1, j)
                      for k in range(1, last + 1)]
            for p, start in starts.items():
                if z[p]:
                    found = (_unpack(z[p], size, last) if level > 1
                             else itertools.repeat(z[p]))
                    starts[p] = list(map(operator.add, start,
                                         map(operator.mul, weight, found)))
            r = [zp - rp for zp, rp in zip(z, r)]
            if not any(r):
                break
        # R_0 on the next level, one slot of whole bytes per dilation
        entry = [starts[p] for p in inside]
        bound = max(map(sum, zip(*entry))) * (len(free_above) + 1) ** len(free_above)
        size = bound.bit_length() // 8 + 1
        r = [_pack(e, size) for e in entry]
    counts = _unpack(r[0], size, last) if len(levels) > 2 else [r[0]] * last
    data = _fit([(0, 1)] + list(enumerate(counts, 1)), n)
    return EhrhartData(data.counts[:_dilations(max_dilation, len(data.coefficients) - 1) + 1],
                       data.coefficients)


def ehrhart_at(poset: MarkedPoset, t, max_dilation: int | None = None) -> EhrhartData:
    """ehrhart of O_t(P, lambda) in the full space, where the marked
    coordinates count too: ideal_ehrhart when counted_by_ideals holds, else
    the lattice points of hrep_general(poset, t)."""
    if counted_by_ideals(poset, t):
        return ideal_ehrhart(poset, max_dilation)
    return ehrhart(hrep_general(poset, t, projected=False), max_dilation)


def is_integrally_closed(h: HRep, dilations=(2, 3)) -> bool:
    """Check that every lattice point of kQ is a sum of k lattice points of Q,
    for each k in dilations (k = 0 and k = 1 hold for every polytope).

    Each fold adds every point of Q to every sum so far; a fold of more than
    BOX_GATE such pairs raises TooLarge before it starts."""
    dilations = sorted(set(dilations))
    if dilations and dilations[0] < 0:
        raise ValueError(f"dilations must be nonnegative, got {dilations[0]}")
    extremes = _extremes(_lattice_polytope(h, "integral closure").rows)
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
