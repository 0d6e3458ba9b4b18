"""Shared fixtures: the worked example posets and seeded random generators."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from mpp.degeneration import FaceMap, face_map_via
from mpp.family import _row_writer
from mpp.geometry import (Constraint, EmptyPolyhedron, HRep, face_lattice, make_hrep,
                          vertices)
from mpp.linalg import homogenized
from mpp.rationals import rat_str
from mpp.poset import (MarkedPoset, chain_walker, chains_through, remove_redundant_covers,
                       require_valid, saturated_chains_to, validate)
from mpp.tropical import _difference


def make_ex52() -> MarkedPoset:
    """The running example: markings 0,2,3,4 with unmarked p, q, r."""
    return MarkedPoset(
        elements=("0", "2", "3", "4", "p", "q", "r"),
        covers=frozenset([("0", "p"), ("0", "q"), ("p", "r"), ("q", "r"),
                          ("2", "r"), ("r", "4"), ("p", "3"), ("q", "3")]),
        marking={"0": 0, "2": 2, "3": 3, "4": 4},
    )


def make_chain_poset() -> MarkedPoset:
    """a < p < q < b with lambda(a)=0, lambda(b)=2."""
    return MarkedPoset(
        elements=("a", "p", "q", "b"),
        covers=frozenset([("a", "p"), ("p", "q"), ("q", "b")]),
        marking={"a": 0, "b": 2},
    )


def make_diamond() -> MarkedPoset:
    """bottom < p, q < top."""
    return MarkedPoset(
        elements=("bot", "p", "q", "top"),
        covers=frozenset([("bot", "p"), ("bot", "q"), ("p", "top"), ("q", "top")]),
        marking={"bot": 0, "top": 2},
    )


def make_double_star() -> MarkedPoset:
    """Two chains below q and two above, all through chain elements; q is a
    chain-order star element for C = {c1, c2, d1, d2}, O = {q}."""
    return MarkedPoset(
        elements=("a", "c1", "c2", "q", "d1", "d2", "z"),
        covers=frozenset([("a", "c1"), ("a", "c2"), ("c1", "q"), ("c2", "q"),
                          ("q", "d1"), ("q", "d2"), ("d1", "z"), ("d2", "z")]),
        marking={"a": 0, "z": 3},
    )


def make_grid(m: int, n: int) -> MarkedPoset:
    """Product of chains m x n, bottom marked 0 and top marked m + n."""
    elements = tuple(f"x{i}{j}" for i in range(m) for j in range(n))
    covers = {(f"x{i}{j}", f"x{i + 1}{j}") for i in range(m - 1) for j in range(n)}
    covers |= {(f"x{i}{j}", f"x{i}{j + 1}") for i in range(m) for j in range(n - 1)}
    return MarkedPoset(elements, frozenset(covers), {"x00": 0, f"x{m - 1}{n - 1}": m + n})


def make_marked_interior() -> MarkedPoset:
    """Nine elements with e3 and e4 marked inside: the marking pins enough that
    18 of the 24 partial covectors of its covector search have an empty cell."""
    names = tuple(f"e{i}" for i in range(9))
    covers = [("e0", "e2"), ("e0", "e3"), ("e1", "e2"), ("e2", "e4"), ("e3", "e7"),
              ("e4", "e5"), ("e5", "e7"), ("e6", "e7"), ("e7", "e8")]
    return MarkedPoset(names, frozenset(covers),
                       {"e0": 0, "e1": 0, "e3": 2, "e4": 4, "e6": 0, "e8": 10})


@pytest.fixture
def ex52():
    return make_ex52()


@pytest.fixture
def chain_poset():
    return make_chain_poset()


@pytest.fixture
def diamond():
    return make_diamond()


def heights(elements, lower):
    h = {}

    def height(e):
        if e not in h:
            lows = lower[e]
            h[e] = 0 if not lows else 1 + max(height(q) for q in lows)
        return h[e]

    for e in elements:
        height(e)
    return h


def random_marked_poset(rnd: random.Random, n: int, p_edge: float = 0.45,
                        bounded: bool = True, max_unmarked: int | None = None,
                        mark_extra: float = 0.15, scale: int = 1) -> MarkedPoset:
    """Random valid marked poset with integral marking lambda = scale * height.

    All minimal (and, when bounded, all maximal) elements get marked; the
    marking is strictly order-preserving by construction.
    """
    names = [f"e{i}" for i in range(n)]
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rnd.random() < p_edge:
                edges.add((names[i], names[j]))
    # transitive reduction: drop edges implied by two-step paths
    reach = {a: {b for x, b in edges if x == a} for a in names}
    changed = True
    while changed:
        changed = False
        for a in names:
            for b in list(reach[a]):
                extra = reach[b] - reach[a]
                if extra:
                    reach[a] |= extra
                    changed = True
    covers = {(a, b) for a, b in edges
              if not any(b in reach[m] for m in reach[a])}
    lower = {e: sorted(a for a, b in covers if b == e) for e in names}
    upper = {e: sorted(b for a, b in covers if a == e) for e in names}
    h = heights(names, lower)
    marked = {e for e in names if not lower[e]}
    if bounded:
        marked |= {e for e in names if not upper[e]}
    for e in names:
        if e not in marked and rnd.random() < mark_extra:
            marked.add(e)
    if max_unmarked is not None:
        unmarked = [e for e in names if e not in marked]
        rnd.shuffle(unmarked)
        while len(unmarked) > max_unmarked:
            marked.add(unmarked.pop())
    marking = {e: Fraction(scale * h[e]) for e in marked}
    poset = MarkedPoset(tuple(names), frozenset(covers), marking)
    assert validate(poset) == []
    return poset


def random_ranked_regular_poset(rnd: random.Random, levels: int = 3,
                                max_width: int = 3) -> MarkedPoset:
    """Random ranked poset, regularized, with exactly the bottom and top levels
    marked.  Dropping redundant covers can detach a marked extremal element and
    destroy rankedness, so draws are retried until the result is still ranked."""
    import warnings

    while True:
        layer_sizes = [rnd.randint(1, max_width) for _ in range(levels)]
        names, layers = [], []
        for li, size in enumerate(layer_sizes):
            layer = [f"l{li}n{i}" for i in range(size)]
            layers.append(layer)
            names.extend(layer)
        covers = set()
        for li in range(1, levels):
            for e in layers[li]:
                lows = rnd.sample(layers[li - 1], rnd.randint(1, len(layers[li - 1])))
                covers.update((q, e) for q in lows)
            for q in layers[li - 1]:
                if not any(c[0] == q for c in covers):
                    covers.add((q, rnd.choice(layers[li])))
        gap = max_width
        marking = {}
        for li in (0, levels - 1):
            for i, e in enumerate(layers[li]):
                marking[e] = Fraction(li * gap + i)
        poset = MarkedPoset(tuple(names), frozenset(covers), marking)
        assert validate(poset) == []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = remove_redundant_covers(poset)
        if is_ranked(result):
            return result


def rank_function(poset: MarkedPoset) -> dict[str, int] | None:
    """Rank function with min rank 0 per connected component, or None.

    Requires rk(p) + 1 = rk(q) for covers and lambda strictly increasing
    across ranks of marked elements.
    """
    require_valid(poset)
    rk: dict[str, int] = {}
    for start in poset.elements:
        if start in rk:
            continue
        comp, stack = {start: 0}, [start]
        while stack:
            e = stack.pop()
            for others, want in ((poset.upper_covers(e), comp[e] + 1),
                                 (poset.lower_covers(e), comp[e] - 1)):
                for other in others:
                    if other not in comp:
                        comp[other] = want
                        stack.append(other)
                    elif comp[other] != want:
                        return None
        low = min(comp.values())
        rk.update((e, r - low) for e, r in comp.items())
    m = poset.marking
    return None if any(rk[a] < rk[b] and not m[a] < m[b] for a in m for b in m) else rk


def is_ranked(poset: MarkedPoset) -> bool:
    return rank_function(poset) is not None


def random_rat(rnd, lo, hi, den=4):
    return Fraction(rnd.randint(lo * den, hi * den), rnd.randint(1, den))


def random_hrep(rnd, n):
    """A bounded H-rep in n coordinates with rational data around a rational
    point p: a box, random cuts that keep p, a rescaled and an implied copy of
    the last cut, and sometimes an equation through p (lower-dimensional), an
    equation that may miss p, or a cut that empties the box."""
    coords = tuple(f"x{i}" for i in range(n))
    p = [random_rat(rnd, 0, 1) for _ in range(n)]
    unit = [tuple(Fraction(int(j == i)) for j in range(n)) for i in range(n)]
    ineqs = []
    for e, x in zip(unit, p):
        ineqs.append((e, x + random_rat(rnd, 0, 2), ()))
        ineqs.append((tuple(-a for a in e), -x + random_rat(rnd, 0, 1), ()))
    for _ in range(rnd.randint(1, 4)):
        coeffs = tuple(random_rat(rnd, -3, 3) for _ in range(n))
        if any(coeffs):
            at_p = sum(a * x for a, x in zip(coeffs, p))
            ineqs.append((coeffs, at_p + random_rat(rnd, 0, 2), ()))
    cut, rhs, _ = ineqs[-1]
    scale = Fraction(rnd.randint(1, 5), rnd.randint(1, 5))
    ineqs.append((tuple(scale * a for a in cut), scale * rhs, ()))  # rescaled
    ineqs.append((cut, rhs + random_rat(rnd, 0, 2), ()))             # implied
    eqs = []
    shape = rnd.random()
    if shape < 0.3:
        coeffs = tuple(Fraction(rnd.randint(-2, 2)) for _ in range(n))
        if any(coeffs):
            at_p = sum(a * x for a, x in zip(coeffs, p))
            eqs.append((coeffs, at_p if shape < 0.2 else random_rat(rnd, -1, 2, den=2), ()))
    elif shape < 0.4:
        ineqs.append((unit[0], p[0] - 3, ()))
    return make_hrep(coords, eqs, ineqs)


def random_point(rnd: random.Random, keys, lo=-12, hi=12, den=6):
    return {k: Fraction(rnd.randint(lo, hi), rnd.randint(1, den)) for k in keys}


def random_parameter(rnd: random.Random, poset: MarkedPoset, interior=False):
    from mpp.family import Parameter

    vals = {}
    for p in poset.unmarked:
        if interior:
            d = rnd.randint(2, 7)
            vals[p] = Fraction(rnd.randint(1, d - 1), d)
        else:
            d = rnd.randint(1, 6)
            vals[p] = Fraction(rnd.randint(0, d), d)
    return Parameter(vals)


# -- Fraction transfer maps: the recursions the integer kernel replaced, kept
# -- as oracles for it -----------------------------------------------------------

def fraction_phi(poset: MarkedPoset, t, x) -> dict:
    """phi_t(x)_p = x_p - t_p max over the lower covers q of p of x_q."""
    out = {}
    for p in poset.elements:
        if p in poset.marked:
            out[p] = Fraction(x[p])
        else:
            lows = poset.lower_covers(p)
            out[p] = Fraction(x[p]) - t[p] * max(Fraction(x[q]) for q in lows)
    return out


def fraction_psi(poset: MarkedPoset, t, y) -> dict:
    """psi_t, recursively along a linear extension."""
    out = {}
    for p in poset.linear_extension():
        if p in poset.marked:
            out[p] = Fraction(y[p])
        else:
            out[p] = Fraction(y[p]) + t[p] * max(out[q] for q in poset.lower_covers(p))
    return out


def fraction_theta_projected(poset: MarkedPoset, t, t2, y) -> dict:
    """phi_{t2} after psi_t on the unmarked coordinates, the marked ones
    filled in from the marking."""
    full = {**poset.marking, **{p: Fraction(y[p]) for p in poset.unmarked}}
    out = fraction_phi(poset, t2, fraction_psi(poset, t, full))
    return {p: out[p] for p in poset.unmarked}


def transfer_psi_closed(poset: MarkedPoset, t, y) -> dict:
    """Closed form of psi_t: at an unmarked p, the max over the saturated
    chains c = (p_0, ..., p_r, p) of sum_i y_{c_i} times the product of t
    over the elements after c_i.  Independent of the kernel and of the
    recursion along a linear extension."""
    out = {}
    for p in poset.elements:
        if p in poset.marked:
            out[p] = Fraction(y[p])
            continue
        chains = [chain.below + (p,) for chain in saturated_chains_to(poset, p)]
        out[p] = max(sum(Fraction(y[e]) * math.prod(t[f] for f in c[i + 1:])
                         for i, e in enumerate(c)) for c in chains)
    return out


# -- the maximizing relation and the tightness lemma ------------------------------------

def maximizing_relation(poset: MarkedPoset, x) -> frozenset[tuple[str, str]]:
    """All pairs (q, p) with q < p a cover and x_q maximal among covers of p."""
    pairs = set()
    for p in poset.elements:
        lows = poset.lower_covers(p)
        if lows:
            mx = max(x[q] for q in lows)
            pairs.update((q, p) for q in lows if x[q] == mx)
    return frozenset(pairs)


def chain_tight(poset: MarkedPoset, t, x, chain) -> bool:
    """Whether the chain's inequality is tight at phi_t(x), for x in O(P, lambda).

    Evaluates the pullback conditions: either t_p = 1 and x_p maximal among its
    covers, or t_p < 1, x constant on the chain's last step, and the maximizing
    relation holds from the first index after which all t_{p_i} are positive.
    """
    p = chain.target
    mx = max(x[q] for q in poset.lower_covers(p))
    if p not in poset.marked and t[p] == 1:
        return x[p] == mx
    below = chain.below
    r = len(below) - 1
    if x[p] != x[below[r]]:
        return False
    k = r + 1
    for i in range(r, 0, -1):
        if t[below[i]] > 0:
            k = i
        else:
            break
    for i in range(k, r + 1):
        if x[below[i - 1]] != max(x[q] for q in poset.lower_covers(below[i])):
            return False
    return True


def make_ex52_rational() -> MarkedPoset:
    """ex52 with the rational marking 0, 1/2, 3/4, 5/3."""
    poset = make_ex52()
    return MarkedPoset(poset.elements, poset.covers,
                       {"0": 0, "2": Fraction(1, 2), "3": Fraction(3, 4),
                        "4": Fraction(5, 3)})


def sevenths_and_fifths(rnd: random.Random, names, interior=True) -> dict:
    """t values over denominators 5 and 7, mixed across coordinates; with
    interior False some coordinates are pinned to 0 or 1."""
    vals = {}
    for p in names:
        if not interior and rnd.random() < 0.4:
            vals[p] = Fraction(rnd.randint(0, 1))
        else:
            d = rnd.choice((5, 7))
            vals[p] = Fraction(rnd.randint(1, d - 1), d)
    return vals


# -- the marking checks over Fractions -----------------------------------------------
# MarkedPoset compares marking values as ints over their common denominator;
# these compare the Fractions themselves, scanning every sorted cover.

def fraction_top_marking(poset: MarkedPoset) -> dict:
    """The largest marking value strictly below each element, or None, as a
    max over the Fractions of the lower covers along a linear extension."""
    top = {}
    for e in poset.linear_extension():
        top[e] = max((v for c in poset.lower_covers(e)
                      for v in (top[c], poset.marking.get(c)) if v is not None), default=None)
    return top


def fraction_problems(poset: MarkedPoset) -> list[str]:
    """validate(poset), each cover tested on its own and the marking through
    fraction_top_marking."""
    if not poset.is_acyclic:
        return ["cycle in covering relations"]
    report = []
    lt, marking, top = poset.lt, poset.marking, fraction_top_marking(poset)
    for p, q in sorted(poset.covers):
        if any(lt(p, c) for c in poset.lower_covers(q)):
            report += [f"non-covering pair ({p}, {q}): {w} lies strictly between"
                       for w in poset.elements if w != p and w != q and lt(p, w) and lt(w, q)]
    if any(top[b] is not None and top[b] > v for b, v in marking.items()):
        report += [f"marking not order-preserving: {a} < {b} but lambda({a}) > lambda({b})"
                   for a in sorted(marking) for b in sorted(marking)
                   if lt(a, b) and marking[a] > marking[b]]
    report += [f"unmarked minimal element {e}" for e in sorted(poset.elements)
               if not poset.lower_covers(e) and e not in poset.marking]
    return report


def fraction_ideal_levels(poset: MarkedPoset) -> dict:
    """MarkedPoset._ideal_levels keyed by the marking values themselves, a
    free element being one whose fraction_top_marking is at most the value."""
    below, bit, top = poset._below, poset._bit, fraction_top_marking(poset)
    unmarked = [e for e in poset.linear_extension() if e not in poset.marking]
    bases, grown = {}, 0
    for a, v in sorted(poset.marking.items(), key=lambda item: item[1]):
        grown = bases[v] = grown | below[a] | bit[a]
    return {v: (base, tuple((bit[e], sum(bit[c] for c in poset.lower_covers(e)
                                         if not base & bit[c]))
                            for e in unmarked if not base & bit[e] and top[e] <= v))
            for v, base in bases.items()}


# -- oracle helpers for geometry objects --------------------------------------------

def triples(constraints) -> list:
    """Constraints as the (coeffs, rhs, origin) triples make_hrep reads."""
    return [(c.coeffs, c.rhs, c.origin) for c in constraints]


def dilate(h: HRep, k) -> HRep:
    """The H-rep of k * h: every right-hand side times k."""
    k = Fraction(k)
    return make_hrep(h.coords, [(c.coeffs, k * c.rhs, c.origin) for c in h.equations],
                     [(c.coeffs, k * c.rhs, c.origin) for c in h.inequalities])


def faces_by_vertex_ids(lat) -> dict:
    """The faces of a FaceLattice keyed by their vertex-id sets."""
    return {f.vertex_ids: f for f in lat.faces}


def barycenter(points) -> tuple[Fraction, ...]:
    """The average of a nonempty list of rational points."""
    return tuple(sum(col, Fraction(0)) / len(points) for col in zip(*points))


# -- the pentagon-to-rectangle regression fixture -----------------------------------

def contdeg_hrep(t) -> HRep:
    """The toy deformation: 0 <= x1 <= 2, 0 <= x2, x2 <= (1-t)x1 + 1,
    x2 <= (1-t)(2-x1) + 1.  Pentagon at t=0, rectangle at t=1."""
    t = Fraction(t)
    one, zero = Fraction(1), Fraction(0)
    return make_hrep(
        ("x1", "x2"),
        [],
        [((Fraction(-1), zero), zero, ("x1-low",)),
         ((one, zero), Fraction(2), ("x1-high",)),
         ((zero, Fraction(-1)), zero, ("x2-low",)),
         ((-(one - t), one), one, ("roof-left",)),
         (((one - t), one), one + 2 * (one - t), ("roof-right",))],
    )


def contdeg_rho(t, point):
    """The deformation map of the fixture (piecewise-rational, exact)."""
    t = Fraction(t)
    x1, x2 = Fraction(point[0]), Fraction(point[1])
    if x1 <= 1:
        return (x1, x2 * ((1 - t) * x1 + 1) / (x1 + 1))
    return (x1, x2 * ((1 - t) * (2 - x1) + 1) / ((2 - x1) + 1))


def contdeg_face_map() -> FaceMap:
    """Face map of the pentagon -> rectangle degeneration via rho_1."""
    h0 = contdeg_hrep(0)
    h1 = contdeg_hrep(1)
    lat0, lat1 = face_lattice(h0, vertices(h0)), face_lattice(h1, vertices(h1))

    def rho(homs):
        return [homogenized([contdeg_rho(1, [Fraction(x, hom[0]) for x in hom[1:]])])[0]
                for hom in homs]

    return face_map_via(lat0, h1, lat1, rho)


# -- Fraction H-rep builders: the row builders the integer ones replaced, kept
# -- as oracles for them ------------------------------------------------------------

def fraction_make_hrep(coords, equations, inequalities):
    """(coords, equations, inequalities) as Constraint tuples from
    (coeffs, rhs, origin) triples, in Fractions: a constant row is dropped
    when it holds and raises EmptyPolyhedron when it fails."""
    def rows(triples, kind, violated):
        out = []
        for coeffs, rhs, origin in triples:
            coeffs, rhs = tuple(map(Fraction, coeffs)), Fraction(rhs)
            if not any(coeffs):
                if violated(rhs):
                    raise EmptyPolyhedron(f"constant {kind} violated (origin {origin})")
                continue
            out.append(Constraint(coeffs, rhs, tuple(origin)))
        return tuple(out)

    return (tuple(coords), rows(equations, "equation", lambda rhs: rhs != 0),
            rows(inequalities, "inequality", lambda rhs: rhs < 0))


def fraction_row(poset: MarkedPoset, index, terms):
    """(coeffs, rhs) of sum(c * x_e for e, c in terms) <= 0 over the
    coordinates in index; a marked term outside index moves into rhs."""
    row = [Fraction(0)] * len(index)
    rhs = Fraction(0)
    for e, c in terms:
        if e in index:
            row[index[e]] += c
        else:
            rhs -= c * poset.marking[e]
    return tuple(row), rhs


def _fraction_hrep(poset: MarkedPoset, rows, projected: bool):
    coords = poset.unmarked if projected else poset.elements
    index = {e: i for i, e in enumerate(coords)}
    eqs = [] if projected else [(tuple(Fraction(e == a) for e in coords),
                                 poset.marking[a], ("marking", a))
                                for a in sorted(poset.marking)]
    ineqs = [fraction_row(poset, index, terms) + (origin,) for terms, origin in rows]
    return fraction_make_hrep(coords, eqs, ineqs)


def fraction_hrep_general(poset: MarkedPoset, t, projected: bool = True):
    """hrep_general's (coords, equations, inequalities) with every weight a
    Fraction suffix product of t."""
    one = Fraction(1)
    rows = []
    for p in poset.elements:
        marked = p in poset.marked
        for chain in saturated_chains_to(poset, p):
            below = chain.below
            if marked and len(below) == 1:
                continue
            terms = [(p, -one)]
            w = one if marked else one - t[p]
            for i in range(len(below) - 1, 0, -1):
                terms.append((below[i], w))
                w *= t[below[i]]
            terms.append((below[0], w))
            rows.append((terms, ("chain",) + below + (p,)))
    return _fraction_hrep(poset, rows, projected)


def fraction_hrep_chain_order(poset: MarkedPoset, part, projected: bool = True):
    """hrep_chain_order's (coords, equations, inequalities) in Fractions."""
    one = Fraction(1)
    rows = [([(p, -one)], ("nonneg", p)) for p in sorted(part.C)]
    for a, mids, b in chains_through(poset, part.C, poset.marked | part.O):
        if a in poset.marked and b in poset.marked and not mids:
            continue
        rows.append(([(e, one) for e in (a,) + mids] + [(b, -one)],
                     ("cochain", a) + mids + (b,)))
    return _fraction_hrep(poset, rows, projected)


def fraction_int_row(c: Constraint) -> tuple[int, ...]:
    """The row (-rhs, coeffs) of c as a primitive integer row, scaled from
    its Fractions."""
    row = (-c.rhs,) + c.coeffs
    m = math.lcm(*(x.denominator for x in row))
    ints = [int(x * m) for x in row]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def fraction_hrep_json(coords, equations, inequalities) -> dict:
    """hrep_to_json from Constraint tuples, each value by rat_str."""
    def row(c):
        return {"coeffs": {coords[i]: rat_str(x) for i, x in enumerate(c.coeffs) if x != 0},
                "rhs": rat_str(c.rhs), "origin": list(c.origin)}

    return {"coords": list(coords), "equations": [row(c) for c in equations],
            "inequalities": [row(c) for c in inequalities]}


def primitive(a) -> tuple[Fraction, ...]:
    """Scale a rational vector by a positive factor to a primitive integer
    vector (of Fractions)."""
    if not any(a):
        return tuple(Fraction(0) for _ in a)
    m = math.lcm(*(x.denominator for x in a))
    ints = [int(x * m) for x in a]
    g = math.gcd(*ints)
    return tuple(Fraction(n // g) for n in ints)


def normalized(c: Constraint):
    """Positive-scale canonical form of a constraint: (primitive coeffs,
    rhs scaled alike)."""
    p = primitive(c.coeffs)
    nz = next(x for x in c.coeffs if x != 0)
    scale = next(x for x in p if x != 0) / nz
    return p, c.rhs * scale


def det(a_rows) -> Fraction:
    """Determinant by Gaussian elimination over Fractions."""
    n = len(a_rows)
    m = [[Fraction(x) for x in r] for r in a_rows]
    result = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            result = -result
        result *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Oracle of mpp.linalg: the reduced row echelon form of the rows by
    Gauss-Jordan over Fractions, and its pivot columns."""
    m = [[Fraction(x) for x in r] for r in rows]
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


def is_unimodular(matrix) -> bool:
    """An integer matrix of determinant +-1."""
    ints = all(x.denominator == 1 for row in matrix for x in row)
    return ints and abs(det(matrix)) == 1


def unimodular_move(poset: MarkedPoset, part, q: str):
    """(M, b): the map x -> M x + b on poset.unmarked that carries O_{C,O}
    onto O_{C+q,O-q} when q is not a chain-order star element, read off
    the single saturated chain through C from P* | O below q (or, failing
    that, above q); None when neither is single.  A marked end of the chain
    enters the translation b."""
    stops = poset.marked | part.O
    down = chain_walker(poset, part.C, stops)(q)
    up = chain_walker(poset, part.C, stops, upward=True)(q)
    if len(down) == 1:
        sign, (s, *mids) = 1, down[0]
    elif len(up) == 1:
        sign, (*mids, s) = -1, up[0]
    else:
        return None
    index = {e: i for i, e in enumerate(poset.unmarked)}
    n = len(index)
    matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    offset = [0] * n
    row = matrix[index[q]]
    row[index[q]] = sign
    for m in mids:
        row[index[m]] -= 1
    if s in poset.marked:
        offset[index[q]] = -sign * poset.marking[s]
    else:
        row[index[s]] -= sign
    return tuple(map(tuple, matrix)), tuple(offset)


# -- the full covector search -----------------------------------------------------------

def covector_cell_rows(poset: MarkedPoset, write, tau: dict) -> tuple[list, list]:
    """The integer rows (equations, inequalities) pinning the closed
    arrangement cell F_tau of a covector tau with any types; write is
    family._row_writer of the projected coordinates."""
    eqs, ineqs = [], []
    for r, members in sorted(tau.items()):
        m0, *rest = sorted(members)
        for m in rest:
            eqs.append(_difference(write, m, m0, ("covector-eq", r, m0, m)))
        for other in poset.lower_covers(r):
            if other not in members:
                ineqs.append(_difference(write, other, m0, ("covector-le", r, other, m0)))
    return eqs, ineqs


def full_covector_cells(poset: MarkedPoset, arr, base: HRep):
    """Oracle of tropical._covector_cells: (tau, H-rep, V-rep) of every
    covector tau whose closed cell meets the base polytope, each type tau(r)
    any nonempty subset of the hyperplane's support, in lexicographic order
    by size.  A partial covector is dropped once its cell is empty, and DD
    runs from scratch at every node."""
    write = _row_writer(poset, base.coords)
    supports = [(r, sorted(form.support)) for r, form in arr.hyperplanes]
    found = []

    def rec(i, partial):
        try:
            h = base.with_rows(*covector_cell_rows(poset, write, partial))
            v = vertices(h)
        except EmptyPolyhedron:
            return
        if i == len(supports):
            found.append((dict(partial), h, v))
            return
        r, support = supports[i]
        for size in range(1, len(support) + 1):
            for members in itertools.combinations(support, size):
                partial[r] = frozenset(members)
                rec(i + 1, partial)
                del partial[r]

    rec(0, {})
    return found
