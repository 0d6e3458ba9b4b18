"""The parametrized family O_t(P, lambda): inequality descriptions for any
parameter in the hypercube, the piecewise-linear transfer maps between family
members, redundancy elimination, and tameness.

Both inequality descriptions are written in one pass as integer rows
through one table of slots (`_slots`): each term goes straight into its
final column, a marked term into the right-hand side when projected, over
one common denominator of t and one of the marking.  Chain weights are
suffix products of the numerators of t along the chain, written straight
from the chains of the walker cached on the poset.

Redundancy and tameness are read off the double description, with no LP:
each inequality's tight vertices and recession rays form a bitmask, and the
facets are the inclusion-maximal masks that hold a vertex and are not full.

Parameter and Partition are immutable records (see mpp.records): named
tuples, so each also iterates, sorts and equals the plain tuple of its
fields; t[p] on a Parameter is its coordinate p, not a field.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

from .geometry import EmptyPolyhedron, HRep, TooLarge, VRep, facet_masks, vertices
from .poset import MarkedPoset, PosetError, chain_counts, chains_through, require_valid
from .rationals import rat
from .records import Frozen, cached_property

ZERO = Fraction(0)
ONE = Fraction(1)
SWEEP_CAP = 12  # the most unmarked elements that a tameness or CLI sweep accepts


class Parameter(Frozen, namedtuple("Parameter", "values")):
    """A point t of the parametrizing hypercube [0,1]^unmarked; t[p] is
    its coordinate p."""

    values: Mapping[str, Fraction]  # stored read-only

    def __new__(cls, values):
        self = super().__new__(cls, MappingProxyType({k: rat(v) for k, v in values.items()}))
        for p, v in self.values.items():
            if not (0 <= v.numerator <= v.denominator):  # 0 <= v <= 1, compared in ints
                raise ValueError(f"t_{p} = {v} outside [0, 1]")
        return self

    def __hash__(self):
        return hash(tuple(sorted(self.values.items())))

    def __getitem__(self, p: str) -> Fraction:
        return self.values[p]

    @cached_property
    def is_hypercube_vertex(self) -> bool:
        return all(v in (0, 1) for v in self.values.values())

    @cached_property
    def is_interior(self) -> bool:
        return all(0 < v < 1 for v in self.values.values())

    def is_degeneration_of(self, other: "Parameter") -> bool:
        """True iff self agrees with `other` on every coordinate other pins to 0/1."""
        return all(self.values[p] == v for p, v in other.values.items() if v in (0, 1))


class Partition(namedtuple("Partition", "C O")):
    """A partition of the unmarked elements into chain part C and order part O."""

    __slots__ = ()
    C: frozenset[str]
    O: frozenset[str]

    def __new__(cls, C, O):
        self = super().__new__(cls, frozenset(C), frozenset(O))
        if self.C & self.O:
            raise ValueError("C and O overlap")
        return self


def check_partition(poset: MarkedPoset, part: Partition) -> Partition:
    if part.C | part.O != frozenset(poset.unmarked):
        raise PosetError("partition does not cover the unmarked elements")
    return part


def zero_parameter(poset: MarkedPoset) -> Parameter:
    return Parameter({p: ZERO for p in poset.unmarked})


def one_parameter(poset: MarkedPoset) -> Parameter:
    return Parameter({p: ONE for p in poset.unmarked})


def parameter_of_partition(poset: MarkedPoset, part: Partition) -> Parameter:
    check_partition(poset, part)
    return Parameter({p: ONE if p in part.C else ZERO for p in poset.unmarked})


def partition_of_parameter(poset: MarkedPoset, t: Parameter) -> Partition:
    if not t.is_hypercube_vertex:
        raise ValueError("only hypercube vertices correspond to partitions")
    C = frozenset(p for p in poset.unmarked if t[p] == 1)
    return Partition(C, frozenset(poset.unmarked) - C)


def generic_parameter(poset: MarkedPoset) -> Parameter:
    """Deterministic interior parameter: i/(n+1) in lex coordinate order."""
    names = sorted(poset.unmarked)
    n = len(names)
    return Parameter({p: Fraction(i + 1, n + 1) for i, p in enumerate(names)})


def hypercube_vertices(poset: MarkedPoset):
    """All 2^|unmarked| vertex Parameters, in a fixed binary-counter order."""
    names = sorted(poset.unmarked)
    for bits in itertools.product((ZERO, ONE), repeat=len(names)):
        yield Parameter(dict(zip(names, bits)))


# -- inequality descriptions -------------------------------------------------

def check_parameter(poset: MarkedPoset, t: Parameter) -> Parameter:
    """t must assign exactly the unmarked elements."""
    missing = sorted(set(poset.unmarked) - t.values.keys())
    extra = sorted(t.values.keys() - set(poset.unmarked))
    if missing or extra:
        raise PosetError("parameter must assign exactly the unmarked elements: "
                         f"missing {missing}, extra {extra}")
    return t


def _slots(poset: MarkedPoset, coords) -> dict[str, tuple[int, int]]:
    """A term c * x_e of an integer row over coords adds c * f to row[j],
    (j, f) = slot[e]: e's column and M, M the marking's denominator, or,
    for a marked e outside coords, the right-hand side and M * lambda(e)."""
    den, marks = poset._integral_marking
    slot = {a: (0, v) for a, v in marks.items()}
    slot.update((e, (1 + i, den)) for i, e in enumerate(coords))
    return slot


def _row_writer(poset: MarkedPoset, coords):
    """write(terms, scale, origin): the (row, S, origin) of sum(c * x_e for
    e, c in terms) <= 0 over coords, written through _slots, each c an int,
    scale times the true coefficient; S = scale * M."""
    slot, den, width = _slots(poset, coords), poset._integral_marking[0], len(coords) + 1

    def write(terms, scale, origin):
        row = [0] * width
        for e, c in terms:
            j, f = slot[e]
            row[j] += c * f
        return tuple(row), scale * den, origin

    return write


def _hrep(poset: MarkedPoset, coords, rows) -> HRep:
    """H-rep over coords with the inequalities (row, S, origin) in rows,
    written through _slots.  A marking equation fixes each marked element
    among coords: all of them in the full space R^P, none when projected."""
    eqs = [((-v.numerator,) + tuple(v.denominator if e == a else 0 for e in coords),
            v.denominator, ("marking", a)) for a, v in sorted(poset.marking.items())
           if a in coords]
    return HRep(coords).with_rows(eqs, rows)


def hrep_general(poset: MarkedPoset, t: Parameter, projected: bool = True) -> HRep:
    """H-description of O_t(P, lambda), one inequality per saturated chain:
    (1 - t_p) * (t_{p_1}...t_{p_r} x_{p_0} + ... + x_{p_r}) <= x_p.

    With t_e = T_e / D over one common denominator D, a chain of k = r + 1
    elements below p is scaled by D^k, so x_{p_i} weighs the integer
    (D - T_p) * T_{p_{i+1}}...T_{p_r} * D^i (D for D - T_p if p is marked).
    Each row is written straight from the chain walk through _slots.  No
    on-the-fly simplification: redundancy removal is a separate step so
    that every constraint keeps its generating chain as origin tag.
    """
    require_valid(poset)
    check_parameter(poset, t)
    den = math.lcm(*(v.denominator for v in t.values.values()))
    num = dict.fromkeys(poset.marked, 0)  # T_p = 0 for a marked p: D - T_p = D
    num.update((p, v.numerator * (den // v.denominator)) for p, v in t.values.items())
    powers = [den ** i for i in range(len(poset.elements) + 1)]
    coords = poset.unmarked if projected else poset.elements
    slot, mden, width = _slots(poset, coords), poset._integral_marking[0], len(coords) + 1
    rows = []
    for p in poset.elements:
        jp, fp = slot[p]
        for below in poset._tail_walk(p):
            k = len(below)
            if k == 1 and p in poset.marked:
                continue  # r = 0 into a marked target follows from the marking
            row = [0] * width
            row[jp] = -powers[k] * fp
            w = den - num[p]  # suffix products of T
            for i in range(k - 1, -1, -1):
                j, f = slot[below[i]]
                row[j] += w * powers[i] * f
                w *= num[below[i]]
            rows.append((tuple(row), powers[k] * mden, ("chain",) + below + (p,)))
    return _hrep(poset, coords, rows)


def hrep_chain_order(poset: MarkedPoset, part: Partition, projected: bool = True) -> HRep:
    """Direct description of the marked chain-order polyhedron O_{C,O}."""
    require_valid(poset)
    check_partition(poset, part)
    coords = poset.unmarked if projected else poset.elements
    write = _row_writer(poset, coords)
    rows = [write([(p, -1)], 1, ("nonneg", p)) for p in sorted(part.C)]
    rows += [write([(e, 1) for e in (a,) + mids] + [(b, -1)], 1, ("cochain", a) + mids + (b,))
             for a, mids, b in chains_through(poset, part.C, poset.marked | part.O)
             if mids or a not in poset.marked or b not in poset.marked]
    return _hrep(poset, coords, rows)


# -- transfer maps -------------------------------------------------------------
# One integer kernel, theta_{t,t'} = phi_{t'} after psi_t, column-wise: it
# maps a batch of points at once, one list per coordinate.  An element's
# psi and phi steps share one column, the entrywise max of its lower
# covers' columns, and each step is one comprehension over it.  psi_t and
# phi_t are theta with the other parameter left out.  The Fraction maps
# below convert at the boundary and map a batch of one.

def _column_max(cols: list[list[int]]) -> list[int]:
    """The entrywise max of equally long columns."""
    top = cols[0]
    for col in cols[1:]:
        top = [a if a > b else b for a, b in zip(top, col)]
    return top


def _theta_kernel(poset: MarkedPoset, t: Parameter | None, t2: Parameter | None):
    """(scale, run) with run(x) = theta_{t,t2}(x) for a batch of points of
    R^P given column-wise, each coordinate an integer multiple of scale:
    x[i] lists the coordinate poset.elements[i] of every point, and so does
    the result.  t None leaves psi out, t2 None leaves phi out.  Marked
    coordinates pass through unchanged.

    Both maps are max-plus with weights a / D over one common denominator D
    of t and t2, so theta is positively homogeneous, and the caller
    prescales x by scale = D^K.  Let c(p) be the longest chain of elements
    with t_p != 0 ending at p; then psi's value at p is divisible by
    D^(K - c(p)), and K is 1 + the largest c of a lower cover of an element
    that takes a step, so every division by D is exact.
    """
    index = {e: i for i, e in enumerate(poset.elements)}
    pars = [par for par in (t, t2) if par is not None]
    den = math.lcm(*(par[p].denominator for par in pars for p in poset.unmarked))
    c = dict.fromkeys(poset.marked, 0)
    levels = 0
    steps = []  # (i, psi weight a, phi weight b, lower covers) where a or b is nonzero
    for p in poset.linear_extension():
        if p in c:
            continue
        lows = poset.lower_covers(p)
        below = max((c[q] for q in lows), default=0)
        a, b = (0 if par is None else par[p].numerator * (den // par[p].denominator)
                for par in (t, t2))
        if a or b:
            steps.append((index[p], a, b, [index[q] for q in lows]))
            levels = max(levels, below + 1)
        c[p] = below + 1 if a else 0
    scale = den ** levels

    def run(x: list[list[int]]) -> list[list[int]]:
        # in linear-extension order: psi (y) is final on the lower covers
        y, z = list(x), list(x)
        for i, a, b, lows in steps:
            top = _column_max([y[j] for j in lows])
            if a:
                y[i] = [v + a * m // den for v, m in zip(y[i], top)]
            z[i] = [v - b * m // den for v, m in zip(y[i], top)] if b else y[i]
        return z

    return scale, run


def _transfer(poset: MarkedPoset, t, t2, x) -> dict[str, Fraction]:
    """theta_{t,t2}(x) on the full space R^P through the integer kernel."""
    xs = [rat(x[e]) for e in poset.elements]
    den = math.lcm(*(v.denominator for v in xs))
    scale, run = _theta_kernel(poset, t, t2)
    out = run([[v.numerator * (den // v.denominator) * scale] for v in xs])
    den *= scale
    return {e: Fraction(col[0], den) for e, col in zip(poset.elements, out)}


def transfer_phi(poset: MarkedPoset, t: Parameter, x) -> dict[str, Fraction]:
    """phi_t(x)_p = x_p - t_p max_{q < p} x_q on the full space R^P (q runs
    over the lower covers of p; marked coordinates are taken from x)."""
    return _transfer(poset, None, t, x)


def transfer_psi(poset: MarkedPoset, t: Parameter, y) -> dict[str, Fraction]:
    """Inverse of phi_t: psi_t(y)_p = y_p + t_p max_{q < p} psi_t(y)_q, along a
    linear extension."""
    return _transfer(poset, t, None, y)


def transfer_theta(poset: MarkedPoset, t: Parameter, t2: Parameter, y) -> dict[str, Fraction]:
    """theta_{t,t'} = phi_{t'} after psi_t, in one pass of the kernel."""
    return _transfer(poset, t, t2, y)


def transfer_theta_homogeneous(poset: MarkedPoset, t: Parameter | None,
                               t2: Parameter | None):
    """theta_{t,t'} on the projected coordinates in homogeneous integers: a
    function from a batch of integer rows (w0, w) with w0 > 0 and w in
    poset.unmarked order, each standing for the point w / w0, to the list
    of the integer rows of their images, in the same order, mapped in one
    run of the kernel.  The marked coordinates are w0 times the marking,
    over its denominator.  As in the kernel, t None gives phi_{t'} and t2
    None gives psi_t."""
    scale, run = _theta_kernel(poset, t, t2)
    index = {e: i for i, e in enumerate(poset.elements)}
    den, marks = poset._integral_marking
    marked = [(index[a], v * scale) for a, v in marks.items()]
    free = [index[p] for p in poset.unmarked]
    n = len(poset.elements)
    unit = den * scale  # a free coordinate w / w0 enters the kernel as w * unit

    def theta(rows) -> list[tuple[int, ...]]:
        cols = list(zip(*rows))
        x: list = [None] * n
        for i, v in marked:
            x[i] = [w0 * v for w0 in cols[0]]
        for i, col in zip(free, cols[1:]):
            x[i] = [w * unit for w in col]
        y = run(x)
        return list(zip([w0 * unit for w0 in cols[0]], *[y[i] for i in free]))

    return theta


def iota(poset: MarkedPoset, x) -> dict[str, Fraction]:
    """Fill the marked coordinates with their marking values."""
    return {**poset.marking, **{p: rat(x[p]) for p in poset.unmarked}}


def project(poset: MarkedPoset, x) -> dict[str, Fraction]:
    """Keep the unmarked coordinates."""
    return {p: rat(x[p]) for p in poset.unmarked}


# The projected maps act on R^unmarked: the marked coordinates come from the
# marking, not from the input.

def transfer_phi_projected(poset, t, x):
    """phi_t on the projected coordinates."""
    return project(poset, transfer_phi(poset, t, iota(poset, x)))


def transfer_psi_projected(poset, t, y):
    """psi_t on the projected coordinates."""
    return project(poset, transfer_psi(poset, t, iota(poset, y)))


def transfer_theta_projected(poset, t, t2, y):
    """theta_{t,t'} on the projected coordinates."""
    return project(poset, transfer_theta(poset, t, t2, iota(poset, y)))


# -- redundancy elimination and tameness ---------------------------------------

def eliminate_redundancy(h: HRep) -> HRep:
    """Irredundant description from the DD generators and their incidences.

    Inequalities tight on every generator are implicit equalities and join the
    equations (deduplicated up to scale and sign, the first kept).  For each
    facet the last inequality in input order with the facet's mask is kept;
    all other inequalities are dropped.  Pointed polyhedra only: one with a
    line raises UnsupportedLineality (marked poset polyhedra have none).
    """
    try:
        masks, facets, full = facet_masks(h, vertices(h))
    except EmptyPolyhedron:
        raise EmptyPolyhedron("cannot eliminate redundancy of an empty polyhedron") from None
    implicit = [j for j, m in enumerate(masks) if m == full]
    seen_eq = set()
    uniq_eqs = []
    for c, row in zip(h.scaled_equations + tuple(h.scaled_inequalities[j] for j in implicit),
                      h.int_equations + tuple(h.int_inequalities[j] for j in implicit)):
        if next(x for x in row[1:] if x) < 0:  # equations are sign-free
            row = tuple(-x for x in row)
        if row not in seen_eq:
            seen_eq.add(row)
            uniq_eqs.append(c)
    last = {m: i for i, m in enumerate(masks) if m in facets}
    kept = [h.scaled_inequalities[i] for i in sorted(last.values())]
    return HRep(h.coords).with_rows(uniq_eqs, kept)


def facet_count(h: HRep) -> int:
    return len(eliminate_redundancy(h).int_inequalities)


def chain_order_polytope(poset: MarkedPoset, part: Partition) -> tuple[HRep, VRep]:
    """(H-rep, V-rep) of the projected chain-order polytope O_{C,O}."""
    h = hrep_chain_order(poset, part, projected=True)
    return h, vertices(h)


def is_tame(poset: MarkedPoset, polytope_of=None) -> bool:
    """Sweep all partitions: every listed chain-order inequality must define
    a facet of its own, so its mask is a facet mask and no other row has it
    (no duplicates, no implicit equalities, none redundant).  polytope_of(part),
    if given, returns chain_order_polytope(poset, part), shared with the caller."""
    require_valid(poset)
    if len(poset.unmarked) > SWEEP_CAP:
        raise TooLarge(f"tameness sweep capped at {SWEEP_CAP} unmarked elements")
    polytope_of = polytope_of or (lambda part: chain_order_polytope(poset, part))
    for t in hypercube_vertices(poset):
        masks, facets, _ = facet_masks(*polytope_of(partition_of_parameter(poset, t)))
        if len(set(masks)) != len(masks) or not facets.issuperset(masks):
            return False
    return True


def facet_count_delta(poset: MarkedPoset, part: Partition, q: str) -> int:
    """Predicted facet-count change (k-1)(l-1) when q moves from O to C."""
    check_partition(poset, part)
    if q not in part.O:
        raise PosetError(f"{q} is not an order element of the partition")
    down, up = chain_counts(poset, part.C, part.O)
    return (down[q] - 1) * (up[q] - 1)
