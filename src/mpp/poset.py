"""Finite marked posets: validation, saturated chains, the order ideals
that chains of level sets pass, the regularizing transformations
(contraction of constant intervals, removal of redundant covering
relations) and star elements.

Element identifiers are opaque strings; marking values are exact rationals.
All set-valued results come back in lexicographic element order.  Instances
are immutable and hashable (the marking is a read-only mapping), so their
order is derived once and cached on them: the cover lists, Kahn's linear
extension (which also tells acyclicity), the down-sets `_below` as bits
along it (the one form of the order), the validation report (linear in the
order relation), the marking over one denominator, the walker of the
inequalities' chains and the levels of order ideals.  One memoized walker,
`chain_walker`, lists every saturated-chain family; one loop,
`_grow_ideals`, grows the order ideals of a level, for the Ehrhart counts
at t = 0 and the ideal chains alike.  |P| itself is not capped: the steps
that grow super-polynomially with it run under their own budgets.

SaturatedChain and MarkedPoset are immutable records (see mpp.records):
named tuples, so each also iterates, sorts and equals the plain tuple of
its fields.
"""
from __future__ import annotations

import heapq
import math
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

from .rationals import rat
from .records import Frozen, cached_property


class PosetError(ValueError):
    """Raised when an operation's precondition on the marked poset fails."""


class SaturatedChain(namedtuple("SaturatedChain", "below target")):
    """A saturated chain p_0 < p_1 < ... < p_r < target with p_0 marked and
    the p_i (i >= 1) unmarked; ``below`` is (p_0, ..., p_r)."""

    __slots__ = ()
    below: tuple[str, ...]
    target: str

    def __str__(self) -> str:
        return "<".join(self.below + (self.target,))


class MarkedPoset(Frozen, namedtuple("MarkedPoset", "elements covers marking")):
    elements: tuple[str, ...]
    covers: frozenset[tuple[str, str]]
    marking: Mapping[str, Fraction]  # stored read-only

    def __new__(cls, elements, covers, marking):
        self = super().__new__(cls, tuple(elements), frozenset(tuple(c) for c in covers),
                               MappingProxyType({k: rat(v) for k, v in marking.items()}))
        known = set(self.elements)
        if len(known) != len(self.elements):
            raise PosetError("duplicate element identifiers")
        for p, q in self.covers:
            if p not in known or q not in known:
                raise PosetError(f"cover ({p}, {q}) references unknown element")
            if p == q:
                raise PosetError(f"self-cover on {p}")
        for a in self.marking:
            if a not in known:
                raise PosetError(f"marking on unknown element {a}")
        return self

    def __hash__(self):
        return hash((self.elements, self.covers, tuple(sorted(self.marking.items()))))

    # -- basic structure ---------------------------------------------------

    @cached_property
    def marked(self) -> frozenset[str]:
        return frozenset(self.marking)

    @cached_property
    def unmarked(self) -> tuple[str, ...]:
        return tuple(e for e in self.elements if e not in self.marking)

    @cached_property
    def _cover_lists(self) -> tuple[dict[str, tuple[str, ...]], ...]:
        """(lower covers, upper covers) of each element, sorted, in one pass."""
        down, up = ({e: [] for e in self.elements} for _ in range(2))
        for p, q in sorted(self.covers):
            down[q].append(p)
            up[p].append(q)
        return tuple({e: tuple(v) for e, v in d.items()} for d in (down, up))

    def lower_covers(self, p: str) -> tuple[str, ...]:
        return self._cover_lists[0][p]

    def upper_covers(self, p: str) -> tuple[str, ...]:
        return self._cover_lists[1][p]

    @cached_property
    def is_acyclic(self) -> bool:
        return len(self._kahn) == len(self.elements)

    @cached_property
    def _bit(self) -> dict[str, int]:
        """bit[e] = 1 << i for e the i-th element of the linear extension."""
        return {e: 1 << i for i, e in enumerate(self.linear_extension())}

    @cached_property
    def _below(self) -> dict[str, int]:
        """below[p] = all q with q < p (strictly), as bits.  Requires acyclicity."""
        below, bit = {}, self._bit
        for e in self.linear_extension():
            acc = 0
            for q in self.lower_covers(e):
                acc |= below[q] | bit[q]
            below[e] = acc
        return below

    def _members(self, mask: int) -> list[str]:
        """The elements of the bits set in mask, in linear-extension order."""
        return [e for e, c in zip(self.linear_extension(), bin(mask)[:1:-1]) if c == "1"]

    def linear_extension(self) -> tuple[str, ...]:
        """Deterministic linear extension (Kahn's algorithm, lex tie-break),
        computed once per instance."""
        if not self.is_acyclic:
            raise PosetError("cover relation has a cycle")
        return self._kahn

    @cached_property
    def _kahn(self) -> tuple[str, ...]:
        """Kahn's algorithm with lexicographic tie-break, run once per
        instance: a linear extension, or fewer elements than the poset has
        when the covers hold a cycle."""
        lower, upper = self._cover_lists
        indeg = {e: len(lower[e]) for e in self.elements}
        heap = [e for e in self.elements if indeg[e] == 0]
        heapq.heapify(heap)
        out = []
        while heap:
            e = heapq.heappop(heap)
            out.append(e)
            for q in upper[e]:
                indeg[q] -= 1
                if indeg[q] == 0:
                    heapq.heappush(heap, q)
        return tuple(out)

    def lt(self, a: str, b: str) -> bool:
        return self._below[b] & self._bit[a] != 0

    def leq(self, a: str, b: str) -> bool:
        return a == b or self.lt(a, b)

    @cached_property
    def _value_masks(self) -> dict[Fraction, int]:
        """The marked elements of each marking value, as bits (_bit)."""
        masks: dict[Fraction, int] = {}
        for a, v in self.marking.items():
            masks[v] = masks.get(v, 0) | self._bit[a]
        return masks

    @cached_property
    def strictly_marked(self) -> bool:
        """No two comparable marked elements share a marking value."""
        below, same = self._below, self._value_masks
        return not any(below[b] & same[v] for b, v in self.marking.items())

    @cached_property
    def _larger(self) -> dict[int, int]:
        """By marking value, as an int over the marking's denominator
        (_integral_marking): the marked elements of larger value, as bits."""
        marks, larger, acc = self._integral_marking[1], {}, 0
        for a, v in sorted(marks.items(), key=lambda item: -item[1]):
            larger.setdefault(v, acc)
            acc |= self._bit[a]
        return larger

    @cached_property
    def problems(self) -> tuple[str, ...]:
        """Violations of the marked-poset invariants (empty = valid), found
        once per instance and read by `validate` and `require_valid`.  A
        cover (p, q) fails iff p lies below another lower cover of q, in the
        OR of their down-sets; the marking fails iff a marked element lies
        above one of larger value.  Offenders are listed only then."""
        if not self.is_acyclic:
            return ("cycle in covering relations",)
        report: list[str] = []
        below, bit, lower, lt = self._below, self._bit, self._cover_lists[0], self.lt
        marks, larger = self._integral_marking[1], self._larger
        reach = dict.fromkeys(self.elements, 0)  # q: the OR of its lower covers' down-sets
        for p, q in self.covers:
            reach[q] |= below[p]
        if any(reach[q] & bit[p] for p, q in self.covers):
            report += [f"non-covering pair ({p}, {q}): {w} lies strictly between"
                       for p, q in sorted(self.covers) if reach[q] & bit[p]
                       for w in self.elements if w != p and w != q and lt(p, w) and lt(w, q)]
        if any(below[b] & larger[v] for b, v in marks.items()):
            report += [f"marking not order-preserving: {a} < {b} but lambda({a}) > lambda({b})"
                       for a in sorted(marks) for b in sorted(marks)
                       if lt(a, b) and marks[a] > marks[b]]
        report += [f"unmarked minimal element {e}" for e in sorted(self.elements)
                   if not lower[e] and e not in marks]
        return tuple(report)

    @cached_property
    def _integral_marking(self) -> tuple[int, dict[str, int]]:
        """(L, {a: L * lambda(a)}), L the marking's common denominator."""
        den = math.lcm(*(v.denominator for v in self.marking.values()))
        return den, {a: v.numerator * (den // v.denominator) for a, v in self.marking.items()}

    @cached_property
    def _ideal_levels(self) -> dict[int, tuple[int, tuple[tuple[int, int], ...]]]:
        """By marking value v, increasing, as L * v (_integral_marking; v when
        integral): (base, free) of the level of order ideals whose marked
        elements are those of value <= v, as bits (_bit).  Each is base | S,
        base the down-set of those marked elements and S an ideal of the free
        elements (unmarked, outside base, above no larger value); free lists
        (bit, need), need the free lower covers.  On a valid poset the level
        below the least value is the empty ideal alone."""
        below, bit, larger, marks = self._below, self._bit, self._larger, self._integral_marking[1]
        unmarked = [e for e in self.linear_extension() if e not in marks]
        bases, grown = {}, 0  # by value: the down-set of the marked elements up to it
        for a, v in sorted(marks.items(), key=lambda item: item[1]):
            grown = bases[v] = grown | below[a] | bit[a]
        levels = {}
        for v, base in bases.items():
            levels[v] = (base, tuple(
                (bit[e], sum(bit[c] for c in self.lower_covers(e) if not base & bit[c]))
                for e in unmarked if not base & bit[e] and not below[e] & larger[v]))
        return levels

    @cached_property
    def _tail_walk(self):
        """The walker of the chains that index the inequalities: down
        through unmarked elements to the first marked one."""
        return chain_walker(self, self.unmarked, self.marked)


def _grow_ideals(free, start: int, limit: int) -> list[int]:
    """The ideals of a level (MarkedPoset._ideal_levels) that contain start,
    start first and each after its subsets: each free (bit, need) not in
    start joins every ideal so far that holds its need.  Stops past limit."""
    ideals = [start]
    for b, need in free:
        if not start & b:
            ideals += [i | b for i in ideals if i & need == need]
            if len(ideals) > limit:
                break
    return ideals


def validate(poset: MarkedPoset) -> list[str]:
    """Check the marked-poset invariants; returns violation messages (empty = valid)."""
    return list(poset.problems)


def require_valid(poset: MarkedPoset) -> MarkedPoset:
    if poset.problems:
        raise PosetError("; ".join(poset.problems))
    return poset


# -- saturated chains ------------------------------------------------------
# One memoized walk serves every chain family below: the inequalities of
# O_t (chains down through unmarked elements to a marked one) and of O_{C,O}
# (chains through C between elements of P* and O).

def chain_walker(poset: MarkedPoset, via, stops, upward: bool = False):
    """walk(e): the saturated chains that leave e by a cover relation, down
    (or up, if upward) through elements of `via`, and end at the first
    element of `stops` they meet.  Each chain is listed from bottom to top
    without e, as (s, c_1, ..., c_k) below e or (c_1, ..., c_k, s) above
    it, in lexicographic order.  Results are memoized per element."""
    via, stops = frozenset(via), frozenset(stops)
    step = poset.upper_covers if upward else poset.lower_covers
    memo: dict[str, tuple[tuple[str, ...], ...]] = {}

    def walk(e: str) -> tuple[tuple[str, ...], ...]:
        if e not in memo:
            out = []
            for c in step(e):
                if c in stops:
                    out.append((c,))
                elif c in via:
                    out.extend((c,) + w if upward else w + (c,) for w in walk(c))
            memo[e] = tuple(sorted(out))
        return memo[e]

    return walk


def saturated_chains_to(poset: MarkedPoset, p: str) -> list[SaturatedChain]:
    """All chains p_0 < p_1 < ... < p_r < p with p_0 marked and interior
    unmarked, in lexicographic order.  These index the defining inequalities."""
    return [SaturatedChain(below=w, target=p) for w in poset._tail_walk(p)]


def chains_through(poset: MarkedPoset, via: frozenset[str] | set[str],
                   stops: frozenset[str] | set[str]) -> list[tuple[str, tuple[str, ...], str]]:
    """Saturated chains a < c_1 < ... < c_k < b (k >= 0) with a, b in `stops`
    and all interior c_i in `via`.  Used for the chain-order description."""
    walk = chain_walker(poset, via, stops)
    return sorted((w[0], w[1:], b) for b in frozenset(stops) for w in walk(b))


# -- star elements ---------------------------------------------------------

def star_elements(poset: MarkedPoset, C, O) -> tuple[str, ...]:
    """Chain-order star elements of O: q with >= 2 saturated chains through C
    reaching q from P* or O both from below and from above."""
    C, O = frozenset(C), frozenset(O)
    if C | O != frozenset(poset.unmarked) or C & O:
        raise PosetError("C, O must partition the unmarked elements")
    down, up = chain_counts(poset, C, O)
    return tuple(sorted(q for q in O if down[q] >= 2 and up[q] >= 2))


def chain_counts(poset: MarkedPoset, C, O) -> tuple[dict[str, int], dict[str, int]]:
    """For each q in O: number of saturated chains s < c_1 < ... < c_k < q
    (downward) and q < c_1 < ... < c_k < s (upward), interior in C, s in P*|O."""
    stops = poset.marked | frozenset(O)
    down, up = (chain_walker(poset, C, stops, upward) for upward in (False, True))
    return {q: len(down(q)) for q in O}, {q: len(up(q)) for q in O}


# -- constant intervals and contraction ------------------------------------

def constant_intervals(poset: MarkedPoset) -> list[tuple[str, ...]]:
    """Maximal unions of non-trivial constant intervals, as sorted blocks."""
    require_valid(poset)
    below, bit, same = poset._below, poset._bit, poset._value_masks
    block: dict[str, set[str]] = {}  # element -> the block it lies in so far
    for b, v in poset.marking.items():
        for a in poset._members(below[b] & same[v]):
            interval = {a, b}.union(p for p in poset._members(below[b]) if below[p] & bit[a])
            merged = interval.union(*(block.get(p, ()) for p in interval))
            for p in merged:
                block[p] = merged
    return sorted({tuple(sorted(m)) for m in block.values()})


def contract_constant_intervals(poset: MarkedPoset) -> tuple[MarkedPoset, dict[str, str]]:
    """Quotient by constant intervals; returns the strictly marked quotient and
    the element map.  Block names are the lexicographically smallest member."""
    elem_map = {e: e for e in poset.elements}
    elem_map.update((e, b[0]) for b in constant_intervals(poset) for e in b)
    new_elements = tuple(dict.fromkeys(elem_map.values()))
    # the marked members of a block share one value (lambda is order-preserving)
    value = {elem_map[a]: v for a, v in poset.marking.items()}

    # quotient order: B < B' iff some p in B, q in B' with p < q
    lt: dict[str, set[str]] = {n: set() for n in new_elements}
    for q, below in poset._below.items():
        for p in poset._members(below):
            if elem_map[p] != elem_map[q]:
                lt[elem_map[p]].add(elem_map[q])
    # unreachable: crossing blocks share a value, so a constant interval merges them
    if any(x in lt[y] for x in new_elements for y in lt[x]):
        raise AssertionError("contraction produced a non-antisymmetric quotient")
    new_covers = {(x, y) for x in new_elements for y in lt[x]
                  if not any(y in lt[w] for w in lt[x] if w != y)}
    return (MarkedPoset(new_elements, new_covers,
                        {n: value[n] for n in new_elements if n in value}), elem_map)


# -- redundant covering relations ------------------------------------------

def _cover_redundant(poset: MarkedPoset, p: str, q: str) -> bool:
    """p < q is redundant iff marked a <= q and p <= b exist with a != b and
    lambda(a) >= lambda(b)."""
    marks = poset._integral_marking[1]
    return any(a != b and marks[a] >= marks[b] for a in marks if poset.leq(a, q)
               for b in marks if poset.leq(p, b))


def non_redundant_covers(poset: MarkedPoset) -> frozenset[tuple[str, str]]:
    return frozenset(c for c in poset.covers if not _cover_redundant(poset, c[0], c[1]))


class RedundancyOrderWarning(UserWarning):
    """Removal order mattered: the iterated fixed point differs from the
    one-pass non-redundancy test.  Happens when incomparable marked elements
    share a value and witness each other; any fixed point still describes the
    same polyhedra, and removal is deterministic (lexicographically first)."""


def remove_redundant_covers(poset: MarkedPoset) -> MarkedPoset:
    """Remove redundant covering relations one at a time until regular.

    Removal is re-evaluated after every step (removing a cover can destroy
    the witness of another), taking the lexicographically first redundant
    cover each round.  The result is compared against the one-pass
    non-redundancy test; a difference is surfaced as a warning.
    """
    require_valid(poset)
    if not poset.strictly_marked:
        raise PosetError("poset must be strictly marked before removing covers")
    one_pass = non_redundant_covers(poset)
    cur = poset
    while True:
        redundant = sorted(c for c in cur.covers if _cover_redundant(cur, c[0], c[1]))
        if not redundant:
            break
        cur = MarkedPoset(cur.elements, cur.covers - {redundant[0]}, cur.marking)
    if cur.covers != one_pass:
        import warnings

        warnings.warn(
            "redundant-cover removal was order-sensitive: iterated fixed point "
            f"keeps {sorted(cur.covers - one_pass)} beyond the one-pass set",
            RedundancyOrderWarning, stacklevel=2)
    return cur


def is_regular(poset: MarkedPoset) -> bool:
    return poset.strictly_marked and non_redundant_covers(poset) == poset.covers


def regularize(poset: MarkedPoset) -> tuple[MarkedPoset, dict[str, str]]:
    """Contract constant intervals, then drop redundant covers."""
    contracted, elem_map = contract_constant_intervals(poset)
    return remove_redundant_covers(contracted), elem_map
