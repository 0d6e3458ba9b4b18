"""Independent answers for checking `mpp` output.

Nothing here imports `mpp`.  Posets are read from the same JSON files the
program receives, with the plain `json` module, and every answer is computed
from a closed description or a property the answer must have:

- Stanley, "Two poset polytopes" (1986): for a poset marked only at a unique
  bottom (value 0) and top (value N), the order polytope at t = 0 has the
  vertices N * chi_F (F a filter of the unmarked part) and one facet per
  cover relation; the chain polytope at t = 1 has the vertices N * chi_A
  (A an antichain) and one facet per maximal chain plus one per element.
- The lattice points of the order polytope are the order-preserving maps
  into {0..N}, counted by multichains of order ideals (the order polynomial).
- The defining inequalities of O_t(P, lambda) are written down from the
  source paper, one per saturated chain, and evaluated exactly.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


class Poset:
    """A marked poset read from the program's input format."""

    def __init__(self, elements, covers, marking):
        self.elements = tuple(elements)
        self.covers = tuple(sorted((a, b) for a, b in covers))
        self.marking = {k: Fraction(v) for k, v in marking.items()}
        self.unmarked = tuple(e for e in self.elements if e not in self.marking)
        self.lower = {e: [] for e in self.elements}
        self.upper = {e: [] for e in self.elements}
        for a, b in self.covers:
            self.lower[b].append(a)
            self.upper[a].append(b)

    @classmethod
    def from_json(cls, data) -> "Poset":
        return cls(data["elements"], data["covers"], data["marking"])

    @classmethod
    def load(cls, path) -> "Poset":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def linear_extension(self) -> list[str]:
        indeg = {e: len(self.lower[e]) for e in self.elements}
        ready = sorted(e for e in self.elements if indeg[e] == 0)
        out = []
        while ready:
            e = ready.pop(0)
            out.append(e)
            for b in self.upper[e]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
            ready.sort()
        if len(out) != len(self.elements):
            raise ValueError("cover relation has a cycle")
        return out

    def above(self) -> dict[str, frozenset[str]]:
        """Strict upper sets: above[e] = {b : e < b}."""
        out: dict[str, frozenset[str]] = {}
        for e in reversed(self.linear_extension()):
            acc = set()
            for b in self.upper[e]:
                acc.add(b)
                acc |= out[b]
            out[e] = frozenset(acc)
        return out

    def bottom_top(self) -> int | None:
        """N when exactly a unique bottom (marked 0) and a unique top (marked N)
        are marked, the case with Stanley's closed forms; None otherwise."""
        mins = [e for e in self.elements if not self.lower[e]]
        maxs = [e for e in self.elements if not self.upper[e]]
        if len(mins) != 1 or len(maxs) != 1 or set(self.marking) != {mins[0], maxs[0]}:
            return None
        if self.marking[mins[0]] != 0:
            return None
        n = self.marking[maxs[0]]
        if n.denominator != 1 or n <= 0:
            return None
        return int(n)

    def graded(self) -> bool:
        """Every maximal chain of P has the same length."""
        lengths: dict[str, set[int]] = {}
        for e in self.linear_extension():
            lows = self.lower[e]
            lengths[e] = {0} if not lows else {n + 1 for q in lows for n in lengths[q]}
        tops = set().union(*(lengths[e] for e in self.elements if not self.upper[e]))
        return len(tops) == 1


# -- combinatorics of the unmarked part --------------------------------------

def order_ideals(P: Poset) -> list[frozenset[str]]:
    """Down-closed subsets of the unmarked part (order induced from P)."""
    unmarked = set(P.unmarked)
    ideals = [frozenset()]
    for e in P.linear_extension():
        if e not in unmarked:
            continue
        lows = frozenset(q for q in P.lower[e] if q in unmarked)
        ideals += [i | {e} for i in ideals if lows <= i]
    return ideals


def filters(P: Poset) -> list[frozenset[str]]:
    full = frozenset(P.unmarked)
    return [full - i for i in order_ideals(P)]


def antichains(P: Poset) -> list[frozenset[str]]:
    above = P.above()
    unmarked = list(P.unmarked)
    out = []

    def rec(i, chosen):
        if i == len(unmarked):
            out.append(frozenset(chosen))
            return
        rec(i + 1, chosen)
        e = unmarked[i]
        if all(e not in above[c] and c not in above[e] for c in chosen):
            chosen.append(e)
            rec(i + 1, chosen)
            chosen.pop()

    rec(0, [])
    return out


def maximal_chains(P: Poset) -> int:
    """Saturated chains from a minimal to a maximal element of P."""
    ways: dict[str, int] = {}
    for e in P.linear_extension():
        ways[e] = 1 if not P.lower[e] else sum(ways[q] for q in P.lower[e])
    return sum(ways[e] for e in P.elements if not P.upper[e])


def corner_vertices(P: Poset, chain_part) -> set[tuple[int, ...]]:
    """Vertices of the corner member with chain part C, for a bottom/top poset.

    The transfer map sends N * chi_F to N * chi of (F minus C) plus the
    minimal elements of F that lie in C; with C empty these are the filters
    (order polytope), with C everything the antichains (chain polytope).
    """
    n = P.bottom_top()
    C = frozenset(chain_part)
    out = set()
    for F in filters(P):
        minimal = {p for p in F if not any(q in F for q in P.lower[p])}
        support = (F - C) | (minimal & C)
        out.add(tuple(n if p in support else 0 for p in P.unmarked))
    return out


def corner_facets(P: Poset, chain_part) -> int:
    """Facet count of a corner member of a tame poset: every chain-order
    inequality is a facet.  They are x_c >= 0 for c in C, and one for each
    saturated chain a < c_1 < ... < c_k < b with a, b marked or in O and every
    c_i in C, except a cover between two marked elements."""
    C = frozenset(chain_part)
    stops = set(P.marking) | (set(P.unmarked) - C)
    down: dict[str, int] = {}

    def chains_into(e):
        # chains a < c_1 < ... < c_k < e with a in stops and c_i in C
        if e not in down:
            down[e] = sum(1 if q in stops else chains_into(q)
                          for q in P.lower[e] if q in stops or q in C)
        return down[e]

    count = len(C)
    for b in stops:
        count += chains_into(b)
        count -= sum(1 for q in P.lower[b] if b in P.marking and q in P.marking)
    return count


def multichain_count(P: Poset, n: int) -> int:
    """Order polynomial Omega(P~, n + 1): multichains I_1 <= ... <= I_n of
    order ideals of the unmarked part."""
    ideals = order_ideals(P)
    ways = [1] * len(ideals)
    below = [[j for j, J in enumerate(ideals) if J <= I] for I in ideals]
    for _ in range(n - 1):
        ways = [sum(ways[j] for j in below[i]) for i in range(len(ideals))]
    return sum(ways) if n > 0 else 1


def order_preserving_count(P: Poset, scale: int = 1) -> int:
    """Integer points of the marked order polytope of (P, scale * lambda),
    by backtracking along a linear extension; the marking must be integral."""
    lam = {a: scale * v for a, v in P.marking.items()}
    if any(v.denominator != 1 for v in lam.values()):
        raise ValueError("integral marking required")
    above = P.above()
    cap = {p: min((lam[a] for a in above[p] if a in lam), default=None)
           for p in P.unmarked}
    order = [e for e in P.linear_extension() if e not in lam]
    value = {a: int(v) for a, v in lam.items()}

    def rec(i):
        if i == len(order):
            return 1
        p = order[i]
        lo = max(value[q] for q in P.lower[p])
        hi = cap[p]
        total = 0
        for x in range(lo, int(hi) + 1):
            value[p] = x
            total += rec(i + 1)
        return total

    if any(cap[p] is None for p in P.unmarked):
        raise ValueError("unbounded: an unmarked element has no marked element above")
    return rec(0)


# -- the defining inequalities of O_t -----------------------------------------

def saturated_chains(P: Poset, p: str):
    """Chains p_0 < ... < p_r < p, p_0 marked, p_1..p_r unmarked (as tuples)."""
    out = []

    def down(chain):
        head = chain[0]
        if head in P.marking:
            out.append(chain)
            return
        for q in P.lower[head]:
            down((q,) + chain)

    for q in P.lower[p]:
        down((q,))
    return out


def hrep_rows(P: Poset, t: dict[str, Fraction]):
    """Rows {element: coefficient} of  sum_i (1 - t_p) prod_{j > i} t_{p_j} x_{p_i} - x_p <= 0,
    one per saturated chain into each element p (t_p = 0 for marked p)."""
    rows = []
    for p in P.elements:
        tp = Fraction(0) if p in P.marking else t[p]
        for chain in saturated_chains(P, p):
            row: dict[str, Fraction] = {}
            for i, e in enumerate(chain):
                w = 1 - tp
                for f in chain[i + 1:]:
                    w *= t[f]
                row[e] = row.get(e, 0) + w
            row[p] = row.get(p, 0) - 1
            rows.append(row)
    return rows


def projected_rows(P: Poset, t) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """hrep_rows with the marked coordinates substituted: (coeffs over
    P.unmarked, rhs) meaning coeffs . x <= rhs; constant rows dropped."""
    out = []
    for row in hrep_rows(P, t):
        rhs = -sum((c * P.marking[e] for e, c in row.items() if e in P.marking), Fraction(0))
        coeffs = tuple(Fraction(row.get(p, 0)) for p in P.unmarked)
        if any(coeffs):
            out.append((coeffs, rhs))
        elif rhs < 0:
            raise ValueError("constant row violated: empty polytope")
    return out


def rank(rows) -> int:
    rows = [list(r) for r in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / Fraction(rows[r][col])
        for i in range(r + 1, len(rows)):
            f = rows[i][col] * inv
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def vertex_problems(rows, points) -> list[str]:
    """Each point must satisfy every row, and its tight rows must have full
    rank (a point of a polytope is a vertex iff this holds); no repeats."""
    d = len(rows[0][0]) if rows else 0
    problems = []
    if len(set(points)) != len(points):
        problems.append("repeated vertex")
    for x in points:
        tight = []
        for coeffs, rhs in rows:
            s = sum(a * b for a, b in zip(coeffs, x) if a)
            if s > rhs:
                problems.append(f"{x} violates a defining inequality")
                break
            if s == rhs:
                tight.append(coeffs)
        else:
            if d and rank(tight) != d:
                problems.append(f"{x} is not a vertex (tight rank {rank(tight)} < {d})")
    return problems


def order_vertices(P: Poset) -> set[tuple[Fraction, ...]]:
    """Vertices of the marked order polytope O(P, lambda) (t = 0), for any
    marking, over P.unmarked.

    A point x of the polytope lies in the relative interior of the face cut
    out by its tight covers p < q (x_p = x_q); that face's dimension is the
    number of connected components of the tight covers that hold no marked
    element.  So x is a vertex iff every such component holds a marked
    element, and then every coordinate is one of the marking's values.
    """
    values = sorted(set(P.marking.values()))
    above = P.above()
    cap = {p: min((P.marking[a] for a in above[p] if a in P.marking), default=None)
           for p in P.unmarked}
    if any(cap[p] is None or not P.lower[p] for p in P.unmarked):
        raise ValueError("unbounded: an unmarked element is not between marked ones")
    order = [e for e in P.linear_extension() if e not in P.marking]
    x = dict(P.marking)
    out = set()

    def is_vertex():
        root = {e: e for e in P.elements}

        def find(e):
            while root[e] != e:
                root[e] = root[root[e]]
                e = root[e]
            return e

        for a, b in P.covers:
            if x[a] == x[b]:
                root[find(a)] = find(b)
        anchored = {find(a) for a in P.marking}
        return all(find(p) in anchored for p in P.unmarked)

    def rec(i):
        if i == len(order):
            if is_vertex():
                out.add(tuple(x[p] for p in P.unmarked))
            return
        p = order[i]
        lo = max(x[q] for q in P.lower[p])
        for v in values:
            if lo <= v <= cap[p]:
                x[p] = v
                rec(i + 1)

    rec(0)
    return out


def basic_points(rows, max_bases: int = 5000) -> set[tuple[Fraction, ...]] | None:
    """All vertices of {x : coeffs . x <= rhs} by brute force: the feasible
    points where d linearly independent rows are tight.  None when there
    are more than max_bases sets of d rows to try."""
    rows = list(dict.fromkeys(rows))
    d = len(rows[0][0]) if rows else 0
    if not d or math.comb(len(rows), d) > max_bases:
        return None
    out = set()

    def solve(basis):
        # each row is zero at the pivots of the rows before it
        x = [Fraction(0)] * d
        for coeffs, rhs, piv in reversed(basis):
            x[piv] = (rhs - sum(c * x[j] for j, c in enumerate(coeffs) if c and j != piv)) \
                / coeffs[piv]
        return tuple(x)

    def rec(start, basis):
        if len(basis) == d:
            x = solve(basis)
            if all(sum(a * b for a, b in zip(c, x) if a) <= r for c, r in rows):
                out.add(x)
            return
        for i in range(start, len(rows) - (d - len(basis)) + 1):
            coeffs, rhs = list(rows[i][0]), rows[i][1]
            for bc, br, piv in basis:
                if coeffs[piv]:
                    f = coeffs[piv] / bc[piv]
                    coeffs = [a - f * b for a, b in zip(coeffs, bc)]
                    rhs -= f * br
            piv = next((j for j, c in enumerate(coeffs) if c), None)
            if piv is not None:
                rec(i + 1, basis + [(coeffs, rhs, piv)])

    rec(0, [])
    return out


def euler_ok(fvec) -> bool:
    """Euler-Poincare for proper faces f_0..f_{d-1} of a d-polytope."""
    d = len(fvec)
    if d == 1 and fvec[0] == 1:
        return True  # a point
    return sum((-1) ** i * f for i, f in enumerate(fvec)) == 1 - (-1) ** d


def eval_poly(coeffs, k) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc
