"""Tropical hyperplane arrangement of a marked poset, covectors, the tropical
subdivision of the marked order polyhedron, and vertex enumeration of generic
family members by transferring subdivision vertices.

Every cell is cut from the one base polytope O_0(P, lambda) in the projected
coordinates.  A public call builds it once (`_base_data`) and passes it down,
and one generator (`_covector_cells`) runs the covector search and yields
each nonempty cell with its vertices.  The search decides whether a partial
cell is empty by double description, the same enumeration that gives each
cell its vertices; no linear program is solved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from . import linalg
from .family import (Parameter, _row, hrep_general, hypercube_vertices, iota,
                     transfer_theta_homogeneous, zero_parameter)
from .geometry import (EmptyPolyhedron, HRep, TooLarge, UnsupportedUnbounded,
                       face_lattice, homogenized, incidences, make_hrep, vertices)
from .poset import MarkedPoset, require_valid

ZERO = Fraction(0)
ONE = Fraction(1)


class NonInteriorParameter(ValueError):
    pass


@dataclass(frozen=True)
class TropicalForm:
    """max_i (x_i + c_i) over the support; omitted coordinates mean -infinity."""

    coeffs: tuple[tuple[str, Fraction], ...]

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.coeffs)

    def value(self, x) -> Fraction:
        return max(Fraction(x[name]) + c for name, c in self.coeffs)

    def signature(self, x) -> frozenset[str]:
        best = self.value(x)
        return frozenset(name for name, c in self.coeffs if Fraction(x[name]) + c == best)


@dataclass(frozen=True)
class TropicalArrangement:
    """Named tropical hyperplanes; for posets the names are the elements of R
    (unmarked elements covering at least two others)."""

    hyperplanes: tuple[tuple[str, TropicalForm], ...]

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.hyperplanes)

    def form(self, name: str) -> TropicalForm:
        return dict(self.hyperplanes)[name]


def arrangement(poset: MarkedPoset) -> TropicalArrangement:
    """One hyperplane max_{q < r} x_q per unmarked r covering >= 2 elements."""
    require_valid(poset)
    hps = []
    for r in sorted(poset.unmarked):
        lows = poset.lower_covers(r)
        if len(lows) >= 2:
            hps.append((r, TropicalForm(tuple((q, ZERO) for q in lows))))
    return TropicalArrangement(tuple(hps))


def covector(arr: TropicalArrangement, x) -> dict[str, frozenset[str]]:
    """Per-hyperplane argmax signatures of a (full-space) point."""
    return {name: form.signature(x) for name, form in arr.hyperplanes}


@dataclass(frozen=True)
class SubdivisionCell:
    """A cell of a polyhedral subdivision of the (bounded) marked order polytope.

    ``tight`` indexes the inequalities of the generating projected H-rep that
    are tight on the whole cell; ``covector`` is the tropical covector of the
    cell's relative interior.
    """

    vertices: tuple[tuple[Fraction, ...], ...]
    dim: int
    covector: tuple[tuple[str, tuple[str, ...]], ...]
    tight: frozenset[int]
    origin: tuple[str, ...]

    def vertex_set(self):
        return frozenset(self.vertices)


def _difference(poset: MarkedPoset, index: dict[str, int], a: str, b: str, origin):
    """(coeffs, rhs, origin) of x_a - x_b (= or <=) 0 over the projected
    coordinates, a marked term moved into rhs."""
    return _row(poset, index, ((a, ONE), (b, -ONE))) + (origin,)


def _covector_cell_rows(poset: MarkedPoset, index, tau: dict[str, frozenset[str]]):
    """Equations/inequalities pinning the closed arrangement cell F_tau."""
    eqs, ineqs = [], []
    for r, members in sorted(tau.items()):
        m0, *rest = sorted(members)
        for m in rest:
            eqs.append(_difference(poset, index, m, m0, ("covector-eq", r, m0, m)))
        for other in poset.lower_covers(r):
            if other not in members:
                ineqs.append(_difference(poset, index, other, m0,
                                         ("covector-le", r, other, m0)))
    return eqs, ineqs


def _combined_hrep(base: HRep, extra_eqs, extra_ineqs) -> HRep:
    eqs = [(c.coeffs, c.rhs, c.origin) for c in base.equations] + extra_eqs
    ineqs = [(c.coeffs, c.rhs, c.origin) for c in base.inequalities] + extra_ineqs
    return make_hrep(base.coords, eqs, ineqs)


def _covector_cells(poset: MarkedPoset, arr: TropicalArrangement, base: HRep):
    """(tau, H-rep, V-rep) of each nonempty cell: the polytope cut with F_tau,
    over the covectors tau whose closed cell meets it.  tau is extended one
    hyperplane at a time, and a partial covector is dropped as soon as its
    cell is empty, by the same double description that gives a full
    covector's cell its vertices.  The base rows come first in each H-rep."""
    index = {e: i for i, e in enumerate(base.coords)}
    names = arr.names()

    def rec(i, partial):
        try:
            h = _combined_hrep(base, *_covector_cell_rows(poset, index, partial))
            v = vertices(h)
        except EmptyPolyhedron:
            return
        if i == len(names):
            yield dict(partial), h, v
            return
        r = names[i]
        support = sorted(arr.form(r).support)
        for size in range(1, len(support) + 1):
            for members in itertools.combinations(support, size):
                partial[r] = frozenset(members)
                yield from rec(i + 1, partial)
                del partial[r]

    yield from rec(0, {})


def _canonical_covector(cov: dict[str, frozenset[str]]):
    return tuple((r, tuple(sorted(v))) for r, v in sorted(cov.items()))


def _base_data(poset: MarkedPoset):
    base = hrep_general(poset, zero_parameter(poset), projected=True)
    v = vertices(base)
    if v.rays:
        raise UnsupportedUnbounded("tropical subdivision implemented for polytopes only")
    return base, v


def tropical_cells(poset: MarkedPoset) -> list[SubdivisionCell]:
    """The cells polytope cut with F_tau over all feasible covectors tau (no faces)."""
    require_valid(poset)
    base, _ = _base_data(poset)
    arr = arrangement(poset)
    return [_polytope_cell(poset, base, arr, v.vertices, ("covector",))
            for _, _, v in _covector_cells(poset, arr, base)]


def _make_cell(poset, base, arr, verts, dim, tight, origin) -> SubdivisionCell:
    verts = tuple(sorted(verts))
    full = iota(poset, dict(zip(base.coords, linalg.barycenter(verts))))
    return SubdivisionCell(verts, dim, _canonical_covector(covector(arr, full)),
                           tight, tuple(origin))


def _polytope_cell(poset, base, arr, verts, origin) -> SubdivisionCell:
    """The cell spanned by all of verts: one rank, tight rows by incidence."""
    every = (1 << len(verts)) - 1
    tight = frozenset(j for j, m in enumerate(incidences(base, verts)) if m == every)
    return _make_cell(poset, base, arr, verts, linalg.affine_rank(verts), tight, origin)


def tropical_subdivision(poset: MarkedPoset) -> list[SubdivisionCell]:
    """The full tropical subdivision of the marked order polytope.

    Its cells are the nonempty intersections of polytope faces with cells of
    the arrangement; computed here as the faces of the covector cells, which
    is the same collection.  A cell's dimension and its tight base rows come
    from its face: the base inequalities are the first rows of each cell's
    H-rep.
    """
    base, _ = _base_data(poset)
    arr = arrangement(poset)
    nb = len(base.inequalities)
    seen: dict[frozenset, SubdivisionCell] = {}
    for _, h, v in _covector_cells(poset, arr, base):
        lat = face_lattice(h, v)
        for face in lat.faces:
            if face.dim < 0:
                continue
            pts = tuple(v.vertices[i] for i in sorted(face.vertex_ids))
            key = frozenset(pts)
            if key not in seen:
                tight = frozenset(j for j in face.tight if j < nb)
                seen[key] = _make_cell(poset, base, arr, pts, face.dim, tight,
                                       ("tropical",))
    return sorted(seen.values(), key=lambda c: (c.dim, c.vertices))


def subdivision_vertices(poset: MarkedPoset,
                         base: HRep | None = None) -> list[tuple[Fraction, ...]]:
    """Vertices of the tropical subdivision (0-cells of the complex).  base,
    if given, is the polytope's H-rep from _base_data."""
    if base is None:
        base, _ = _base_data(poset)
    arr = arrangement(poset)
    return sorted({p for _, _, v in _covector_cells(poset, arr, base) for p in v.vertices})


def _image(theta, hom) -> tuple[Fraction, ...]:
    """The rational point of the integer row theta(hom)."""
    img = theta(hom)
    return tuple(Fraction(v, img[0]) for v in img[1:])


def _transferred(poset: MarkedPoset, t: Parameter, base: HRep) -> set:
    """phi_t images of the subdivision vertices."""
    phi = transfer_theta_homogeneous(poset, None, t)
    return {_image(phi, hom) for hom in homogenized(subdivision_vertices(poset, base))}


def generic_vertices(poset: MarkedPoset, t: Parameter,
                     base: HRep | None = None) -> list[tuple[Fraction, ...]]:
    """Vertices of O_t for interior t, via the tropical subdivision.

    Transfers the subdivision vertices and cross-checks against the kernel's
    double-description enumeration; for interior parameters the two always
    agree, so a mismatch means a kernel bug and raises.  base is as for
    subdivision_vertices.
    """
    if not t.is_interior:
        raise NonInteriorParameter("generic vertices need t in the open hypercube")
    if base is None:
        base, _ = _base_data(poset)
    images = _transferred(poset, t, base)
    kernel = set(vertices(hrep_general(poset, t, projected=True)).vertices)
    if images != kernel:
        raise AssertionError(
            "tropical subdivision vertices disagree with kernel enumeration: "
            f"{sorted(images)} vs {sorted(kernel)}")
    return sorted(images)


def transferred_subdivision_vertices(poset: MarkedPoset, t: Parameter):
    """phi_t images of the subdivision vertices for arbitrary t (a superset of
    the vertices of O_t)."""
    return sorted(_transferred(poset, t, _base_data(poset)[0]))


# -- ideal-chain subdivision ----------------------------------------------------

def order_ideals(poset: MarkedPoset) -> list[frozenset[str]]:
    """All order ideals (downward-closed subsets), smallest first."""
    ideals = {frozenset()}
    for e in poset.linear_extension():
        below = frozenset(q for q in poset.elements if poset.lt(q, e))
        ideals |= {i | {e} for i in ideals if below <= i}
    return sorted(ideals, key=lambda s: (len(s), tuple(sorted(s))))


CHAIN_GATE = 20_000


def compatible_ideal_chains(poset: MarkedPoset):
    """Chains of order ideals empty = I_0 < ... < I_r = P compatible with the
    marking: i(I,a) < i(I,b) iff lambda(a) < lambda(b) for marked a, b.

    The number of chains grows super-exponentially on antichain-rich posets;
    enumeration aborts beyond CHAIN_GATE candidates.
    """
    require_valid(poset)
    ideals = order_ideals(poset)
    full = frozenset(poset.elements)
    bigger: dict[frozenset, list[frozenset]] = {
        i: [j for j in ideals if i < j] for i in ideals}
    chains = []
    visited = [0]

    def rec(chain):
        visited[0] += 1
        if visited[0] > CHAIN_GATE:
            raise TooLarge(f"more than {CHAIN_GATE} ideal chains")
        cur = chain[-1]
        if cur == full:
            if _chain_compatible(poset, chain):
                chains.append(tuple(chain))
            return
        for nxt in bigger[cur]:
            chain.append(nxt)
            rec(chain)
            chain.pop()

    rec([frozenset()])
    return chains


def _chain_compatible(poset, chain) -> bool:
    first_index: dict[str, int] = {}
    for k in range(1, len(chain)):
        for e in chain[k] - chain[k - 1]:
            first_index[e] = k
    for a in poset.marking:
        for b in poset.marking:
            if (first_index[a] < first_index[b]) != (poset.marking[a] < poset.marking[b]):
                return False
    return True


def ideal_chain_cells(poset: MarkedPoset) -> list[SubdivisionCell]:
    """One cell per compatible chain of order ideals: points constant on each
    block and weakly increasing along the block order."""
    base, _ = _base_data(poset)
    arr = arrangement(poset)
    index = {e: i for i, e in enumerate(base.coords)}
    cells = []
    for chain in compatible_ideal_chains(poset):
        blocks = [sorted(chain[k] - chain[k - 1]) for k in range(1, len(chain))]
        eqs = [_difference(poset, index, e, blk[0], ("block-eq", blk[0], e))
               for blk in blocks for e in blk[1:]]
        ineqs = [_difference(poset, index, lo[0], hi[0], ("block-le", lo[0], hi[0]))
                 for lo, hi in zip(blocks, blocks[1:])]
        try:
            h = _combined_hrep(base, eqs, ineqs)
            v = vertices(h)
        except EmptyPolyhedron:
            continue
        label = ("ideal-chain",) + tuple("|".join(b) for b in blocks)
        cells.append(_polytope_cell(poset, base, arr, v.vertices, label))
    return cells


# -- conjecture probe -----------------------------------------------------------

def check_vertex_degeneration_conjecture(poset: MarkedPoset, t: Parameter) -> dict:
    """For each vertex of the generic O_t, search the hypercube vertices u for
    one where the degenerated point is a vertex of O_u.  Reports witnesses and
    any vertex without one (a potential counterexample); asserts nothing.
    """
    if len(poset.unmarked) > 10:
        raise TooLarge(f"conjecture sweep capped at 10 unmarked elements, "
                       f"got {len(poset.unmarked)}")
    base, base_v = _base_data(poset)
    verts = generic_vertices(poset, t, base)
    targets = []
    for u in hypercube_vertices(poset):
        if any(u.values.values()):
            vu = vertices(hrep_general(poset, u, projected=True))
        else:
            vu = base_v  # the corner u = 0 is the base polytope itself
        targets.append((u, transfer_theta_homogeneous(poset, t, u), frozenset(vu.vertices)))
    items = []
    all_witnessed = True
    for p, hom in zip(verts, homogenized(verts)):
        witnesses = []
        for u, theta, vset in targets:
            if _image(theta, hom) in vset:
                witnesses.append({k: u[k] for k in sorted(u.values)})
        if not witnesses:
            all_witnessed = False
        items.append({"vertex": p, "witnesses": witnesses})
    return {"check": "vertex-degeneration-conjecture",
            "pass": all_witnessed,
            "vertices": items}


# -- OFF export -------------------------------------------------------------------

def export_off(poset: MarkedPoset, cells: list[SubdivisionCell] | None = None) -> str:
    """OFF-format 2-skeleton of the tropical subdivision (ambient dim <= 3).

    Viewer export only: coordinates are rendered as floats.  cells, if
    given, is tropical_subdivision(poset), already built.
    """
    d = len(poset.unmarked)  # the projected coordinates
    if d > 3:
        raise ValueError("OFF export supports ambient dimension <= 3")
    if cells is None:
        cells = tropical_subdivision(poset)
    verts = sorted({p for c in cells for p in c.vertices})
    vid = {p: i for i, p in enumerate(verts)}
    polygons = []
    for c in cells:
        if c.dim != 2:
            continue
        polygons.append([vid[p] for p in _polygon_cycle(c.vertices)])
    lines = ["OFF", f"{len(verts)} {len(polygons)} 0"]
    for p in verts:
        padded = tuple(p) + (ZERO,) * (3 - d)
        lines.append(" ".join(repr(float(x)) for x in padded))
    for poly in polygons:
        lines.append(" ".join([str(len(poly))] + [str(i) for i in poly]))
    return "\n".join(lines) + "\n"


def _polygon_cycle(points):
    """Cyclic vertex order of a convex polygon given in any ambient dimension."""
    pts = list(points)
    base = pts[0]
    dirs = [linalg.vsub(p, base) for p in pts[1:]]
    u = next(d for d in dirs if not linalg.is_zero(d))
    w = next((d for d in dirs if linalg.rank([u, d]) == 2), None)
    if w is None:
        return pts  # degenerate (segment)
    coords2 = []
    for p in pts:
        v = linalg.vsub(p, base)
        sol = linalg.solve([[u[i], w[i]] for i in range(len(u))], list(v))
        coords2.append((sol[0], sol[1]))
    cx = sum((a for a, _ in coords2), ZERO) / len(coords2)
    cy = sum((b for _, b in coords2), ZERO) / len(coords2)
    rel = [(a - cx, b - cy) for a, b in coords2]

    def half(v):
        return 0 if (v[1], v[0]) > (ZERO, ZERO) else 1

    def cmp(i, j):
        hi, hj = half(rel[i]), half(rel[j])
        if hi != hj:
            return -1 if hi < hj else 1
        cross = rel[i][0] * rel[j][1] - rel[i][1] * rel[j][0]
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    order = sorted(range(len(pts)), key=cmp_to_key(cmp))
    return [pts[i] for i in order]
