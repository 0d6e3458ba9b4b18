"""Tropical hyperplane arrangement of a marked poset, covectors, the tropical
subdivision of the marked order polyhedron, and vertex enumeration of generic
family members by transferring subdivision vertices.

Every cell is cut from the one base polytope O_0(P, lambda) in the projected
coordinates.  It is built once per poset instance, with the one DD run on it,
and kept on the instance (`_base_data`).  One generator (`_covector_cells`)
runs the covector search over the maximal cells only, one closed
single-argmax sector per hyperplane: every other cell is a face of one of
them, so the subdivision vertices and the subdivision's faces are theirs.  A
search node continues its parent's DD with its own sector rows, and an empty
partial cell is dropped at once; no linear program is solved.  A cell is its
cone alone: its facets, dimension and tight base rows are read off the
cone's zero sets against the base H-rep.  Vertices stay integer rows
(VRep.rows) throughout: subdivision cells are keyed by vertex bitmasks,
their tight rows and covectors are ANDs of per-vertex masks, compared in
integers once per subdivision vertex, and Fractions are built once per
subdivision vertex, for the returned cells.  The ideal-chain cells
(ideal_chain_cells, a library function that no command prints), the marked
analogue of Stanley's subdivision of the order polytope by chains of order
ideals (1986), refine these; each is the same base cone cut by its chain's
block rows, and the chains grow through the poset's levels of order ideals,
by the loop that the Ehrhart counts at t = 0 use too.

TropicalForm, TropicalArrangement and SubdivisionCell are immutable records
(see mpp.records): named tuples, so each also iterates, sorts and equals
the plain tuple of its fields.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cmp_to_key

from . import linalg
from .family import (Parameter, _row_writer, _slots, hrep_general, hypercube_vertices,
                     transfer_theta_homogeneous, zero_parameter)
from . import geometry
from .geometry import (Cone, HRep, TooLarge, UnsupportedUnbounded, VRep,
                       _bits, _dimension, facet_masks, homogenization_cone, iter_faces,
                       vertex_tight, vertices)
from .linalg import _primitive, common_denominator, dehomogenized
from .poset import MarkedPoset, _grow_ideals, require_valid
from .rationals import rat

ZERO = Fraction(0)


class NonInteriorParameter(ValueError):
    pass


class TropicalForm(namedtuple("TropicalForm", "coeffs")):
    """max_i (x_i + c_i) over the support; omitted coordinates mean -infinity."""

    __slots__ = ()
    coeffs: tuple[tuple[str, Fraction], ...]

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.coeffs)

    def value(self, x) -> Fraction:
        return max(rat(x[name]) + c for name, c in self.coeffs)

    def signature(self, x) -> frozenset[str]:
        best = self.value(x)
        return frozenset(name for name, c in self.coeffs if rat(x[name]) + c == best)


class TropicalArrangement(namedtuple("TropicalArrangement", "hyperplanes")):
    """Named tropical hyperplanes; for posets the names are the elements of R
    (unmarked elements covering at least two others)."""

    __slots__ = ()
    hyperplanes: tuple[tuple[str, TropicalForm], ...]

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.hyperplanes)

    def form(self, name: str) -> TropicalForm:
        return dict(self.hyperplanes)[name]


def arrangement(poset: MarkedPoset) -> TropicalArrangement:
    """One hyperplane max_{q < r} x_q per unmarked r covering >= 2 elements."""
    require_valid(poset)
    lows = poset.lower_covers
    return TropicalArrangement(tuple((r, TropicalForm(tuple((q, ZERO) for q in lows(r))))
                                     for r in sorted(poset.unmarked) if len(lows(r)) >= 2))


def covector(arr: TropicalArrangement, x) -> dict[str, frozenset[str]]:
    """Per-hyperplane argmax signatures of a (full-space) point."""
    return {name: form.signature(x) for name, form in arr.hyperplanes}


class SubdivisionCell(namedtuple("SubdivisionCell", "vertices dim covector tight origin")):
    """A cell of a polyhedral subdivision of the (bounded) marked order polytope.

    ``tight`` indexes the inequalities of the generating projected H-rep that
    are tight on the whole cell; ``covector`` is the tropical covector of the
    cell's relative interior.
    """

    __slots__ = ()
    vertices: tuple[tuple[Fraction, ...], ...]
    dim: int
    covector: tuple[tuple[str, tuple[str, ...]], ...]
    tight: frozenset[int]
    origin: tuple[str, ...]


def _difference(write, a: str, b: str, origin):
    """The integer row of x_a - x_b (= or <=) 0 by write, a _row_writer of
    the projected coordinates: a marked term moves into the right-hand side."""
    return write(((a, 1), (b, -1)), 1, origin)


def _covector_cells(poset: MarkedPoset, arr: TropicalArrangement, base: HRep,
                    root: Cone):
    """The cone of each nonempty maximal cell: the polytope P cut with the
    closed cell F_tau of a covector tau whose every type is a single
    element, tau(r) = {m}.  F_tau is then x_q <= x_m for the other lower
    covers q of each r, one closed sector per hyperplane.

    No other covector is needed.  The closed single-argmax sectors of a
    hyperplane cover the space.  Take any covector tau, pick m0 in each
    tau(r) and let sigma(r) = {m0}.  F_tau is F_sigma cut by the equalities
    x_m = x_m0 for the other m in each tau(r), and each of them supports
    F_sigma, on which x_m <= x_m0.  So the cell P & F_tau is a face of the
    maximal cell P & F_sigma (Develin & Sturmfels, "Tropical convexity",
    2004, on types and sectors), and the union of the cells' vertices, and
    the set of their faces deduplicated by vertex set, are those of the
    search over every covector.

    tau is extended one hyperplane at a time, and a partial covector is
    dropped as soon as its cell is empty.  A node's cone is its parent's,
    cut by its own sector rows only (Cone.cut), so DD runs once on the base
    polytope: root is homogenization_cone(base).  The cell's sector rows are
    the cone's rows after root's, its vertices the cone's rays with x0 > 0,
    primitive rows, and cone.vrep() is its V-rep."""
    write = _row_writer(poset, base.coords)
    sectors = []
    for _, form in arr.hyperplanes:
        sectors.append([])
        for m in sorted(form.support):
            rows = [_difference(write, q, m, ())[0] for q in form.support if q != m]
            # drop 0 <= 0; any other constant row is x0 >= 0 or x0 <= 0 (empties the cone)
            sectors[-1].append([_primitive(row) for row in rows if any(row)])

    def rec(i, cone):
        if i == len(sectors):
            yield cone
            return
        for rows in sectors[i]:
            sub = cone.cut(rows)
            if not sub.empty:
                yield from rec(i + 1, sub)

    yield from rec(0, root)


def _base_data(poset: MarkedPoset) -> tuple[HRep, Cone]:
    """The base polytope O_0 in the projected coordinates and its cone, the
    one DD run on it, kept in the poset's __dict__ with its cached values."""
    if "_base_data" not in poset.__dict__:
        base = hrep_general(poset, zero_parameter(poset), projected=True)
        cone = homogenization_cone(base)
        if cone.vrep().rays:
            raise UnsupportedUnbounded("tropical subdivision implemented for polytopes only")
        poset.__dict__["_base_data"] = base, cone
    return poset.__dict__["_base_data"]


def _covector_forms(poset: MarkedPoset, arr: TropicalArrangement, coords):
    """The hyperplanes of arr = arrangement(poset), by name, each with its
    terms (q, j, a) in sorted-name order: max_q x_q has no constants, and at
    the homogeneous point w = (w0, w0 x) of the projected coordinates x_q is
    a * w[j] / (L * w0), L the denominator of the marking (j = 0 for a
    marked q): (j, a) is q's slot of family._slots."""
    slot = _slots(poset, coords)
    return [(r, [(q, *slot[q]) for q in sorted(form.support)]) for r, form in arr.hyperplanes]


def _argmax_mask(forms, w) -> int:
    """The terms of forms that attain their hyperplane's max at the
    homogeneous integer point w, w[0] > 0, compared in integers: one mask
    over every term, hyperplane after hyperplane (bit o + k for the k-th
    term of a hyperplane whose predecessors have o terms)."""
    mask = o = 0
    for _, terms in forms:
        values = [a * w[j] for _, j, a in terms]
        best = max(values)
        for k, value in enumerate(values):
            if value == best:
                mask |= 1 << o + k
        o += len(terms)
    return mask


def _argmax_names(forms, mask) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """The canonical covector (per hyperplane its sorted argmax terms) of a
    mask of _argmax_mask."""
    out = []
    for r, terms in forms:
        out.append((r, tuple(q for k, (q, _, _) in enumerate(terms) if mask >> k & 1)))
        mask >>= len(terms)
    return tuple(out)


def _covector_at(forms, rows) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """The canonical covector at the barycenter of integer rows over one
    denominator: their sum is the barycenter as a homogeneous point."""
    return _argmax_names(forms, _argmax_mask(forms, tuple(map(sum, zip(*rows)))))


def tropical_cells(poset: MarkedPoset) -> list[SubdivisionCell]:
    """The maximal cells: the polytope cut with the closed cell F_tau of each
    covector tau with single-element types that meets it (no faces; every
    other cell of the subdivision is a face of one of these)."""
    require_valid(poset)
    base, root = _base_data(poset)
    arr = arrangement(poset)
    forms = _covector_forms(poset, arr, base.coords)
    return [_polytope_cell(base, forms, cone.vrep(), ("covector",))
            for cone in _covector_cells(poset, arr, base, root)]


def _polytope_cell(base: HRep, forms, v: VRep, origin) -> SubdivisionCell:
    """The cell spanned by all vertices of v, a cut of base's cone: its
    dimension and tight base rows from the cone's zero sets, the covector of
    the vertex barycenter."""
    masks, _, full = facet_masks(base, v)
    tight = frozenset(j for j, m in enumerate(masks) if m == full)
    return SubdivisionCell(v.vertices, _dimension(base, v),
                           _covector_at(forms, v.rows), tight, tuple(origin))


def tropical_subdivision(poset: MarkedPoset) -> list[SubdivisionCell]:
    """The full tropical subdivision of the marked order polytope.

    Its cells are the nonempty intersections of polytope faces with cells of
    the arrangement; computed here as the faces of the maximal covector
    cells, which is the same collection (see _covector_cells).  A face of a
    maximal cell's depth-first walk (iter_faces) is keyed by its vertex mask
    over one global index of the subdivision vertices (their primitive
    integer rows), so a face shared by maximal cells is kept once.  The walk
    gives its dimension.  Its tight base rows are the AND of its vertices'
    masks (vertex_tight of the cell's facet_masks), and its covector is, per
    hyperplane, the AND of its vertices' argmax masks (_argmax_mask, one
    per subdivision vertex): the face lies in its maximal cell's closed
    sector, whose m is a maximizer at every vertex, so by linearity a term
    attains the max at the barycenter exactly when it does so at every
    vertex.  Cells sort by (dim, vertices) through the ranks of the
    vertices, whose Fractions are built once, and equal covectors are one
    tuple.  Raises TooLarge once more than FACE_GATE distinct cells are
    found.
    """
    base, root = _base_data(poset)
    arr = arrangement(poset)
    forms = _covector_forms(poset, arr, base.coords)
    index: dict[tuple[int, ...], int] = {}  # primitive vertex row -> global id
    argmax: list[int] = []  # global id -> its _argmax_mask
    found: dict[int, tuple] = {}  # global vertex mask -> (dim, tight, argmax)
    for cone in _covector_cells(poset, arr, base, root):
        v = cone.vrep()
        ids = []
        for r in v.rows:
            r = _primitive(r)
            if r not in index:
                index[r] = len(argmax)
                argmax.append(_argmax_mask(forms, r))
            ids.append(index[r])
        bits = [1 << i for i in ids]
        at = [argmax[i] for i in ids]
        masks, facets, _ = facet_masks(base, v)
        tight_at = vertex_tight(masks, len(ids))
        for k, batch in iter_faces(v, facets, _dimension(base, v)):
            for f in batch:
                local = _bits(f)
                key = sum(bits[i] for i in local)
                if key not in found:
                    if len(found) == geometry.FACE_GATE:
                        raise TooLarge(f"tropical subdivision holds more than "
                                       f"{geometry.FACE_GATE} cells")
                    tight = cov = -1
                    for i in local:
                        tight &= tight_at[i]
                        cov &= at[i]
                    found[key] = (k, tight, cov)
    rows = common_denominator(list(index))
    rank = [0] * len(rows)
    for pos, i in enumerate(sorted(range(len(rows)), key=rows.__getitem__)):
        rank[i] = pos
    points = dehomogenized(rows)
    covectors: dict[int, tuple] = {}  # argmax mask -> covector
    cells = []
    for key, (dim, tight, cov) in found.items():
        ids = sorted(_bits(key), key=rank.__getitem__)
        if cov not in covectors:
            covectors[cov] = _argmax_names(forms, cov)
        cell = SubdivisionCell(tuple(points[i] for i in ids), dim, covectors[cov],
                               frozenset(_bits(tight)), ("tropical",))
        cells.append(((dim, [rank[i] for i in ids]), cell))
    cells.sort(key=lambda item: item[0])
    return [cell for _, cell in cells]


def _subdivision_rows(poset: MarkedPoset) -> set[tuple[int, ...]]:
    """The primitive integer rows of the subdivision vertices (the 0-cells)."""
    arr = arrangement(poset)
    return {r for cone in _covector_cells(poset, arr, *_base_data(poset))
            for r, _ in cone.rays if r[0] > 0}


def _sorted_points(rows) -> list[tuple[Fraction, ...]]:
    """The sorted rational points of primitive integer rows."""
    return list(dehomogenized(sorted(common_denominator(list(rows)))))


def subdivision_vertices(poset: MarkedPoset) -> list[tuple[Fraction, ...]]:
    """Vertices of the tropical subdivision (0-cells of the complex)."""
    return _sorted_points(_subdivision_rows(poset))


def _transferred(poset: MarkedPoset, t: Parameter) -> set[tuple[int, ...]]:
    """The primitive integer rows of the phi_t images of the subdivision
    vertices."""
    phi = transfer_theta_homogeneous(poset, None, t)
    return set(map(_primitive, phi(list(_subdivision_rows(poset)))))


def generic_vrep(poset: MarkedPoset, t: Parameter) -> VRep:
    """The V-rep of O_t for interior t, cross-checked against the transferred
    subdivision vertices: the two always agree, so a mismatch is a kernel
    bug and raises."""
    if not t.is_interior:
        raise NonInteriorParameter("generic vertices need t in the open hypercube")
    images = _transferred(poset, t)
    v = vertices(hrep_general(poset, t, projected=True))
    if images != {_primitive(r) for r in v.rows}:
        raise AssertionError(
            "tropical subdivision vertices disagree with kernel enumeration: "
            f"{_sorted_points(images)} vs {list(v.vertices)}")
    return v


def generic_vertices(poset: MarkedPoset, t: Parameter) -> list[tuple[Fraction, ...]]:
    """Vertices of O_t for interior t, via the tropical subdivision: the
    Fraction view of generic_vrep."""
    return list(generic_vrep(poset, t).vertices)


def transferred_subdivision_vertices(poset: MarkedPoset, t: Parameter):
    """phi_t images of the subdivision vertices for arbitrary t (a superset of
    the vertices of O_t)."""
    return _sorted_points(_transferred(poset, t))


# -- ideal-chain subdivision ----------------------------------------------------

CHAIN_GATE = 20_000


def compatible_ideal_chains(poset: MarkedPoset):
    """Chains of order ideals empty = I_0 < ... < I_r = P compatible with the
    marking: i(I,a) < i(I,b) iff lambda(a) < lambda(b) for marked a, b.

    Each ideal of such a chain lies on a level of MarkedPoset._ideal_levels,
    so a chain grows depth-first from I on level l to the level-l ideals
    above I (an unmarked block) and the level-(l + 1) ideals above I (a
    marked block), smallest first, ties by their sorted elements.  The
    compatible prefixes grow super-exponentially on antichain-rich posets;
    enumeration aborts once more than CHAIN_GATE of them are grown.
    """
    require_valid(poset)
    levels = [(0, ())] + list(poset._ideal_levels.values())
    named = {}  # ideal -> (its sort key, its elements), built once

    def name(ideal):
        if ideal not in named:
            elements = sorted(poset._members(ideal))
            named[ideal] = (len(elements), elements), frozenset(elements)
        return named[ideal]

    chains, prefixes = [], 1  # the compatible prefixes so far, the empty chain first

    def rec(chain, level):
        nonlocal prefixes
        cur = chain[-1]
        if cur == (1 << len(poset.elements)) - 1:
            chains.append(tuple(name(i)[1] for i in chain))
            return
        found = [(i, level) for i in
                 _grow_ideals(levels[level][1], cur, CHAIN_GATE - prefixes + 1)[1:]]
        if level + 1 < len(levels):
            base, free = levels[level + 1]
            found += [(i, level + 1) for i in
                      _grow_ideals(free, cur | base, CHAIN_GATE - prefixes - len(found))]
        prefixes += len(found)
        if prefixes > CHAIN_GATE:
            raise TooLarge(f"more than {CHAIN_GATE} compatible ideal-chain prefixes")
        for nxt, up in sorted(found, key=lambda f: name(f[0])[0]):
            rec(chain + [nxt], up)

    rec([0], 0)
    return chains


def ideal_chain_cells(poset: MarkedPoset) -> list[SubdivisionCell]:
    """One cell per compatible chain of order ideals: points constant on each
    block and weakly increasing along the block order: the base cone (the one
    DD run) cut by the block rows, an equation as two opposite rows.
    The chains come first, so that their budget refuses before any DD."""
    chains = compatible_ideal_chains(poset)
    base, root = _base_data(poset)
    arr = arrangement(poset)
    forms = _covector_forms(poset, arr, base.coords)
    write = _row_writer(poset, base.coords)
    cells = []
    for chain in chains:
        blocks = [sorted(chain[k] - chain[k - 1]) for k in range(1, len(chain))]
        le = [(e, blk[0]) for blk in blocks for e in blk[1:]]  # (a, b): x_a <= x_b
        le += [(b, a) for a, b in le] + [(lo[0], hi[0]) for lo, hi in zip(blocks, blocks[1:])]
        cone = root.cut([_primitive(_difference(write, a, b, ())[0]) for a, b in le])
        if not cone.empty:
            label = ("ideal-chain",) + tuple("|".join(b) for b in blocks)
            cells.append(_polytope_cell(base, forms, cone.vrep(), label))
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
    base, root = _base_data(poset)
    generic = generic_vrep(poset, t)
    # one DD per distinct corner H-rep; the corner u = 0, and every corner
    # whose H-rep is O_0's, reads the base polytope's run
    vsets = {base: {_primitive(r) for r in root.vrep().rows}}
    targets = []
    for u in hypercube_vertices(poset):
        h = hrep_general(poset, u, projected=True) if any(u.values.values()) else base
        if h not in vsets:
            vsets[h] = {_primitive(r) for r in vertices(h).rows}
        images = transfer_theta_homogeneous(poset, t, u)(generic.rows)
        targets.append(({k: u[k] for k in sorted(u.values)},
                         [_primitive(y) in vsets[h] for y in images]))
    items = [{"vertex": p, "witnesses": [witness for witness, hits in targets if hits[k]]}
             for k, p in enumerate(generic.vertices)]
    return {"check": "vertex-degeneration-conjecture",
            "pass": all(item["witnesses"] for item in items),
            "vertices": items}


# -- OFF export -------------------------------------------------------------------

def off_dimension(poset: MarkedPoset) -> int:
    """The OFF export's ambient dimension; raises ValueError above 3."""
    d = len(poset.unmarked)
    if d > 3:
        raise ValueError("OFF export supports ambient dimension <= 3")
    return d


def export_off(poset: MarkedPoset, cells: list[SubdivisionCell] | None = None) -> str:
    """OFF-format 2-skeleton of the tropical subdivision (ambient dim <= 3).

    Viewer export only: coordinates are rendered as floats.  cells, if
    given, is tropical_subdivision(poset), already built.
    """
    d = off_dimension(poset)
    if cells is None:
        cells = tropical_subdivision(poset)
    verts = sorted({p for c in cells for p in c.vertices})
    vid = {p: i for i, p in enumerate(verts)}
    polygons = [[vid[p] for p in _polygon_cycle(c.vertices)] for c in cells if c.dim == 2]
    lines = ["OFF", f"{len(verts)} {len(polygons)} 0"]
    lines += [" ".join(repr(float(x)) for x in tuple(p) + (ZERO,) * (3 - d)) for p in verts]
    lines += [" ".join(map(str, [len(poly), *poly])) for poly in polygons]
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
    plane = [[a, b] for a, b in zip(u, w)]
    coords2 = [tuple(linalg.solve(plane, list(linalg.vsub(p, base)))) for p in pts]
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
