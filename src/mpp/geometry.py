"""Exact rational polyhedron kernel.

H-representations hold each constraint as an integer row with a positive
scale that shares no factor with it, an origin tag and its primitive form;
Fraction constraints are built only when a caller reads HRep.equations or
HRep.inequalities, and neither equality nor hashing reads them.  Vertex
enumeration is the classical double description method on the
homogenization cone, in integers throughout: it reads the primitive rows,
rays stay primitive int tuples with bitmask zero sets, and the returned VRep
holds each vertex as an integer row over one common denominator.  The cone
that DD leaves (Cone) can be cut by further rows, which continues the same
DD instead of starting it again; a run refuses past DD_BUDGET steps of
adjacency testing.  Fraction vertices are built only when a caller reads
VRep.vertices.  A brute-force constraint-subset oracle is kept alongside
for cross-checking.

The VRep that DD returns keeps its cone, and the face layer reads it: the
incidences of the inequalities with the generators are the rays' zero sets
read by each row's insertion bit, and a polyhedron's dimension is d minus
the rank of the equations and of the rows in every zero set, its implicit
equalities.  Face lattices are restricted to bounded polyhedra.  Faces are
vertex bitmasks, each built once by a depth-first walk from the facets'
incidence masks in memory linear in the facets; f-vectors count them
unstored.  The face holding a point in its relative interior is looked up
by the point's tight inequalities, for a batch of points at once, one pass
per inequality over their columns.

Constraint, HRep, VRep, Cone, Face and FaceLattice are immutable records
(see mpp.records): named tuples, so each also iterates, sorts and equals
the plain tuple of its fields.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction

from . import linalg
from .linalg import (_eliminate, _idot, _primitive, common_denominator, dehomogenized, dot,
                     homogenized)
from .rationals import rat
from .records import Frozen, cached_property


class GeometryError(Exception):
    pass


class EmptyPolyhedron(GeometryError):
    pass


class Unbounded(GeometryError):
    pass


class UnsupportedUnbounded(GeometryError):
    pass


class UnsupportedLineality(GeometryError):
    pass


class NonLatticeVertices(GeometryError):
    pass


class TooLarge(GeometryError):
    pass


PLUMBING = ("plumbing",)


class Constraint(namedtuple("Constraint", "coeffs rhs origin", defaults=(PLUMBING,))):
    """A row a . x = rhs (equation) or a . x <= rhs (inequality), in Fractions."""

    __slots__ = ()
    coeffs: tuple[Fraction, ...]
    rhs: Fraction
    origin: tuple[str, ...]

    def evaluate(self, point) -> Fraction:
        return dot(self.coeffs, point)


class HRep(Frozen, namedtuple("HRep", "coords scaled_equations scaled_inequalities "
                                       "int_equations int_inequalities",
                                defaults=((), (), (), ()))):
    """Equations a . x = rhs and inequalities a . x <= rhs over coords.

    Each constraint is held as (row, S, origin) in scaled_equations and
    scaled_inequalities: an integer row = S * (-rhs, a) with a positive
    integer scale S that shares no factor with row, so the record's equality
    and hash compare exactly the rational constraints and their origins.
    Their primitive forms, which DD, incidences and lattice counting read,
    are int_equations and int_inequalities: x satisfies an inequality iff
    row . (1, x) <= 0.  The Constraint tuples equations and inequalities are
    built on first read.  HRep(coords) is the whole space; with_rows appends
    integer rows, and make_hrep builds an HRep from rational triples.
    """

    coords: tuple[str, ...]
    scaled_equations: tuple[tuple[tuple[int, ...], int, tuple[str, ...]], ...]
    scaled_inequalities: tuple[tuple[tuple[int, ...], int, tuple[str, ...]], ...]
    int_equations: tuple[tuple[int, ...], ...]
    int_inequalities: tuple[tuple[int, ...], ...]

    def with_rows(self, equations=(), inequalities=()) -> HRep:
        """This H-rep with constraints (row, S, origin) appended.  A constant
        row (a = 0) is dropped when it holds and raises EmptyPolyhedron when
        it fails (e.g. 0 <= -1)."""
        n = len(self.coords) + 1
        eqs, int_eqs = _nonconstant(equations, n, "equation", (0).__ne__)
        ineqs, int_ineqs = _nonconstant(inequalities, n, "inequality", (0).__lt__)
        return HRep(self.coords, self.scaled_equations + eqs, self.scaled_inequalities + ineqs,
                    self.int_equations + int_eqs, self.int_inequalities + int_ineqs)

    @cached_property
    def equations(self) -> tuple[Constraint, ...]:
        return _constraints(self.scaled_equations)

    @cached_property
    def inequalities(self) -> tuple[Constraint, ...]:
        return _constraints(self.scaled_inequalities)

    @property
    def dim_ambient(self) -> int:
        return len(self.coords)

    def contains(self, point) -> bool:
        return (all(c.evaluate(point) == c.rhs for c in self.equations)
                and all(c.evaluate(point) <= c.rhs for c in self.inequalities))


def _scaled(coeffs, rhs, origin):
    """(row, S, origin) of a . x (= or <=) rhs, each value read by
    rationals.rat: S is their least common denominator."""
    values = [rat(x) for x in (rhs, *coeffs)]
    values[0] = -values[0]
    scale = math.lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (scale // x.denominator) for x in values), scale, tuple(origin)


def _constraints(rows) -> tuple[Constraint, ...]:
    return tuple(Constraint(tuple(Fraction(x, s) for x in row[1:]), Fraction(-row[0], s), origin)
                 for row, s, origin in rows)


def _nonconstant(rows, n, kind, violated):
    """(the rows (row, S, origin) of width n whose a is not zero, each
    reduced by the common factor of row and S, their primitive forms); a
    constant row with violated(row[0]) raises."""
    kept, prims = [], []
    for row, scale, origin in rows:
        if len(row) != n:
            raise GeometryError("constraint arity does not match ambient coordinates")
        if any(row[1:]):
            g = math.gcd(*row)
            prim = row if g == 1 else tuple(x // g for x in row)
            s = math.gcd(g, scale)  # the factor that row and scale share
            if s == g:
                row = prim
            elif s > 1:
                row = tuple(x // s for x in row)
            kept.append((row, scale // s, origin))
            prims.append(prim)
        elif violated(row[0]):
            raise EmptyPolyhedron(f"constant {kind} violated (origin {origin})")
    return tuple(kept), tuple(prims)


def make_hrep(coords, equations, inequalities) -> HRep:
    """An HRep from (coeffs, rhs, origin) triples, constant rows as in with_rows."""
    return HRep(tuple(coords)).with_rows([_scaled(*c) for c in equations],
                                         [_scaled(*c) for c in inequalities])


class VRep(Frozen, namedtuple("VRep", "coords rows rays")):
    """Vertices and recession rays of a polyhedron.

    rows holds each vertex x as the integer row (D, D * x) over one common
    denominator D, the least one, sorted: the order of the vertices
    themselves.  rays are primitive integer directions as int tuples,
    sorted.  vertices, the Fraction tuples of the vertices, is built on
    first read; equality compares rows, which are canonical.  A VRep that
    Cone.vrep returns also keeps that cone, out of its fields, for the
    incidences (see _cone).
    """

    coords: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    rays: tuple[tuple[int, ...], ...]

    @cached_property
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        return dehomogenized(self.rows)


# -- double description ------------------------------------------------------

DD_BUDGET = 10 ** 7  # steps of adjacency testing in one run (see _dd_process_inequality)

# Integer kernel: zero sets are bitmasks over the inequality insertion order
# (x0 >= 0, then the widest rows first; see homogenization_cone), and rows
# that Cone.cut adds later take the next bits.

def _dd_process_inequality(idx, row, lines, rays, span_dim, work):
    """Add row . x <= 0 (bit idx) to the cone generated by lines and rays.

    rays is a list of (primitive int ray, zero-set bitmask); span_dim is the
    dimension of the linear space left by the equations.  work[0] counts
    the steps of adjacency testing so far, |plus| * |minus| * |rays| for a
    row, since each pair's test reads up to every ray; the row's pairs are
    not tested, and TooLarge is raised, if they take it past DD_BUDGET.
    """
    bit = 1 << idx
    l0, v0, lines = _eliminate(row, lines)
    if l0 is not None:
        # a0 * r - sgn * s * l0 is a positive multiple of r plus a line and
        # lies on the hyperplane; -sgn * l0 is the new ray strictly inside
        sgn, a0 = (1, v0) if v0 > 0 else (-1, -v0)
        new_rays = []
        for r, z in rays:
            s = _idot(row, r)
            if s != 0:
                r = _primitive(tuple(a0 * x - sgn * s * y for x, y in zip(r, l0)))
            new_rays.append((r, z | bit))
        new_rays.append((tuple(-sgn * x for x in l0), bit - 1))
        return lines, new_rays
    plus, minus, new_rays = [], [], []
    for r, z in rays:
        s = _idot(row, r)
        if s > 0:
            plus.append((r, z, s))
        elif s < 0:
            minus.append((r, z, s))
            new_rays.append((r, z))
        else:
            new_rays.append((r, z | bit))
    if plus and minus:
        work[0] += len(plus) * len(minus) * len(rays)
        if work[0] > DD_BUDGET:
            raise TooLarge(f"double description reached {work[0]} steps of adjacency "
                           f"testing, past its budget of {DD_BUDGET}")
        zs = [z for _, z in rays]
        # adjacent rays share at least span_dim - len(lines) - 2 tight rows
        need = span_dim - len(lines) - 2
        for rp, zp, sp in plus:
            for rm, zm, sm in minus:
                zc = zp & zm
                if zc.bit_count() >= need and _adjacent(zc, zs):
                    # each adjacent pair spans its own 2-face: no ray repeats
                    w = _primitive(tuple(sp * xm - sm * xp for xp, xm in zip(rp, rm)))
                    new_rays.append((w, zc | bit))
    return lines, new_rays


def _adjacent(zc: int, zs: list[int]) -> bool:
    """Two rays with common zero set zc are adjacent iff no third ray (by list
    index, not by value) contains zc: zc & z == zc for just two entries."""
    n = 0
    for z in zs:
        if z & zc == zc:
            n += 1
            if n > 2:
                return False
    return True


# the insertion order of homogenization_cone as two stable sorts on C-level
# keys: by the reversed row, then by the zero count (rows share one width, so
# the fewest zeros are the most nonzero coefficients)
_reversed = operator.itemgetter(slice(None, None, -1))
_zero_count = operator.methodcaller("count", 0)


class Cone(namedtuple("Cone", "coords lines rays span_dim rows")):
    """The homogenization cone {x0 >= 0, row . x <= 0} of an H-rep as double
    description leaves it: lines, and rays as (primitive int ray, zero-set
    bitmask over the insertion order).  span_dim is the dimension of the
    linear space left by the equations; rows are the inequality rows
    inserted so far, in insertion order, so row rows[b] has bit b and the
    next row takes bit len(rows)."""

    __slots__ = ()
    coords: tuple[str, ...]
    lines: list
    rays: list
    span_dim: int
    rows: tuple[tuple[int, ...], ...]

    def cut(self, rows) -> Cone:
        """This cone cut by the further inequalities row . x <= 0, a sequence
        of primitive integer rows (-rhs, a): double description continued,
        each row at the next free bit (Fukuda & Prodon 1996).  This is the
        one DD loop.  A row may repeat one already inserted, and the cone
        described does not depend on the order of the rows.  Raises
        TooLarge once the adjacency tests of this call pass DD_BUDGET."""
        lines, rays, work = self.lines, self.rays, [0]
        for idx, row in enumerate(rows, len(self.rows)):
            lines, rays = _dd_process_inequality(idx, row, lines, rays, self.span_dim, work)
        return Cone(self.coords, lines, rays, self.span_dim, self.rows + tuple(rows))

    @property
    def empty(self) -> bool:
        """Whether the polyhedron is empty: lines lie in x0 = 0, so without a
        ray of x0 > 0 there is no point at all."""
        return all(r[0] == 0 for r, _ in self.rays)

    def vrep(self) -> VRep:
        """The V-rep of the polyhedron, which keeps this cone for incidences
        (see _cone).  Raises EmptyPolyhedron when it is empty and
        UnsupportedLineality when it contains a line."""
        points = [r for r, _ in self.rays if r[0] > 0]
        if not points:  # see empty
            raise EmptyPolyhedron("no feasible point")
        if self.lines:
            raise UnsupportedLineality("polyhedron contains a line")
        # a ray with r[0] == 0 is primitive, so its tail r[1:] is primitive too
        recession = {r[1:] for r, _ in self.rays if r[0] == 0}
        v = VRep(self.coords, tuple(sorted(set(common_denominator(points)))),
                 tuple(sorted(recession)))
        v.__dict__["_cone"] = self  # the __dict__ that records.cached_property fills
        return v


def homogenization_cone(h: HRep) -> Cone:
    """Run DD on the homogenization cone of h.

    Rows are (-rhs, coeffs) scaled to integers, so the cone is row . x <= 0.
    x0 >= 0 is inserted first, then the distinct inequalities, those with the
    most nonzero coefficients first (ties by the reversed row).  For the
    chain rows of hrep_general that is the longest saturated chains first,
    which keeps the intermediate cone near the size of the answer at
    interior t; the order is a function of the row alone, and the result
    does not depend on it.
    """
    d = h.dim_ambient
    lines = linalg.kernel(h.int_equations, d + 1)  # no ray yet: equations only cut lines
    rows = [(-1,) + (0,) * d]  # x0 >= 0
    rows += sorted(sorted(set(h.int_inequalities), key=_reversed), key=_zero_count)
    return Cone(h.coords, lines, [], len(lines), ()).cut(rows)


def vertices(h: HRep) -> VRep:
    """Exact V-representation by double description.

    Raises EmptyPolyhedron when infeasible and UnsupportedLineality when the
    polyhedron contains a line (marked poset polyhedra never do).
    """
    return homogenization_cone(h).vrep()


# -- brute-force oracle -------------------------------------------------------

def _recession_direction(h: HRep):
    """A nonzero recession direction of the polyhedron, or None.

    Rows of rank below d leave a line.  Otherwise the recession cone
    {y : E y = 0, A y <= 0} is pointed, so it is nonzero exactly when it has
    an extreme ray: the one-dimensional kernel of the equations and
    d - 1 - rank(E) inequalities, taken with the sign that satisfies every
    inequality.
    """
    d = h.dim_ambient
    eqs = [c.coeffs for c in h.equations]
    ineqs = [c.coeffs for c in h.inequalities]
    lines = linalg.nullspace(eqs + ineqs, d)
    if lines:
        return lines[0]
    k = d - 1 - linalg.rank(eqs)
    if k < 0:  # the equations alone pin the point
        return None
    for combo in itertools.combinations(ineqs, k):
        kernel = linalg.nullspace(eqs + list(combo), d)
        if len(kernel) == 1:
            for y in (kernel[0], tuple(-x for x in kernel[0])):
                if all(dot(a, y) <= 0 for a in ineqs):
                    return y
    return None


def vertices_bruteforce(h: HRep) -> VRep:
    """Independent oracle: intersect all d-subsets of constraints.

    Bounded polyhedra of ambient dimension <= 8 only; raises Unbounded when a
    recession direction exists.
    """
    d = h.dim_ambient
    if d > 8:
        raise TooLarge("brute-force vertex enumeration capped at dimension 8")
    if d == 0:
        return VRep((), ((1,),), ())
    eq_rows = [list(c.coeffs) for c in h.equations]
    eq_rhs = [c.rhs for c in h.equations]
    k = d - linalg.rank(eq_rows)
    verts = set()
    for combo in itertools.combinations(range(len(h.inequalities)), k):
        rows = eq_rows + [list(h.inequalities[i].coeffs) for i in combo]
        rhs = eq_rhs + [h.inequalities[i].rhs for i in combo]
        x = linalg.solve_unique(rows, rhs)
        if x is not None and h.contains(x):
            verts.add(x)
    if _recession_direction(h) is not None:
        raise Unbounded("polyhedron has a recession direction")
    if not verts:
        raise EmptyPolyhedron("no feasible point")
    return VRep(h.coords, tuple(sorted(homogenized(verts))), ())


# -- face lattice -------------------------------------------------------------

class Face(namedtuple("Face", "vertex_ids tight dim")):
    __slots__ = ()
    vertex_ids: frozenset[int]
    tight: frozenset[int]
    dim: int


class FaceLattice(Frozen, namedtuple("FaceLattice", "rows faces")):
    """All faces of a polytope ordered by vertex-set inclusion.

    Includes the empty face (dim -1) and the polytope itself.  ``tight`` holds
    indices into the generating HRep's inequality list; ``vertex_ids`` index
    rows, the vertices as in VRep.rows.
    """

    rows: tuple[tuple[int, ...], ...]
    faces: tuple[Face, ...]

    @cached_property
    def dim(self) -> int:
        return max(f.dim for f in self.faces)

    @cached_property
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        return dehomogenized(self.rows)

    def f_vector(self) -> tuple[int, ...]:
        """Face counts by dimension.

        Proper faces only (dims 0 .. dim-1); a 0-dimensional polytope reports
        (1,) so that a point has a nonempty f-vector.
        """
        return (1,) if self.dim == 0 else self.all_face_counts()[:-1]

    def all_face_counts(self) -> tuple[int, ...]:
        """Counts for dims 0 .. dim including the polytope itself."""
        counts = [0] * (self.dim + 1)
        for f in self.faces:
            if f.dim >= 0:
                counts[f.dim] += 1
        return tuple(counts)

    def facets(self) -> tuple[Face, ...]:
        return tuple(f for f in self.faces if f.dim == self.dim - 1)

    @cached_property
    def covers(self) -> tuple[tuple[Face, Face], ...]:
        """The cover relations (F, G), G a facet of F: G is inclusion-maximal
        among F & H over the polytope's facets H, F itself left out.  The
        facet of a vertex is the empty face, so those covers are included."""
        mask = {f: sum(1 << i for i in f.vertex_ids) for f in self.faces}
        by_mask = {m: f for f, m in mask.items()}
        facets = [mask[h] for h in self.facets()]
        return tuple((f, by_mask[g]) for f, m in mask.items()
                     for g in maximal_masks({m & h for h in facets if m & h != m}))

    @cached_property
    def by_tight(self) -> dict[int, Face]:
        """The nonempty faces by the bitmask of their tight inequalities:
        distinct nonempty faces have distinct equality sets; the empty face
        is left out, since on a point it shares the point's set."""
        return {sum(1 << j for j in f.tight): f for f in self.faces if f.dim >= 0}

    @cached_property
    def _witnesses(self) -> tuple[tuple[Face, tuple[int, ...]], ...]:
        """Each nonempty face with a point of its relative interior, the sum
        of its vertices' integer rows (k D, D (v_1 + ... + v_k)): the vertex
        barycenter as a homogeneous point."""
        return tuple((f, tuple(map(sum, zip(*[self.rows[i] for i in f.vertex_ids]))))
                     for f in self.faces if f.dim >= 0)

    def minimal_face_containing(self, h: HRep, point) -> Face:
        """The unique face with the rational point in its relative interior."""
        return self.minimal_faces_at(h, homogenized([point]))[0]

    def minimal_faces_at(self, h: HRep, homs) -> list[Face]:
        """For each point hom[1:] / hom[0] of a list of integer rows (hom[0]
        > 0), the unique face with that point in its relative interior: the
        face whose equality set is the set of inequalities tight at it.
        Decided in integers, one pass per row of h over the points' columns
        that reads the row's nonzero coefficients only."""
        cols = list(zip(*homs))

        def values(row):  # row . hom for every hom; a row is never 0
            (a, col), *rest = [(a, col) for a, col in zip(row, cols) if a]
            out = [a * x for x in col]
            for a, col in rest:
                out = [s + a * x for s, x in zip(out, col)]
            return out

        if any(any(values(row)) for row in h.int_equations):
            raise GeometryError("point lies outside the polytope")
        tight = [0] * len(homs)
        for j, row in enumerate(h.int_inequalities):
            at = values(row)
            if max(at) > 0:
                raise GeometryError("point lies outside the polytope")
            bit = 1 << j
            tight = [m if v else m | bit for m, v in zip(tight, at)]
        return [self.by_tight[m] for m in tight]


FACE_GATE = 10 ** 6


def _cone(h: HRep, v: VRep) -> Cone:
    """The cone that double description left v in (see Cone.vrep).  A V-rep
    built otherwise must be vertices(h), and that run's cone is used."""
    cone = v.__dict__.get("_cone")
    if cone is None:
        dd = vertices(h)
        if dd != v:
            raise GeometryError("the V-rep is not that of the H-rep")
        cone = dd.__dict__["_cone"]
    return cone


def _dimension(h: HRep, v: VRep) -> int:
    """The dimension of the polyhedron v, read off the cone that double
    description left it in: d minus the rank of h's equations and of the
    inserted rows tight on every generator, its implicit equalities.  There
    are usually none, and then the rank of the equations is d + 1 minus the
    cone's span_dim.  Only h's equations are read, so v may be a cell that
    further rows cut from h (see Cone.cut)."""
    cone = _cone(h, v)
    common = -1
    for _, z in cone.rays:
        common &= z
    if not common:
        return cone.span_dim - 1
    implicit = [cone.rows[b] for b in _bits(common)]
    return len(linalg.kernel(list(h.int_equations) + implicit, h.dim_ambient + 1)) - 1


def maximal_masks(masks, inside=()) -> list[int]:
    """The inclusion-maximal masks among the given ones, each once, largest
    first, less those inside a mask of inside: a repeated mask fails the
    subset test against its first copy."""
    out: list[int] = []
    for g in sorted(masks, key=int.bit_count, reverse=True):
        for c in out:
            if g & c == g:
                break
        else:
            for c in inside:
                if g & c == g:
                    break
            else:
                out.append(g)
    return out


def facet_masks(h: HRep, v: VRep) -> tuple[list[int], set[int], int]:
    """(masks, facets, full): for each inequality of h, the bitmask of the
    generators of v on which it is tight (bit i for the vertex v.rows[i],
    then bit len(v.rows) + j for the recession ray v.rays[j]), the facets'
    masks, and the mask of all generators.  The masks are the zero sets of
    the rays of the cone that double description left v in, read by each
    row's insertion bit and transposed; every inequality of h must have
    been inserted there.  The facets are read from every inserted row, so v
    may be a cell that further rows cut from h (see Cone.cut); for v =
    vertices(h) these are h's inequalities and x0 >= 0, which holds no
    vertex.  A facet mask holds a vertex, is not full, and is
    inclusion-maximal among such masks."""
    cone = _cone(h, v)
    points = [(r, z) for r, z in cone.rays if r[0] > 0]
    zero_set = dict(zip(common_denominator([r for r, _ in points]), (z for _, z in points)))
    at_ray = {r[1:]: z for r, z in cone.rays if r[0] == 0}
    tight = [0] * len(cone.rows)  # per bit, the mask of its tight generators
    for i, z in enumerate([zero_set[r] for r in v.rows] + [at_ray[r] for r in v.rays]):
        for b in _bits(z):
            tight[b] |= 1 << i
    bit = {}
    for b, row in enumerate(cone.rows):
        bit.setdefault(row, b)
    try:
        masks = [tight[bit[row]] for row in h.int_inequalities]
    except KeyError:
        raise AssertionError("an inequality was never inserted into double description") \
            from None
    full = (1 << (len(v.rows) + len(v.rays))) - 1
    some_vertex = (1 << len(v.rows)) - 1
    return masks, set(maximal_masks({m for m in tight if m & some_vertex and m != full})), full


def vertex_tight(masks, n: int) -> list[int]:
    """For each generator i < n, the mask of the inequalities tight on it
    (bit j for masks[j]): facet_masks' masks transposed.  A face's tight
    inequalities are the AND of its vertices' masks."""
    out = [0] * n
    for j, m in enumerate(masks):
        for i in _bits(m):
            out[i] |= 1 << j
    return out


def _bits(mask: int) -> tuple[int, ...]:
    """The indices of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def iter_faces(v: VRep, facets, dim: int):
    """Yield (k, vertex masks of k-faces) in batches, each nonempty face of the
    dim-polytope v with these facet masks once: the polytope, a depth-first
    walk from the facets (Kliem & Stump 2022), the vertices.  A face's facets
    are its maximal meets with the faces after it in its batch, less those
    inside a face walked before it, so memory is linear in the facets.
    Raises TooLarge past FACE_GATE faces enumerated, the empty one included."""
    if v.rays:
        raise UnsupportedUnbounded("face lattices are computed for polytopes only")
    n, visited = len(v.rows), []  # the faces walked, at every depth

    def walk(masks, k):
        yield k, masks
        if k > 1:
            depth = len(visited)
            for i, f in enumerate(masks):
                yield from walk(maximal_masks({f & m for m in masks[i + 1:]}, visited), k - 1)
                visited.append(f)
            del visited[depth:]

    total = 1  # the empty face; a point is its vertex, a segment's facets are its vertices
    polytope = [(dim, [(1 << n) - 1])] if dim else []
    below = walk(sorted(facets), dim - 1) if dim > 1 else ()
    for k, masks in itertools.chain(polytope, below, [(0, [1 << i for i in range(n)])]):
        total += len(masks)
        if total > FACE_GATE:
            raise TooLarge(f"face lattice holds more than {FACE_GATE} faces "
                           f"({total} enumerated, the last batch at dimension {k})")
        yield k, masks


def face_counts(h: HRep, v: VRep, facets=None) -> tuple[int, ...]:
    """FaceLattice.f_vector of a bounded polytope, (1,) for a point: the
    faces of iter_faces counted per dimension, none stored.  facets, if
    given, is facet_masks(h, v)[1]."""
    facets = facet_masks(h, v)[1] if facets is None else facets
    dim = _dimension(h, v)
    counts = [0] * (dim + 1)
    for k, masks in iter_faces(v, facets, dim):
        counts[k] += len(masks)
    return (1,) if dim == 0 else tuple(counts[:-1])


def face_lattice(h: HRep, v: VRep) -> FaceLattice:
    """Face lattice of a bounded polytope: the faces of iter_faces, each with
    its tight set the AND of its vertices' (vertex_tight)."""
    masks, facets, _ = facet_masks(h, v)
    at = vertex_tight(masks, len(v.rows) + len(v.rays))
    found = [(-1, (), frozenset(range(len(masks))))]  # (dim, vertex ids, tight)
    for k, batch in iter_faces(v, facets, _dimension(h, v)):
        for f in batch:
            ids = _bits(f)
            tight = -1
            for i in ids:
                tight &= at[i]
            found.append((k, ids, frozenset(_bits(tight))))
    found.sort(key=lambda face: face[:2])
    return FaceLattice(v.rows, tuple(Face(frozenset(ids), tight, dim)
                                     for dim, ids, tight in found))
