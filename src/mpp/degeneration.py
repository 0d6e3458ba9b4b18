"""Continuous degenerations inside the family: induced face-lattice maps,
f-vector domination, combinatorial-type sweeps over hypercube faces, and the
Hibi-Li comparison of chain-order polytopes.

The face map of a degeneration sends a face to the unique face whose relative
interior contains the image of a relative-interior witness; this matches the
topological construction exactly because the transfer maps are
piecewise-linear homeomorphisms.  The witness is the sum of the face's
homogenized integer vertex rows (the vertex barycenter as a homogeneous
point).  A map works column-wise, in integers: every face's witness goes
through the transfer kernel in one batch, and the image faces are looked up
by their tight sets, one pass per target inequality over the images'
columns.  Order preservation is checked on the cover relations of the source
lattice.  Type sweeps and the Hibi-Li table need f-vectors and facets only,
so they count faces instead of storing a lattice.  Samples of one hypercube
face share their H-rep rows, so equal vertex tight sets already prove two of
them isomorphic; canonical forms of the vertex-facet incidences are compared
only when that fails.

Many parameters give one H-rep: t_p of an element whose lower covers are all
marked 0 multiplies only zero terms.  Within one call, equal H-reps (records
compared over their rows and origins) share one double description and what
is derived from it.  Every face map goes through _face_map, which takes
both H-reps from its caller, each built once per call or sweep, and looks
the polytopes up in a memoized _polytope that the caller keeps:
degeneration_map and composition_law keep every polytope of the call, so a
target whose H-rep is its source's reuses the source's lattice, and the
domination sweep holds the source and the one target being mapped.  A type
sweep keeps one sample (f-vector, tight sets, incidences) per distinct H-rep
for all its hypercube faces, walking the faces once per family of vertex
tight sets.  Nothing is kept beyond the call that built it.

DegenerationPair and FaceMap are immutable records (see mpp.records): named
tuples, so each also iterates, sorts and equals the plain tuple of its
fields.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction

from .family import (Parameter, Partition, chain_order_polytope, check_partition,
                     facet_count_delta, hrep_general, is_tame,
                     transfer_theta_homogeneous)
from .geometry import (Face, FaceLattice, HRep, UnsupportedUnbounded, VRep,
                       face_counts, face_lattice, facet_masks, vertex_tight, vertices)
from .poset import MarkedPoset, star_elements
from .rationals import rat, rat_str

class DegenerationPair(namedtuple("DegenerationPair", "source target")):
    """Parameters (u, u2) with u2 a degeneration of u: they agree on every
    coordinate u pins to 0 or 1."""

    __slots__ = ()
    source: Parameter
    target: Parameter

    def __new__(cls, source, target):
        if not target.is_degeneration_of(source):
            raise ValueError("target parameter is not a degeneration of the source")
        return super().__new__(cls, source, target)


class FaceMap(namedtuple("FaceMap", "source target mapping")):
    """Order-preserving surjection between face lattices of two polytopes."""

    __slots__ = ()
    source: FaceLattice
    target: FaceLattice
    mapping: dict[Face, Face]

    def is_surjective(self) -> bool:
        return set(self.mapping.values()) == set(self.target.faces)

    def is_order_preserving(self) -> bool:
        """f <= g implies image(f) <= image(g), checked on the cover
        relations of the source lattice only."""
        image = self.mapping
        return all(image[g].vertex_ids <= image[f].vertex_ids
                   for f, g in self.source.covers)

    def dims_nondecreasing(self) -> bool:
        return all(self.mapping[f].dim >= f.dim for f in self.source.faces)

    def as_index_pairs(self) -> list[tuple[int, int]]:
        src = {f: i for i, f in enumerate(self.source.faces)}
        tgt = {f: i for i, f in enumerate(self.target.faces)}
        return sorted((src[f], tgt[g]) for f, g in self.mapping.items())


def face_map_via(source: FaceLattice, target_h: HRep, target: FaceLattice,
                 mapper) -> FaceMap:
    """Face map determined by mapping one relative-interior witness per face.

    The witnesses are FaceLattice._witnesses, each face's vertex barycenter
    as a homogeneous integer row.  mapper takes the list of them to the
    list of the integer rows of their images (first entries positive), in
    one call, and the image faces are looked up by their tight sets in one
    pass (FaceLattice.minimal_faces_at)."""
    faces, witnesses = zip(*source._witnesses)
    mapping = dict.fromkeys(source.faces, next(f for f in target.faces if f.dim < 0))
    mapping.update(zip(faces, target.minimal_faces_at(target_h, mapper(list(witnesses)))))
    return FaceMap(source, target, mapping)


def _bounded(h: HRep, what: str) -> VRep:
    """The V-rep of h, which must be a polytope; what names the caller's
    subject in the error."""
    v = vertices(h)
    if v.rays:
        raise UnsupportedUnbounded(f"{what} are implemented for polytopes")
    return v


def _polytope(h: HRep):
    """(h, V-rep, face lattice) of the polytope h."""
    v = _bounded(h, "degeneration maps")
    return h, v, face_lattice(h, v)


def _face_map(poset: MarkedPoset, pair: DegenerationPair, polytope, hreps) -> FaceMap:
    """The face map of pair, each polytope looked up through polytope, a
    memoized _polytope that the caller keeps for as long as its maps share
    polytopes, by its H-rep in hreps (hrep_general of the pair's source and
    target, built by the caller)."""
    (_, _, source), (h, _, target) = map(polytope, hreps)
    return face_map_via(source, h, target, transfer_theta_homogeneous(poset, *pair))


def degeneration_map(poset: MarkedPoset, pair: DegenerationPair) -> FaceMap:
    """The induced face-lattice map of the continuous degeneration u -> u2.
    A target whose H-rep equals the source's is the source's polytope."""
    return _face_map(poset, pair, functools.cache(_polytope),
                     [hrep_general(poset, t) for t in pair])


def _dominated(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    """small_i <= big_i for every i, the shorter f-vector padded with zeros."""
    width = max(len(small), len(big))
    pad = lambda f: f + (0,) * (width - len(f))
    return all(a <= b for a, b in zip(pad(small), pad(big)))


def fvector_domination(pair: DegenerationPair, source: FaceLattice,
                       target: FaceLattice) -> dict:
    """Componentwise f-vector comparison f_i(target) <= f_i(source) of two
    lattices already built, e.g. those of a FaceMap."""
    return _domination_report(pair, source.f_vector(), target.f_vector())


def check_fvector_domination(poset: MarkedPoset, pair: DegenerationPair) -> dict:
    """Componentwise f-vector comparison f_i(target) <= f_i(source), on face
    counts without building either lattice."""
    hu, ht = (hrep_general(poset, t, projected=True) for t in pair)
    fu, ft = (face_counts(h, _bounded(h, "degeneration maps")) for h in (hu, ht))
    return _domination_report(pair, fu, ft)


def _domination_report(pair: DegenerationPair, fu: tuple[int, ...],
                       ft: tuple[int, ...]) -> dict:
    return {"check": "f-vector-domination",
            "source_t": {k: rat_str(v) for k, v in sorted(pair.source.values.items())},
            "target_t": {k: rat_str(v) for k, v in sorted(pair.target.values.items())},
            "source_f_vector": list(fu),
            "target_f_vector": list(ft),
            "pass": _dominated(ft, fu)}


def composition_law(poset: MarkedPoset, u: Parameter, u2: Parameter,
                    u3: Parameter) -> bool:
    """dg_{u,u3} == dg_{u2,u3} after dg_{u,u2} as maps of faces, with one
    polytope per distinct H-rep among u, u2 and u3."""
    polytope = functools.cache(_polytope)  # one per distinct H-rep
    ts = (u, u2, u3)
    hreps = [hrep_general(poset, t) for t in ts]
    m12, m23, m13 = (_face_map(poset, DegenerationPair(ts[a], ts[b]), polytope,  # b degenerates a
                               (hreps[a], hreps[b]))
                     for a, b in ((0, 1), (1, 2), (0, 2)))
    return all(m13.mapping[f] == m23.mapping[m12.mapping[f]] for f in m12.source.faces)


# -- combinatorial-type sweeps ---------------------------------------------------

def incidence_matrix(lat: FaceLattice) -> tuple[int, int, frozenset[tuple[int, int]]]:
    """(#vertices, #facets, incidences) of the vertex-facet bipartite graph."""
    facets = lat.facets()
    nv = len(lat.rows)
    pairs = {(v, fi) for fi, f in enumerate(facets) for v in f.vertex_ids}
    return nv, len(facets), frozenset(pairs)


def _refine(nr, nc, inc, rcol, ccol):
    rows_of = [set() for _ in range(nr)]
    cols_of = [set() for _ in range(nc)]
    for r, c in inc:
        rows_of[r].add(c)
        cols_of[c].add(r)
    while True:
        rsig = [(rcol[r], tuple(sorted(ccol[c] for c in rows_of[r]))) for r in range(nr)]
        csig = [(ccol[c], tuple(sorted(rcol[r] for r in cols_of[c]))) for c in range(nc)]
        rmap = {s: i for i, s in enumerate(sorted(set(rsig)))}
        cmap = {s: i for i, s in enumerate(sorted(set(csig)))}
        nrcol = [rmap[s] for s in rsig]
        nccol = [cmap[s] for s in csig]
        if nrcol == rcol and nccol == ccol:
            return rcol, ccol
        rcol, ccol = nrcol, nccol


def canonical_incidence(data) -> tuple:
    """Canonical form of a vertex-facet incidence bipartite graph.

    Sorted bi-degree refinement with individualization backtracking; exact
    (minimum over all compatible orderings).  Instances are desk-scale.
    """
    nr, nc, inc = data
    if nr == 0:
        return (0, nc, ())
    best: list[tuple | None] = [None]

    def rec(rcol, ccol):
        rcol, ccol = _refine(nr, nc, inc, rcol, ccol)
        classes: dict[tuple[str, int], list[int]] = {}
        for r in range(nr):
            classes.setdefault(("r", rcol[r]), []).append(r)
        for c in range(nc):
            classes.setdefault(("c", ccol[c]), []).append(c)
        split = min((k for k, v in classes.items() if len(v) > 1), default=None,
                    key=lambda k: (len(classes[k]), k))
        if split is None:
            rorder = sorted(range(nr), key=lambda r: rcol[r])
            corder = sorted(range(nc), key=lambda c: ccol[c])
            rpos = {r: i for i, r in enumerate(rorder)}
            cpos = {c: i for i, c in enumerate(corder)}
            form = (nr, nc, tuple(sorted((rpos[r], cpos[c]) for r, c in inc)))
            if best[0] is None or form < best[0]:
                best[0] = form
            return
        kind, _ = split
        for member in classes[split]:
            cols = [list(rcol), list(ccol)]  # individualize member on its side
            side = cols[kind == "c"]
            side[member] = max(side) + 1
            rec(*cols)

    rec([0] * nr, [0] * nc)
    return best[0]


def lattices_isomorphic(a: FaceLattice, b: FaceLattice) -> bool:
    """Combinatorial equivalence via canonical vertex-facet incidence forms."""
    if a.f_vector() != b.f_vector():
        return False
    return canonical_incidence(incidence_matrix(a)) == canonical_incidence(incidence_matrix(b))


SAMPLES = 3  # interior parameters per hypercube face in a type sweep


def sample_face_parameters(poset: MarkedPoset, fixed: dict[str, Fraction]) -> list[Parameter]:
    """SAMPLES deterministic interior samples of a hypercube face (fixed 0/1)."""
    free = sorted(p for p in poset.unmarked if p not in fixed)
    return [Parameter({**fixed, **{p: Fraction(i + 1, len(free) + j + 1)
                                   for i, p in enumerate(free)}})
            for j in range(1, SAMPLES + 1)]


def combinatorial_type_sweep(poset: MarkedPoset, fixed: dict[str, Fraction],
                             samples: dict | None = None) -> dict:
    """Sample interior parameters of a hypercube face and assert the polytopes
    are pairwise combinatorially isomorphic.  samples, if given, maps the
    H-reps already sampled to their _type_sample results and is shared by
    the sweeps of many hypercube faces: a repeated H-rep runs no DD."""
    fixed = {p: rat(v) for p, v in fixed.items()}
    if any(v not in (0, 1) for v in fixed.values()):
        raise ValueError("hypercube faces are described by fixing coordinates to 0/1")
    params = sample_face_parameters(poset, fixed)
    if not params[0].values:
        params = [Parameter({})]
    hreps = [hrep_general(poset, t, projected=True) for t in params]
    samples = {} if samples is None else samples
    for h in hreps:
        if h not in samples:
            samples[h] = _type_sample(h, _bounded(h, "combinatorial types"), samples.values())
    found = [samples[h] for h in hreps]
    return {"check": "combinatorial-type",
            "face": {k: rat_str(v) for k, v in sorted(fixed.items())},
            "samples": [{k: rat_str(v) for k, v in sorted(t.values.items())} for t in params],
            "f_vectors": [list(sample[0]) for sample in found],
            "pass": _all_isomorphic(found)}


def _type_sample(h: HRep, v: VRep, known=()):
    """(f-vector, vertex tight sets, vertex-facet incidences) of a polytope,
    read off the incidence and facet masks; no face is stored.  A vertex's
    tight set is the mask of h's inequalities tight on it, by their index
    in h, which samples of one hypercube face share; the bits of its zero
    set follow the order of insertion into double description, which
    depends on the rows' values.  known holds earlier samples: the faces
    are walked only if none of them has these vertex tight sets, which
    determine the face lattice (see _all_isomorphic)."""
    masks, facets, _ = facet_masks(h, v)
    n = len(v.rows)
    tight = frozenset(vertex_tight(masks, n))
    pairs = frozenset((i, fi) for fi, f in enumerate(facets) for i in range(n) if f >> i & 1)
    f_vector = next((s[0] for s in known if s[1] == tight), None)
    if f_vector is None:
        f_vector = face_counts(h, v, facets)
    return f_vector, tight, (n, len(facets), pairs)


def _all_isomorphic(samples) -> bool:
    """Whether every sample (from _type_sample) is combinatorially equivalent
    to the first.

    Polytopes whose vertices have the same tight sets are: the identity on
    the rows is an isomorphism.  Samples of one hypercube face share their
    H-rep rows, so this witness settles them; where it fails, this is
    lattices_isomorphic with each canonical form computed once."""
    form = functools.cache(lambda i: canonical_incidence(samples[i][2]))
    return all(s[1] == samples[0][1] or (s[0] == samples[0][0] and form(i) == form(0))
               for i, s in enumerate(samples[1:], 1))


# -- Hibi-Li comparison ------------------------------------------------------------

def hibi_li_check(poset: MarkedPoset, part_a: Partition, part_b: Partition,
                  tame: bool | None = None, fvector_of=None) -> dict:
    """Compare f-vectors of O_{C,O} and O_{C',O'} for C contained in C'.

    Reports the componentwise comparison (the conjectured domination) and, for
    single-element moves on tame posets, the facet-count delta against the
    (k-1)(l-1) formula.  fvector_of(part), if given, returns the f-vector of
    a partition's polytope, shared by many checks.
    """
    check_partition(poset, part_a)
    check_partition(poset, part_b)
    if not part_a.C <= part_b.C:
        raise ValueError("need C subset of C'")
    fvector_of = fvector_of or (lambda part: face_counts(*chain_order_polytope(poset, part)))
    fa, fb = fvector_of(part_a), fvector_of(part_b)
    report = {"check": "hibi-li",
              "C": sorted(part_a.C), "C'": sorted(part_b.C),
              "f_vector_CO": list(fa), "f_vector_C'O'": list(fb),
              "dominated": _dominated(fa, fb)}
    moved = part_b.C - part_a.C
    if len(moved) == 1:
        q = next(iter(moved))
        if tame is None:
            tame = is_tame(poset)
        if tame:
            predicted = facet_count_delta(poset, part_a, q)
            # the members of one family share their dimension, so the last
            # entries are the facet counts (two points: 1 - 1, as 0 - 0)
            actual = fb[-1] - fa[-1]
            report["moved"] = q
            report["star"] = q in star_elements(poset, part_a.C, part_a.O)
            report["facet_delta_formula"] = predicted
            report["facet_delta_lp"] = actual
            report["facet_delta_match"] = predicted == actual
    return report
