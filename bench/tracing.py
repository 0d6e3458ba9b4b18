"""Spans around the public functions of each `mpp` module.

`Tracer.install()` replaces each traced function by a wrapper, in its own
module and in every other `mpp` module that imported it by name, so calls
are seen as their callers make them; `uninstall()` puts the originals back.
No file of the program changes.

A span's self time is its duration minus the durations of the child spans
it covers.  Spans are aggregated per layer as they close: calls, self time,
and for the LP layer the number of calls that ended OPTIMAL.
"""

from __future__ import annotations

import importlib
import time

# layer -> (module, attribute path) pairs; a dotted path names a method.
LAYERS = {
    "geometry.vertices": [("geometry", "vertices"), ("geometry", "vertices_bruteforce")],
    "geometry.face_lattice": [("geometry", "face_lattice")],
    "geometry.minimal_face": [("geometry", "FaceLattice.minimal_face_containing")],
    "linalg.affine_rank": [("linalg", "affine_rank")],
    "lp.solve": [("lp", "lp_solve")],
    "lattice.points": [("lattice", "lattice_points")],
    "lattice.ehrhart": [("lattice", "ehrhart")],
    "family.hrep": [("family", "hrep_general"), ("family", "hrep_chain_order")],
    "family.transfer": [("family", n) for n in (
        "transfer_phi", "transfer_psi", "transfer_theta", "transfer_phi_projected",
        "transfer_psi_projected", "transfer_theta_projected", "iota")],
    "family.redundancy": [("family", "eliminate_redundancy"), ("family", "is_tame"),
                          ("family", "facet_count")],
    "tropical": [("tropical", n) for n in (
        "arrangement", "covector", "tropical_cells", "tropical_subdivision",
        "subdivision_vertices", "generic_vertices", "transferred_subdivision_vertices",
        "ideal_chain_cells", "check_vertex_degeneration_conjecture", "export_off")],
    "degeneration.map": [("degeneration", n) for n in (
        "degeneration_map", "face_map_via", "check_fvector_domination",
        "composition_law")],
    "degeneration.canonical": [("degeneration", n) for n in (
        "canonical_incidence", "incidence_matrix", "lattices_isomorphic")],
    "degeneration.sweep": [("degeneration", n) for n in (
        "combinatorial_type_sweep", "hibi_li_check")],
    "poset.validate": [("poset", "validate")],
    "poset.chains": [("poset", n) for n in (
        "saturated_chains_to", "chains_through", "chain_counts", "star_elements")],
    "jsonio.parse": [("jsonio", n) for n in (
        "poset_from_json", "parameter_from_json", "partition_from_json")],
    # the CLI's JSON emission: its private _emit (named here on purpose) and
    # the converters that build the payload
    "jsonio.emit": [("cli", "_emit")] + [("jsonio", n) for n in (
        "hrep_to_json", "vrep_to_json", "parameter_to_json", "partition_to_json",
        "poset_to_json")],
    # the CLI rebuilds its argument parser on every call
    "cli.parser": [("cli", "build_parser")],
}

MODULES = ("linalg", "lp", "poset", "geometry", "family", "lattice", "tropical",
           "degeneration", "jsonio", "cli")


def _optimal(result) -> bool:
    return getattr(result[0], "name", None) == "OPTIMAL"


OUTCOMES = {"lp.solve": _optimal}


class Tracer:
    def __init__(self):
        self.stats = {layer: [0, 0.0, 0] for layer in LAYERS}  # calls, self_s, useful
        self.top_s = 0.0   # time covered by spans that have no parent span
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def reset(self):
        for s in self.stats.values():
            s[0], s[1], s[2] = 0, 0.0, 0
        self.top_s = 0.0

    def _wrap(self, layer, fn):
        stats = self.stats[layer]
        stack = self._stack
        outcome = OUTCOMES.get(layer)
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if outcome is not None and outcome(result):
                    stats[2] += 1
                return result
            finally:
                stack.pop()
                dur = clock() - frame[0]
                stats[0] += 1
                stats[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.top_s += dur

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", "span")
        return span

    def install(self):
        mods = {m: importlib.import_module(f"mpp.{m}") for m in MODULES}
        mods["__init__"] = importlib.import_module("mpp")
        for layer, targets in LAYERS.items():
            for mod_name, path in targets:
                owner = mods[mod_name]
                *cls_path, attr = path.split(".")
                for c in cls_path:
                    owner = getattr(owner, c)
                fn = owner.__dict__[attr]
                wrapper = self._wrap(layer, fn)
                places = [owner] if cls_path else [
                    m for m in mods.values() if m.__dict__.get(attr) is fn]
                for place in places:
                    self._saved.append((place, attr, fn))
                    setattr(place, attr, wrapper)

    def uninstall(self):
        for place, attr, fn in reversed(self._saved):
            setattr(place, attr, fn)
        self._saved.clear()
