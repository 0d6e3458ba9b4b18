"""Exact-rational toolkit for the parametrized family of marked poset polyhedra.

A marked poset (P, lambda) determines a family O_t(P, lambda) over the
hypercube [0,1]^{unmarked}: the marked order polytope at t = 0, the marked
chain polytope at t = 1, and every marked chain-order polytope at the other
hypercube vertices.  This package computes exact H/V-representations, face
lattices, lattice points and Ehrhart data, the piecewise-linear transfer maps
between members, the tropical subdivision locating generic vertices, the
degeneration maps between family members, and tameness/facet-count checks.

Importing the package loads none of its submodules.  Each public name below
loads its submodule on first access (PEP 562), so `from mpp import vertices`
costs the modules that `vertices` needs and no others.
"""

import importlib

# submodule -> the public names it provides
_EXPORTS = {
    "family": (
        "Parameter", "Partition", "eliminate_redundancy", "facet_count", "facet_count_delta",
        "generic_parameter", "hrep_chain_order", "hrep_general", "hypercube_vertices",
        "is_tame", "parameter_of_partition", "partition_of_parameter", "transfer_phi",
        "transfer_phi_projected", "transfer_psi", "transfer_psi_projected", "transfer_theta",
        "transfer_theta_projected", "zero_parameter", "one_parameter"),
    "geometry": (
        "Constraint", "EmptyPolyhedron", "Face", "FaceLattice", "HRep", "VRep", "face_counts",
        "face_lattice", "make_hrep", "vertices", "vertices_bruteforce"),
    "lattice": ("EhrhartData", "ehrhart", "is_integrally_closed", "lattice_points"),
    "poset": (
        "MarkedPoset", "SaturatedChain", "constant_intervals", "contract_constant_intervals",
        "is_regular", "regularize", "remove_redundant_covers", "saturated_chains_to",
        "star_elements", "validate"),
    "tropical": (
        "TropicalArrangement", "TropicalForm", "arrangement", "covector", "generic_vertices",
        "ideal_chain_cells", "subdivision_vertices", "tropical_subdivision"),
    "degeneration": (
        "DegenerationPair", "FaceMap", "check_fvector_domination", "combinatorial_type_sweep",
        "composition_law", "degeneration_map", "fvector_domination", "hibi_li_check"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules that are public names themselves
_MODULES = (*_EXPORTS, "linalg", "rationals")

__all__ = sorted((*_ORIGIN, *_MODULES))
__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _ORIGIN:
        # read through on every access, so it is always the submodule's own
        return getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
