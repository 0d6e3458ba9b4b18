"""Exact-rational toolkit for the parametrized family of marked poset polyhedra.

A marked poset (P, lambda) determines a family O_t(P, lambda) over the
hypercube [0,1]^{unmarked}: the marked order polytope at t = 0, the marked
chain polytope at t = 1, and every marked chain-order polytope at the other
hypercube vertices.  This package computes exact H/V-representations, face
lattices, lattice points and Ehrhart data, the piecewise-linear transfer maps
between members, the tropical subdivision locating generic vertices, the
degeneration maps between family members, and tameness/facet-count checks.
"""

from .family import (Parameter, Partition, chain_tight, eliminate_redundancy,
                     facet_count, facet_count_delta, generic_parameter,
                     hrep_chain_order, hrep_general, hypercube_vertices, is_tame,
                     maximizing_relation, parameter_of_partition,
                     partition_of_parameter, transfer_phi, transfer_phi_projected,
                     transfer_psi, transfer_psi_closed, transfer_psi_projected,
                     transfer_theta, transfer_theta_projected, unimodular_move,
                     zero_parameter, one_parameter)
from .geometry import (AffineMap, Constraint, EmptyPolyhedron, Face, FaceLattice,
                       HRep, VRep, apply_affine, face_counts, face_lattice, make_hrep,
                       substitute, vertices, vertices_bruteforce)
from .lattice import EhrhartData, ehrhart, is_integrally_closed, lattice_points
from .poset import (MarkedPoset, SaturatedChain, constant_intervals,
                    contract_constant_intervals, is_ranked, is_regular,
                    rank_function, regularize, remove_redundant_covers,
                    saturated_chains_to, star_elements, validate)
from .tropical import (TropicalArrangement, TropicalForm, arrangement, covector,
                       generic_vertices, ideal_chain_cells, subdivision_vertices,
                       tropical_subdivision)
from .degeneration import (DegenerationPair, FaceMap, check_fvector_domination,
                           combinatorial_type_sweep, composition_law,
                           degeneration_map, fvector_domination, hibi_li_check)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
