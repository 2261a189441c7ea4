"""Cohomological obstruction computations on simplicial 3-manifolds.

Computes simplicial (co)homology over Z and R, Alexander-Whitney cup
products and Poincare pairings, discrete U(1) bundles with the linear
flatness equation, the Chern-Simons action and its gradient, obstruction
pairings for global critical sections, and the Cech connecting
homomorphism on the closed-star cover.
"""

from .bundle import (Connection, FlatResult, U1Bundle, cs_action,
                     cs_gradient, curvature, flatten, gauge_transform,
                     make_bundle, real_chern_class)
from .cech import (CechClass, GlobalityReport, StarCover, connecting_delta,
                   current_globality, star_cover)
from .complex_core import (Chain, Cochain, INT, REAL, SimplicialComplex,
                           apply_d, dump_cochain, dump_complex,
                           fundamental_cycle, load_cochain, load_complex)
from .cup import (PairingMatrix, cup, pair_with_fundamental,
                  poincare_pairing_matrix)
from .errors import Error, InconsistencyError
from .homology import (CohomologyBasis, GroupDescriptor, PrimitiveResult,
                       basis, cohomology_basis_real, find_primitive,
                       homology_groups, integral_generators)
from .manifolds import generate, ordered_product
from .obstruction import (SharpnessVerdict, VerticalSymmetry, h1_pairings,
                          obstruction_class, obstruction_pairing,
                          sharpness_check, symmetry_from_oneform)
from .snf import SNFResult, smith_normal_form

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
