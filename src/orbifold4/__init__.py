"""Finite unitary isotropy groups of 4-orbifolds, their invariant rings,
resolution topology, and numerical certification of symplectic forms on
local models."""

from .cyclotomic import CyclotomicScalar, cyclotomic_polynomial, root_of_unity_log
from .unitary import UMat2, NotUnitaryError
from .groups import (GroupElement, UnitaryGroup, CosetGroup, Unsupported,
                     NotFiniteWithinBound, builtin_group, classify_element,
                     generate_group, group_from_json, induced_cyclic_data,
                     stratum_class)
from .invariants import (InvariantBasis, MolienSeries, NotReflectionGroup, Poly2,
                         embedding_basis, fundamental_invariants, h_map_eval,
                         molien, reynolds)
from .isotropy import (CornerPoint, DeltaSet, IsolatedPoint, OrbifoldSpec, Surface,
                       builtin_mapping_torus, builtin_product, delta_set,
                       load_spec, spec_from_json, spec_to_json, validate_spec)
from .resolution import (AbelianInvariants, CohomologyProfile, GroupPresentation,
                         HJChain, Incomplete, abelianize, euler_characteristic,
                         exceptional_betti, hj_resolve, mapping_torus_pi1,
                         resolution_betti, smith_normal_form)

__version__ = "0.1.0"
