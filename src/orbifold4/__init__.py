"""Finite unitary isotropy groups of 4-orbifolds, their invariant rings,
resolution topology, and numerical certification of symplectic forms on
local models.

The public names below are resolved on first use (PEP 562), so importing
`orbifold4` or one of its numeric submodules loads none of the exact half.
`SelfCheckFailed` is defined here, so that the integer code of `resolution`
raises it without loading the cyclotomic field, and so is `is_int`, the one
rule every reader of an integer input applies."""

import importlib


class SelfCheckFailed(RuntimeError):
    """An exact internal consistency check failed: a defect of the library,
    never a property of the input."""


def is_int(value) -> bool:
    """Whether value is an integer: an int that is not a bool, so that a
    JSON true is not 1."""
    return isinstance(value, int) and not isinstance(value, bool)


_EXPORTS = {
    "cyclotomic": ("CyclotomicScalar", "cyclotomic_polynomial", "root_of_unity_log"),
    "unitary": ("UMat2", "NotUnitaryError"),
    "groups": ("UnitaryGroup", "CosetGroup", "Unsupported", "NotFiniteWithinBound",
               "builtin_group", "classify_element", "generate_group", "group_from_json",
               "induced_cyclic_data", "stratum_class"),
    "invariants": ("InvariantBasis", "MolienSeries", "NotReflectionGroup", "Poly2",
                   "embedding_basis", "fundamental_invariants", "h_map_eval",
                   "molien", "reynolds"),
    "isotropy": ("CornerPoint", "DeltaSet", "IsolatedPoint", "OrbifoldSpec", "Surface",
                 "builtin_mapping_torus", "builtin_product", "delta_set",
                 "spec_from_json", "validate_spec"),
    "resolution": ("CohomologyProfile", "HJChain", "Incomplete", "euler_characteristic",
                   "exceptional_betti", "hj_resolve", "resolution_betti"),
    "presentation": ("AbelianInvariants", "GroupPresentation", "abelianize",
                     "mapping_torus_pi1", "smith_normal_form"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
