"""Numerical verification of symplectic-form constructions on local models:
the numerical half of orbifold4, in Python floats.  The certificates of the
local model, of the gluing and of the blow-up model and the pushforward
check run on floats, and no module imports numpy.  Their derivatives come
from `jet.Jet`, one variable over any scalar; the tests differentiate whole
potentials with their own n-variable array jet, the reference for the
Hessians written here by hand, and read forms as 4x4 arrays only there.

The public names below are resolved on first use (PEP 562), so a command
loads only the submodules it runs."""

import importlib

_EXPORTS = {
    "profiles": ("RadialProfile", "f_smoothing", "f_resolved", "h_ramp", "rho_bump",
                 "H_cutoff", "identity_profile"),
    "localmodel": ("LocalModel", "OutOfDomainError"),
    "taming": ("TamenessCertificate",),
    "forms": ("GluingProblem", "PreconditionFailure", "glue_forms"),
    "pushforward": ("PushforwardReport", "pushforward_check", "sample_points"),
    "blowup": ("BlowupReport", "blowup_model_check", "chart_form", "exceptional_area",
               "transition"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
