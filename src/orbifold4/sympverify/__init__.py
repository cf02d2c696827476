"""Numerical verification of symplectic-form constructions on local models:
the numerical half of orbifold4, and its only package that imports numpy."""

from .profiles import (RadialProfile, f_smoothing, f_resolved, h_ramp,
                       rho_bump, H_cutoff, identity_profile)
from .localmodel import LocalModel, OutOfDomainError, eval_omega0, eval_omega_a
from .forms import (TamenessCertificate, GluingProblem, NotAlmostComplexError,
                    PreconditionFailure, ball_grid, complex_hessian_fd,
                    ddbar_fd, exterior_derivative_fd, form_from_hermitian,
                    glue_forms, radial_potential_form, taming_quotients,
                    tameness_min)
from .pushforward import PushforwardReport, pushforward_check, sample_points
from .blowup import (BlowupReport, blowup_model_check, chart_form,
                     chart_potential, chart_grid, exceptional_area, transition)

__all__ = [
    "RadialProfile", "f_smoothing", "f_resolved", "h_ramp", "rho_bump",
    "H_cutoff", "identity_profile",
    "LocalModel", "OutOfDomainError",
    "eval_omega0", "eval_omega_a",
    "TamenessCertificate", "GluingProblem", "NotAlmostComplexError",
    "PreconditionFailure", "ball_grid",
    "complex_hessian_fd", "ddbar_fd",
    "exterior_derivative_fd", "form_from_hermitian", "glue_forms",
    "radial_potential_form",
    "taming_quotients", "tameness_min",
    "PushforwardReport", "pushforward_check", "sample_points",
    "BlowupReport", "blowup_model_check", "chart_form",
    "chart_potential", "chart_grid", "exceptional_area", "transition",
]
