"""Constructive nonlinear feedback synthesis with local optimality matching.

The package builds globally stabilizing feedback laws whose behavior near
the origin coincides with a prescribed linear-quadratic design, and then
reconstructs a meaningful cost that the combined law minimizes exactly.
"""

from .errors import ArtsteinViolationError, CertificateError, ConfigError, \
    DivergenceError
from .linear_core import LinearCoreConfig, LinearSystem, RiccatiCertificate, \
    is_hurwitz, lqr_gain, solve_care, solve_lyapunov, stabilizing_gain
from .clf import ArtsteinReport, BlendProfile, Clf, ControlAffineSystem, LieSweep, \
    blend_profile, check_artstein_sampled, check_positivity_properness, \
    find_r0, lie_derivatives, lie_sweep, local_quadratic_clf
from .synthesis import DecreaseReport, FeedbackLaw, blended_controller, \
    local_gain, seam_diagnostics, sontag_controller, verify_decrease
from .inverse_opt import CostEstimate, InverseOptimalCost, LevelScaling, \
    base_level_ladder, build_inverse_cost, build_mu, estimate_level_constants, \
    evaluate_cost, find_base_level, hjb_residual, optimal_feedback
from .structured import BacksteppingPartition, FeedforwardSystem, \
    StrictFeedbackSystem, additive_forward_clf, backstepping_clf, \
    backstepping_partition, backstepping_synthesize
from .orbital import OrbitalCostConfig, OrbitalParams, build_orbital_controller, \
    equilibrium, orbital_linearization, orbital_reduced_system, orbital_system, \
    simulate_orbital
from .sampling import Box, quadratic_level_box, sample_box
from .sim import Trajectory, integrate, rk4_path, rk4_step
from .systems import load_system
from .runner import load_config, reconstruct_cost, run, synthesize_problem

__version__ = "0.1.0"

__all__ = [
    "ArtsteinReport", "ArtsteinViolationError", "BacksteppingPartition",
    "BlendProfile", "Box", "CertificateError", "Clf",
    "ConfigError", "ControlAffineSystem", "CostEstimate", "DecreaseReport",
    "DivergenceError", "FeedbackLaw", "FeedforwardSystem",
    "InverseOptimalCost", "LevelScaling", "LieSweep", "LinearCoreConfig",
    "LinearSystem", "OrbitalCostConfig", "OrbitalParams",
    "RiccatiCertificate", "StrictFeedbackSystem", "Trajectory",
    "additive_forward_clf", "backstepping_clf", "backstepping_partition",
    "backstepping_synthesize", "base_level_ladder", "blend_profile",
    "blended_controller", "build_inverse_cost", "build_mu",
    "build_orbital_controller", "check_artstein_sampled",
    "check_positivity_properness", "equilibrium",
    "estimate_level_constants", "evaluate_cost", "find_base_level",
    "find_r0", "hjb_residual", "integrate", "is_hurwitz",
    "lie_derivatives", "lie_sweep", "load_config", "load_system", "local_gain",
    "local_quadratic_clf", "lqr_gain", "optimal_feedback",
    "orbital_linearization", "orbital_reduced_system", "orbital_system",
    "quadratic_level_box", "reconstruct_cost", "rk4_path", "rk4_step",
    "run", "sample_box", "seam_diagnostics", "simulate_orbital",
    "solve_care", "solve_lyapunov", "sontag_controller",
    "stabilizing_gain", "synthesize_problem", "verify_decrease",
]
