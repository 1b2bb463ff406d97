"""Explicit finite-difference solver for coupled Korteweg-de Vries systems.

Provides system definitions, a two-step three-time-level stepper with
stability-driven step selection, the Hirota-Satsuma closed-form soliton as
an oracle, conservation/error diagnostics, and an experiment runner with
CSV persistence.
"""

from .errors import BlowUpError, CkdvError, ConfigError
from .model import (
    FieldSet,
    Grid,
    NonlinearTerm,
    SystemSpec,
    effective_dispersion,
    make_hirota_satsuma,
    make_hs_first_kdv,
    make_perturbed_hs,
)
from .stepper import (
    RULE_DISPERSIVE_CFL,
    RULE_MANUAL,
    RULE_PAPER_STRICT,
    StepPlan,
    advance,
    advise_tau,
    full_step,
    half_step,
    single_mode_step,
)
from .analytic import (
    InitialCondition,
    SolitonParams,
    TrianglePulse,
    hs_soliton,
    sample_initial,
    soliton_evaluator,
    verify_residual,
)
from .diagnostics import (
    ConvergenceReport,
    DiagnosticTrace,
    convergence_study,
    count_peaks,
    hs_invariant,
    l2_norm,
    mode_mass,
    observed_orders,
    percent_error,
)
from .runner import (
    Preset,
    RunConfig,
    RunReport,
    build_initial_condition,
    build_system,
    list_presets,
    load_config,
    run_experiment,
    run_preset,
    validate_config,
    write_config,
)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "CkdvError",
    "ConfigError",
    "FieldSet",
    "Grid",
    "NonlinearTerm",
    "SystemSpec",
    "effective_dispersion",
    "make_hirota_satsuma",
    "make_hs_first_kdv",
    "make_perturbed_hs",
    "RULE_DISPERSIVE_CFL",
    "RULE_MANUAL",
    "RULE_PAPER_STRICT",
    "StepPlan",
    "advance",
    "advise_tau",
    "full_step",
    "half_step",
    "single_mode_step",
    "InitialCondition",
    "SolitonParams",
    "TrianglePulse",
    "hs_soliton",
    "sample_initial",
    "soliton_evaluator",
    "verify_residual",
    "ConvergenceReport",
    "DiagnosticTrace",
    "convergence_study",
    "count_peaks",
    "hs_invariant",
    "l2_norm",
    "mode_mass",
    "observed_orders",
    "percent_error",
    "Preset",
    "RunConfig",
    "RunReport",
    "build_initial_condition",
    "build_system",
    "list_presets",
    "load_config",
    "run_experiment",
    "run_preset",
    "validate_config",
    "write_config",
    "__version__",
]
