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
)
from .analytic import (
    SolitonParams,
    StretchedSoliton,
    TrianglePulse,
    hs_soliton,
    sample_initial,
    soliton_evaluator,
)
from .diagnostics import (
    ConvergenceReport,
    DiagnosticTrace,
    hs_invariant,
    l2_norm,
    mode_mass,
    percent_error,
)
from .runner import (
    Preset,
    Run,
    RunConfig,
    RunReport,
    build_initial_condition,
    build_system,
    convergence_study,
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
    "SolitonParams",
    "StretchedSoliton",
    "TrianglePulse",
    "hs_soliton",
    "sample_initial",
    "soliton_evaluator",
    "ConvergenceReport",
    "DiagnosticTrace",
    "convergence_study",
    "hs_invariant",
    "l2_norm",
    "mode_mass",
    "percent_error",
    "Preset",
    "Run",
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
