"""Mutation check of the test suite: every listed mutant of ``src/`` must be killed.

Run from the repository root:

    python tests/mutants.py

Each mutant is a file, an exact old text, the new text that replaces it, and
the ids of the tests that must fail under it. The script copies ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory and runs every
named test there once unmutated. Then it applies one mutant at a time and
runs each of its tests in its own pytest process. A mutant is killed when
every one of its tests fails, and survives when any of them passes. The exit
status is 1 when a mutant survives, when an old text does not occur exactly
once, or when a named test does not pass unmutated.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
ANALYTIC = "src/ckdv/analytic.py"
CLI = "src/ckdv/cli.py"
DIAGNOSTICS = "src/ckdv/diagnostics.py"
ERRORS = "src/ckdv/errors.py"
INIT = "src/ckdv/__init__.py"
MODEL = "src/ckdv/model.py"
STEPPER = "src/ckdv/stepper.py"
RUNNER = "src/ckdv/runner.py"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "advection summed first",
        STEPPER,
        "        terms += [(None, i, c, i) for i, c in enumerate(spec.linear_speeds)]\n",
        "        terms = [(None, i, c, i) for i, c in enumerate(spec.linear_speeds)] + terms\n",
        (
            "tests/test_kernel.py::test_three_mode_advance_matches_roll_transcription_bitwise",
        ),
    ),
    Mutant(
        "-0 accumulator",
        STEPPER,
        "np.array(1.0), np.array(0.0)\n",
        "np.array(1.0), np.array(-0.0)\n",
        (
            "tests/test_kernel.py::test_three_mode_advance_matches_roll_transcription_bitwise",
        ),
    ),
    Mutant(
        "D3 operation order",
        STEPPER,
        "            (sub, arg.up2, self.twice_up1, d3),\n"
        "            (add, d3, self.twice_dn1, d3),\n"
        "            (sub, d3, arg.dn2, d3),\n",
        "            (sub, arg.up2, arg.dn2, d3),\n"
        "            (sub, d3, self.twice_up1, d3),\n"
        "            (add, d3, self.twice_dn1, d3),\n",
        (
            "tests/test_kernel.py::test_three_mode_advance_matches_roll_transcription_bitwise",
            "tests/test_kernel.py::test_hirota_satsuma_advance_matches_roll_transcription_bitwise",
        ),
    ),
    Mutant(
        "D1 divided by 2h^3",
        STEPPER,
        "np.repeat([2.0 * grid.h, 2.0 * grid.h**3], n * w)",
        "np.repeat([2.0 * grid.h**3, 2.0 * grid.h**3], n * w)",
        (
            "tests/test_kernel.py::test_three_mode_advance_matches_roll_transcription_bitwise",
            "tests/test_kernel.py::test_hirota_satsuma_advance_matches_roll_transcription_bitwise",
        ),
    ),
    Mutant(
        "full stage reads the start layer",
        STEPPER,
        "full_ops = kern.program(cur, half, dt, cur)",
        "full_ops = kern.program(cur, cur, dt, cur)",
        (
            "tests/test_kernel.py::test_three_mode_advance_matches_roll_transcription_bitwise",
            "tests/test_kernel.py::test_hirota_satsuma_advance_matches_roll_transcription_bitwise",
        ),
    ),
    Mutant(
        "midpoint stage at tau, not tau/2",
        STEPPER,
        "half_dt, dt = np.array(0.5 * tau), np.array(tau)",
        "half_dt, dt = np.array(tau), np.array(tau)",
        (
            "tests/test_kernel.py::test_three_mode_advance_matches_roll_transcription_bitwise",
            "tests/test_stepper.py::test_dispersive_cfl_step_grows_the_fastest_mode_by_the_midpoint_factor",
            "tests/test_stepper.py::test_scheme_is_second_order_in_tau_at_fixed_h",
        ),
    ),
    Mutant(
        "blow-up limit 1e5",
        STEPPER,
        "BLOWUP_FACTOR = 1.0e6\n",
        "BLOWUP_FACTOR = 1.0e5\n",
        (
            "tests/test_kernel.py::test_blow_up_limit_is_a_million_times_the_start_max_norm",
        ),
    ),
    Mutant(
        "advance warns on overflow",
        STEPPER,
        '@np.errstate(over="ignore", invalid="ignore")\ndef advance(',
        "def advance(",
        (
            "tests/test_kernel.py::test_an_overflow_is_reported_by_the_blow_up_check_alone",
        ),
    ),
    Mutant(
        "intermediate layer unchecked",
        STEPPER,
        "max(float(pair.max()), -float(pair.min()))",
        "max(float(self.layers[0].flat.max()), -float(self.layers[0].flat.min()))",
        (
            "tests/test_kernel.py::test_half_layer_check_catches_a_linear_blow_up_a_step_before_the_full_layer",
        ),
    ),
    Mutant(
        "screen reads the current layer only",
        STEPPER,
        "        pair = self.pair\n",
        "        pair = self.layers[0].flat\n",
        (
            "tests/test_kernel.py::test_step_check_raises_exactly_where_either_layer_breaks_the_max_norm_rule",
        ),
    ),
    Mutant(
        "exact check drops the sign",
        STEPPER,
        "max(float(pair.max()), -float(pair.min()))",
        "float(pair.max())",
        (
            "tests/test_kernel.py::test_check_draws_the_line_at_the_limit_itself",
        ),
    ),
    Mutant(
        "blow-up screen above limit^2 / 4",
        STEPPER,
        "screen = self.limit * self.limit / 4.0",
        "screen = self.limit * self.limit / 0.99",
        (
            "tests/test_kernel.py::test_check_draws_the_line_at_the_limit_itself",
        ),
    ),
    Mutant(
        "kernel buffers at malloc's alignment",
        STEPPER,
        "return raw[skip:skip + size]",
        "return raw[:size]",
        (
            "tests/test_kernel.py::test_every_kernel_buffer_starts_its_first_node_on_a_64_byte_boundary",
        ),
    ),
    Mutant(
        "snapshot header on the last row",
        RUNNER,
        '    return header + "".join(["%.17g" % v + tail for v in x.tolist()])\n',
        '    return "".join(["%.17g" % v + tail for v in x.tolist()]) + header\n',
        (
            "tests/test_output_format.py::test_snapshot_golden_bytes_one_mode",
            "tests/test_output_format.py::test_snapshot_golden_bytes_three_modes",
        ),
    ),
    Mutant(
        "start state not written",
        RUNNER,
        "    next_snap = 0\n",
        "    next_snap = 1\n",
        (
            "tests/test_output_format.py::test_report_golden_bytes",
            "tests/test_runner.py::test_run_experiment_artifacts",
        ),
    ),
    Mutant(
        "_path_fault catches OSError only",
        RUNNER,
        "    except (OSError, ValueError) as exc:\n        raise ConfigError(f\"cannot {doing}",
        "    except OSError as exc:\n        raise ConfigError(f\"cannot {doing}",
        (
            "tests/test_runner.py::test_write_config_to_a_path_with_a_nul_byte_is_a_config_fault",
            "tests/test_cli.py::test_run_output_dir_with_a_nul_byte_is_a_config_fault",
        ),
    ),
    Mutant(
        "report.csv safety from DEFAULT_SAFETY",
        RUNNER,
        '("plan", "safety", "%.17g" % config.safety)',
        '("plan", "safety", "%.17g" % DEFAULT_SAFETY)',
        (
            "tests/test_cli.py::test_run_summary_and_report_name_the_configured_rule_and_safety",
        ),
    ),
    Mutant(
        "summary's rule fixed to dispersive_cfl",
        CLI,
        "({config.tau_rule}, safety",
        "(dispersive_cfl, safety",
        (
            "tests/test_cli.py::test_run_summary_and_report_name_the_configured_rule_and_safety",
        ),
    ),
    Mutant(
        "advise_tau without its safety check",
        STEPPER,
        '    require_positive("safety", safety)\n',
        "",
        (
            "tests/test_stepper.py::test_advise_tau_faults_name_the_parameter[0.1-1.0--1.0-manual-safety]",
            "tests/test_stepper.py::test_advise_tau_faults_name_the_parameter[0.1-1.0-nan-paper_strict-safety]",
        ),
    ),
    Mutant(
        "set-up keeps the caller's number type",
        RUNNER,
        "    config = dataclasses.replace(config, **typed)\n",
        "",
        (
            "tests/test_config_properties.py::test_write_config_round_trips_every_number_type",
        ),
    ),
    Mutant(
        "a string key's type goes unchecked",
        RUNNER,
        "        if not isinstance(value, float if key in _FLOAT_KEYS else str):\n",
        "        if key in _FLOAT_KEYS and not isinstance(value, float):\n",
        (
            "tests/test_runner.py::test_validate_config_faults_name_fields",
        ),
    ),
    Mutant(
        "write_config writes the config unfilled",
        RUNNER,
        "    config = validate_config(config).config\n",
        "    validate_config(config)\n",
        (
            "tests/test_runner.py::test_write_config_writes_only_strings_that_load_back_equal[runs_1]",
        ),
    ),
    Mutant(
        "EDGE_RATIO 1e-4",
        RUNNER,
        "EDGE_RATIO = 1e-6\n",
        "EDGE_RATIO = 1e-4\n",
        (
            "tests/test_cli.py::test_warning_prints_as_one_line",
            "tests/test_runner.py::test_validate_config_warns_on_narrow_domain",
        ),
    ),
    Mutant(
        "fit_to_end without its 1e-12",
        STEPPER,
        "n_steps = max(1, math.ceil(ratio - 1e-12))",
        "n_steps = max(1, math.ceil(ratio))",
        (
            "tests/test_stepper.py::test_fit_to_end_counts_a_ratio_just_above_an_integer_as_that_integer",
        ),
    ),
    Mutant(
        "_snapshot_steps without its tolerance",
        RUNNER,
        "    tolerance = 1e-9 * per_snapshot\n",
        "    tolerance = 0.0\n",
        (
            "tests/test_runner.py::test_snapshot_steps_match_accumulated_schedule",
        ),
    ),
    Mutant(
        "_snapshot_steps from k = 2",
        RUNNER,
        "for k in itertools.count(1):",
        "for k in itertools.count(2):",
        (
            "tests/test_runner.py::test_snapshot_steps_match_accumulated_schedule_on_presets",
            "tests/test_runner.py::test_snapshot_steps_cost_one_step_each_for_tiny_intervals",
        ),
    ),
    Mutant(
        "refinement study checks its coarsest level only",
        RUNNER,
        "for k in (0, n_levels - 1):",
        "for k in (0,):",
        (
            "tests/test_cli.py::test_converge_with_a_node_count_fault_on_the_finest_level_alone_exits_1",
        ),
    ),
    Mutant(
        "refinement study checks its finest level only",
        RUNNER,
        "for k in (0, n_levels - 1):",
        "for k in (n_levels - 1,):",
        (
            "tests/test_cli.py::test_converge_with_a_faulty_coarsest_level_samples_no_finer_level",
        ),
    ),
    Mutant(
        "fig1 profiles without m = 1.5",
        RUNNER,
        "tuple(RunConfig(m=m) for m in (0.5, 1.0, 1.5))",
        "tuple(RunConfig(m=m) for m in (0.5, 1.0))",
        (
            "tests/test_runner.py::test_oracle_presets_write_profiles",
            "tests/test_runner.py::test_oracle_profile_is_its_configs_start_snapshot[fig1]",
        ),
    ),
    Mutant(
        "fig4a keeps the full system",
        RUNNER,
        "dataclasses.replace(decay, system=SYSTEM_KDV1)",
        "decay",
        (
            "tests/test_runner.py::test_preset_fig4a_is_oracle_free_reduction",
        ),
    ),
    Mutant(
        "N=1 reduction takes mode 2's dispersion",
        MODEL,
        "hs.dispersions[:1]",
        "hs.dispersions[1:]",
        (
            "tests/test_cli.py::test_advise_prints_the_plan_the_config_runs_with[hs_kdv1]",
        ),
    ),
    Mutant(
        "default safety doubled",
        STEPPER,
        "DEFAULT_SAFETY = 0.25\n",
        "DEFAULT_SAFETY = 0.5\n",
        (
            "tests/test_cli.py::test_advise_prints_the_plan_the_config_runs_with[dispersive_cfl]",
        ),
    ),
    Mutant(
        "soliton phase with -m*x",
        ANALYTIC,
        "lam1 = 0.5 * m**3 * t + m * x\n",
        "lam1 = 0.5 * m**3 * t - m * x\n",
        (
            "tests/test_acceptance.py::test_criterion_9_pde_residual",
        ),
    ),
    Mutant(
        "theta_2 scaled by sqrt(2 + d^2)",
        ANALYTIC,
        "np.sqrt(2.0 + 2.0 * d * d)",
        "np.sqrt(2.0 + d * d)",
        (
            "tests/test_analytic.py::test_soliton_origin_values_d_half",
        ),
    ),
    Mutant(
        "Q with + theta_2^2",
        DIAGNOSTICS,
        "0.5 * th1 * th1 - th2 * th2",
        "0.5 * th1 * th1 + th2 * th2",
        (
            "tests/test_acceptance.py::test_criterion_4_hs_invariant",
        ),
    ),
    Mutant(
        "percent error not divided by the amplitude",
        DIAGNOSTICS,
        "/ amplitude * 100.0",
        "* 100.0",
        (
            "tests/test_diagnostics.py::test_percent_error_uniform_deviation",
        ),
    ),
    Mutant(
        "mode mass without h",
        DIAGNOSTICS,
        "return np.sum(state.values, axis=1) * h\n",
        "return np.sum(state.values, axis=1)\n",
        (
            "tests/test_diagnostics.py::test_trace_records_three_modes_without_q",
        ),
    ),
    Mutant(
        "trace L2 without h",
        DIAGNOSTICS,
        "np.sqrt(np.sum(f * f, axis=-1) * h)",
        "np.sqrt(np.sum(f * f, axis=-1))",
        (
            "tests/test_diagnostics.py::test_trace_records_three_modes_without_q",
            "tests/test_diagnostics.py::test_l2_norm_ones",
            "tests/test_diagnostics.py::test_l2_norm_soliton_mode1",
        ),
    ),
    Mutant(
        "trace record warns on overflow",
        DIAGNOSTICS,
        '    @np.errstate(over="ignore", invalid="ignore")\n    def record(',
        "    def record(",
        (
            "tests/test_cli.py::test_an_overflowing_start_state_exits_2_without_numpy_warnings",
        ),
    ),
    Mutant(
        "percent error against the closed form at t = 0",
        DIAGNOSTICS,
        "oracle_eval(numeric.time)",
        "oracle_eval(0.0)",
        (
            "tests/test_acceptance.py::test_criterion_1_soliton_accuracy",
        ),
    ),
    Mutant(
        "percent error lets a non-finite amplitude through",
        DIAGNOSTICS,
        '    require_positive("amplitude", amplitude)\n',
        '    if amplitude <= 0:\n        raise ValueError("amplitude must be positive")\n',
        (
            "tests/test_diagnostics.py::test_percent_error_rejects_bad_amplitude",
        ),
    ),
    Mutant(
        "peak runs compressed without the periodic wrap",
        DIAGNOSTICS,
        "runs = f[f != np.roll(f, 1)]",
        "runs = f[np.append(True, f[1:] != f[:-1])]",
        (
            "tests/test_diagnostics.py::test_count_peaks_literal_cases[plateau-across-the-seam]",
        ),
    ),
    Mutant(
        "crest at the peak threshold counted",
        DIAGNOSTICS,
        "~(runs <= threshold)",
        "~(runs < threshold)",
        (
            "tests/test_diagnostics.py::test_count_peaks_literal_cases[crest-at-the-threshold]",
        ),
    ),
    Mutant(
        "module entry point drops main's status",
        CLI,
        "    sys.exit(main())\n",
        "    main()\n",
        (
            "tests/test_cli.py::test_module_entry_point_exits_with_main_status",
        ),
    ),
    Mutant(
        "blow-up exits 1",
        CLI,
        "return 2 if isinstance(exc, BlowUpError) else 1\n",
        "return 1\n",
        (
            "tests/test_cli.py::test_converge_blow_up_exits_2",
        ),
    ),
    Mutant(
        "blown-up run exits 0",
        CLI,
        'return 0 if report.outcome == "completed" else 2\n',
        "return 0\n",
        (
            "tests/test_cli.py::test_run_blow_up_exit_code",
        ),
    ),
    Mutant(
        "h with a subnormal or infinite 2h^3 accepted",
        MODEL,
        "        if not 2.0**-1022 <= divisor < math.inf:\n",
        "        if False:\n",
        (
            "tests/test_cli.py::test_config_faults_exit_1_naming_the_field[argv32-tau_rule = manual"
            "\\ntau = 1e-4\\nh = 1e103\\nx_min = -1e105\\nx_max = 1e105\\nic_kind = triangle_pulse"
            "\\nhalf_width = 1e104\\n-h = 1e+103 makes]",
            "tests/test_cli.py::test_config_faults_exit_1_naming_the_field[argv33-tau_rule = manual"
            "\\ntau = 1e-4\\nh = 5e102\\nx_min = -5e104\\nx_max = 5e104\\nic_kind = triangle_pulse"
            "\\nhalf_width = 1e104\\n-h = 5e+102 makes]",
            "tests/test_cli.py::test_config_faults_exit_1_naming_the_field[argv34-tau_rule = manual"
            "\\ntau = 1e-4\\nh = 1e-110\\nx_min = -1e-107\\nx_max = 1e-107\\nic_kind = triangle_pulse"
            "\\nhalf_width = 1e-108\\n-h = 1e-110 makes]",
            "tests/test_model.py::test_grid_rejects_an_h_whose_stencil_divisor_is_not_a_normal_float[1e-110]",
        ),
    ),
    Mutant(
        "overflowing span left to the whole-step check",
        MODEL,
        "        if not math.isfinite(x_max - x_min):\n",
        "        if False:\n",
        (
            "tests/test_model.py::test_grid_spanning_rejects_spans_that_are_not_whole_steps[-1e+308-1e+308-0.05-x_max]",
            "tests/test_cli.py::test_config_faults_exit_1_naming_the_field[argv36-x_min = -1e308"
            "\\nx_max = 1e308\\n-x_max = 1e+308 overflows]",
        ),
    ),
    Mutant(
        "grid correction c h^2 / 3",
        MODEL,
        "c * h * h / 6.0",
        "c * h * h / 3.0",
        (
            "tests/test_model.py::test_effective_dispersion_advection_correction",
        ),
    ),
    Mutant(
        "advise_tau warns on an overflowing e_max",
        STEPPER,
        '    with np.errstate(over="ignore"):  # the tau check below owns an overflow\n',
        "    if True:\n",
        (
            "tests/test_cli.py::test_config_faults_exit_1_naming_the_field[argv35-system = custom:{tmp}"
            "/c1.sys\\nh = 1e200\\nx_min = -1e201\\nx_max = 1e201\\n"
            "-h = 1e+200 gives no finite positive dispersive_cfl tau]",
        ),
    ),
    Mutant(
        "paper_strict with 3 e_max^2",
        STEPPER,
        "9.0 * e_max**2",
        "3.0 * e_max**2",
        (
            "tests/test_stepper.py::test_advise_tau_paper_strict_arithmetic",
        ),
    ),
    Mutant(
        "oracle attached to stretched data",
        RUNNER,
        "config.ic_kind == IC_SOLITON",
        "config.ic_kind != IC_TRIANGLE",
        (
            "tests/test_cli.py::test_presets_listing",
        ),
    ),
    Mutant(
        "converge blow-up without its level's h",
        RUNNER,
        'f"h = {config.h:g}: {exc}"',
        "str(exc)",
        (
            "tests/test_runner.py::test_convergence_study_blow_up_names_its_level",
        ),
    ),
    Mutant(
        "imported name left out of __all__",
        INIT,
        '    "l2_norm",\n',
        "",
        (
            "tests/test_package.py::test_all_names_every_public_export_once",
        ),
    ),
    Mutant(
        "zero counted as positive",
        ERRORS,
        "    if value <= 0:\n",
        "    if value < 0:\n",
        (
            "tests/test_cli.py::test_config_faults_exit_1_naming_the_field[argv30-None-h must be positive, got 0.0]",
        ),
    ),
)


def _pytest(tree: Path, *ids: str) -> int:
    """Exit status of one pytest process running ``ids`` in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *ids]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode


def main() -> int:
    faults = 0
    for m in MUTANTS:
        count = (ROOT / m.path).read_text().count(m.old)
        if count != 1:
            print(f"BAD TEXT  {m.name}: the old text occurs {count} times in {m.path}")
            faults += 1
    if faults:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tree)
        ids = sorted({t for m in MUTANTS for t in m.tests})
        if _pytest(tree, *ids) != 0:
            print("the named tests do not all pass unmutated")
            return 1
        for m in MUTANTS:
            target = tree / m.path
            original = target.read_text()
            target.write_text(original.replace(m.old, m.new))
            try:
                passing = [t for t in m.tests if _pytest(tree, t) != 1]
            finally:
                target.write_text(original)
            if passing:
                print(f"SURVIVED  {m.name}: passing or not run: {', '.join(passing)}")
                faults += 1
            else:
                print(f"killed    {m.name} ({len(m.tests)} of {len(m.tests)} tests fail)")
    print(f"{len(MUTANTS) - faults} of {len(MUTANTS)} mutants killed")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
