#!/usr/bin/env python
"""Mutation gate: every check can fail, and every rule the tests pin is pinned.

Each row of MUTANTS is one deliberate fault: a source file, an exact snippet
that must occur in it exactly once, the replacement, why the tests must
catch it, and the tier-1 test that kills it.  For each row the script copies
the tree to a temporary directory, applies the fault there and runs pytest in
the copy, with the copy's ``src`` on PYTHONPATH: first the killing test
alone, then, only if that does not fail, ``pytest -x -q tests``.  The full
run leaves out ``tests/test_mutants.py``, which matches this table against
the source and so would fail on any mutated copy.  The mutant is killed when
a run reports a failing test (pytest exit code 1); an import error or a
timeout is not a kill.  So a row is killed exactly when some tier-1 test
fails; the killing test only spares the full run.  A row killed by the full
run alone is marked so, with the test that failed: its killing test is
stale.  A row with an ``equivalent`` reason is a known survivor: its snippet
must still match once, but it is not run, and it names no killing test.

The unmutated tree runs the full tier 1 too, and must pass, or a kill would
prove nothing.  So must each distinct killing test, run alone on an
unmutated copy: a test that fails alone, say because it leans on what an
earlier file imported, would kill every row that names it.  Two test runs
go at a time.  A refactor that moves a guarded line updates its row here.

    python scripts/mutants.py

Exit status 0 when every snippet matches once, every killing test exists,
the unmutated tree passes, every killing test passes alone on it and every
row not marked equivalent is killed; 1 otherwise.  Standard library and
pytest only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out", ".benchmarks",
    "*.egg-info", "build",
)
RUN_TIMEOUT_S = 600
TABLE_TEST = "tests/test_mutants.py"  # matches this table; the full run leaves it out
JOBS = 2


class Mutant(NamedTuple):
    # "<area>.<fault>"; the area is a check name where the fault is in one
    # check, so that every check is seen to fail
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    why: str
    killer: Optional[str] = None  # node id of a tier-1 test that fails on it
    equivalent: Optional[str] = None  # why no test can kill it, for a known survivor


CHECKS = "src/framecheck/checks.py"
LAUNCHER = "src/framecheck/__main__.py"

MUTANTS = (
    # -- each check's two residual forms
    Mutant(
        "symmetry.no_conductivity_form", CHECKS,
        "            kappa_raw = np.max(np.abs(deficit), axis=(1, 2))\n"
        "            rel = np.maximum(flux_raw, kappa_raw) / batch.denoms\n",
        "            kappa_raw = np.max(np.abs(deficit), axis=(1, 2))\n"
        "            rel = flux_raw / batch.denoms\n",
        "the flux form is blind at the zero gradient, where constant anisotropy "
        "shows only in the conductivity form",
        killer="tests/test_checks.py::"
        "test_symmetry_quarter_turn_breaks_unequal_principal_conductivities",
    ),
    Mutant(
        "symmetry.no_flux_form", CHECKS,
        "            kappa_raw = np.max(np.abs(deficit), axis=(1, 2))\n"
        "            rel = np.maximum(flux_raw, kappa_raw) / batch.denoms\n",
        "            kappa_raw = np.max(np.abs(deficit), axis=(1, 2))\n"
        "            rel = kappa_raw / batch.denoms\n",
        "the symmetry residual is the larger of both forms; the goldens pin it",
        killer="tests/test_checks.py::"
        "test_folded_symmetry_matches_the_per_element_loop[default_tol]",
    ),
    Mutant(
        "symmetry.shared_stack_from_the_first_state", "src/framecheck/models.py",
        "self.model.kappa(thetas, grads[0, :size])",
        "self.model.kappa(thetas[:1].repeat(size), grads[0, :size])",
        "a law that reads no gradient has kappa(theta, H g) = kappa(theta, g) "
        "state by state, so the stack ComponentMap shares is every sampled "
        "state's conductivity, not the first one's",
        killer="tests/test_checks.py::"
        "test_folded_symmetry_matches_the_per_element_loop[default_tol]",
    ),
    Mutant(
        "symmetry.element_map_not_transposed", CHECKS,
        "            model, transposes(elements), batch.thetas, batch.grads):\n",
        "            model, elements, batch.thetas, batch.grads):\n",
        "symmetry under H is the component map of H^T, which evaluates the law "
        "at H g; the map of H evaluates it at H^T g",
        killer="tests/test_golden.py::test_machine_report_matches_golden[big_group]",
    ),
    Mutant(
        "symmetry.sampled_group_sampled", CHECKS,
        "        return check_isotropy(model, cfg)\n",
        "        return _symmetry_check(model, orthogonal_check_set(cfg.seed, cfg.sample_count), cfg)\n",
        "symmetry under the full orthogonal group is isotropy, one decision; "
        "the sampled rows alone are a second one, which can fail a law that "
        "isotropy certifies",
        killer="tests/test_golden.py::test_machine_report_matches_golden[full_orthogonal]",
    ),
    Mutant(
        "frame_indifference.no_conductivity_form", CHECKS,
        "rel = np.maximum(flux_raw, obs_kappa_raw) / batch.denoms",
        "rel = flux_raw / batch.denoms",
        "the conductivity form kappa = Q^T kappa*(Q g) Q is half of the "
        "transformation law, and the goldens pin its residuals",
        killer="tests/test_checks.py::"
        "test_folded_frame_indifference_matches_the_unfolded_loop[default_tol]",
    ),
    Mutant(
        "frame_indifference.no_flux_form", CHECKS,
        "rel = np.maximum(flux_raw, obs_kappa_raw) / batch.denoms",
        "rel = np.broadcast_to(obs_kappa_raw / batch.denoms, flux_raw.shape)",
        "the flux form q = Q^T q*(Q g) is the other half of the law",
        killer="tests/test_checks.py::"
        "test_frame_indifference_fails_for_a_wrongly_rotated_component_map",
    ),
    Mutant(
        "frame_indifference.flux_runs_share_the_first_kappa", CHECKS,
        "obs_kappa_raw = kappa_raw[start:start + len(flux_raw), None]",
        "obs_kappa_raw = kappa_raw[:len(flux_raw), None]",
        "each run of stacked observers in the flux form pairs with its own "
        "observers' conductivity residuals, not the first run's",
        killer="tests/test_checks.py::"
        "test_folded_frame_indifference_matches_the_unfolded_loop[strict_tol]",
    ),
    Mutant(
        "frame_indifference.rotated_back_with_q", CHECKS,
        "fluxes @ transposes(run) @ run",
        "fluxes @ transposes(run) @ transposes(run)",
        "the observer's flux Q q(theta, H g) comes back to the canonical frame "
        "with Q^T; turned by Q again it misses q(theta, H g) under any "
        "observer with Q Q != I, isotropic laws included",
        killer="tests/test_acceptance.py::test_frame_indifference_does_not_imply_isotropy",
    ),
    Mutant(
        "observer_independence.no_conductivity_form", CHECKS,
        "            kappa_raw = np.max(np.abs(kappa_star - kappas), axis=(0, 1))\n"
        "            rel = np.maximum(flux_raw, kappa_raw) / batch.denoms\n",
        "            kappa_raw = np.max(np.abs(kappa_star - kappas), axis=(0, 1))\n"
        "            rel = flux_raw / batch.denoms\n",
        "an anisotropic conductor's starred map differs at the zero gradient "
        "only in the conductivity form",
        killer="tests/test_checks.py::"
        "test_checks_match_the_reference_loops_at_other_temperatures[default_tol-descending]",
    ),
    Mutant(
        "observer_independence.no_flux_form", CHECKS,
        "            kappa_raw = np.max(np.abs(kappa_star - kappas), axis=(0, 1))\n"
        "            rel = np.maximum(flux_raw, kappa_raw) / batch.denoms\n",
        "            kappa_raw = np.max(np.abs(kappa_star - kappas), axis=(0, 1))\n"
        "            rel = kappa_raw / batch.denoms\n",
        "the residual is the larger of both forms; the goldens pin it",
        killer="tests/test_checks.py::"
        "test_frame_indifference_fails_for_a_wrongly_rotated_component_map",
    ),
    Mutant(
        "observer_independence.symmetry_deficit_side", CHECKS,
        "            kappa_star = sample_last(conjugate_stack(run, kappas_c))\n"
        "            kappa_raw = np.max(np.abs(kappa_star - kappas), axis=(0, 1))\n",
        "            kappas_h = sample_last(kappas_c).reshape(3, 3, -1, batch.thetas.size)\n"
        "            kappas_h = np.broadcast_to(kappas_h, (3, 3) + fluxes.shape[:2])\n"
        "            kappa_raw = np.max(np.abs(_deficit(transposes(run), kappas[:, :, 0], kappas_h)),"
        " axis=(1, 2))\n",
        "observer independence shares symmetry's flux rows under H = Q^T, but "
        "its deficit Q kappa_c Q^T - kappa is -Q times symmetry's "
        "Q^T kappa - kappa_c Q^T, whose max-norm differs; the goldens pin it",
        killer="tests/test_golden.py::test_machine_report_matches_golden[anisotropic]",
    ),
    Mutant(
        "isotropy.trivial_group", CHECKS,
        "cubic = check_symmetry(model, _cubic_group(), cfg)",
        'cubic = check_symmetry(model, catalog_lookup("trivial"), cfg)',
        "isotropy is decided on the cubic rotations; under the identity alone "
        "every law would be certified isotropic",
        killer="tests/test_acceptance.py::test_frame_indifference_does_not_imply_isotropy",
    ),
    Mutant(
        "isotropy.certified_without_its_constant", CHECKS,
        "    if c * cubic.max_residual <= cfg.tol:\n",
        "    if cubic.max_residual <= cfg.tol:\n",
        "an orthogonal element can score up to c times the cubic maximum; a "
        "near-scalar law's sampled maximum is 1.56 times it",
        killer="tests/test_checks.py::test_the_certificate_needs_its_constant",
    ),
    Mutant(
        "isotropy.sampled_check_on_the_trivial_group", CHECKS,
        "_symmetry_check(model, orthogonal_check_set(cfg.seed, cfg.sample_count), cfg)",
        '_symmetry_check(model, catalog_lookup("trivial").stack, cfg)',
        "where the cubic rotations decide nothing, the sampled orthogonal "
        "group must, or a law that fails there would pass",
        killer="tests/test_checks.py::test_the_certificate_needs_its_constant",
    ),
    Mutant(
        "covariance.cubic_invariant_term", "src/framecheck/models.py",
        '        scale = self.a + self.b * np.einsum("si,si->s", grads, grads)\n',
        '        scale = self.a + self.b * np.einsum("si,si->s", grads, grads)'
        " + np.sum(grads**4, axis=1)\n",
        "(g1^4 + g2^4 + g3^4) I is invariant under the cubic rotations but not "
        "under O(3): the gradient would enter non-covariantly, and isotropy "
        "would certify it on the cubic rotations",
        killer="tests/test_models.py::test_every_family_has_a_covariant_gradient",
    ),
    Mutant(
        "zero_map.nan_as_zero", CHECKS,
        "            yield np.array([[r]]), (IDENTITY,), None, (state,)\n",
        "            yield np.nan_to_num(np.array([[r]]), nan=0.0), (IDENTITY,), None, (state,)\n",
        "an overflowing conductivity gives a NaN zero-gradient flux, which "
        "must fail, never pass",
        killer="tests/test_checks.py::test_non_finite_residual_never_passes",
    ),
    Mutant(
        "zero_map.residual_zeroed", CHECKS,
        "            r = np.linalg.norm(evaluate(model, state))\n",
        "            r = 0.0 * np.linalg.norm(evaluate(model, state))\n",
        "the zero-gradient flux must be zero",
        equivalent="every family factors q = kappa g, so for a finite kappa the "
        "zero-gradient flux is exactly +-0 and the residual 0 either way, and a "
        "non-finite one stays NaN (0 * inf); the check cannot fail for a finite "
        "law, and ROADMAP item 7 deletes it",
    ),
    # -- the reducer and the sampled states every check shares
    Mutant(
        "reducer.strict_boundary", CHECKS,
        "    passed = best <= tol\n",
        "    passed = best < tol\n",
        "a residual equal to the tolerance passes; test_golden pins the "
        "verdict's turn at each golden residual",
        killer="tests/test_golden.py::test_each_verdict_turns_at_its_golden_residual",
    ),
    Mutant(
        "reducer.ignores_repeat", CHECKS,
        "        samples += rel.size * repeat\n",
        "        samples += rel.size\n",
        "a temperature-free law's rows stand for every temperature, and "
        "samples_used counts them all",
        killer="tests/test_checks.py::"
        "test_symmetry_quarter_turn_breaks_unequal_principal_conductivities",
    ),
    Mutant(
        "reducer.nan_passes", CHECKS,
        "            if not math.isfinite(value):\n",
        "            if False:\n",
        "NaN compares false with everything, so without this branch a NaN "
        "residual could pass",
        killer="tests/test_checks.py::"
        "test_folded_frame_indifference_matches_the_unfolded_loop_on_failures",
    ),
    Mutant(
        "reducer.first_row_only", CHECKS,
        "        for r, row in enumerate(rel):\n",
        "        for r, row in enumerate(rel[:1]):\n",
        "a block holds many rows, and the maximum and witness may sit in any "
        "of them; the reference loops hand _worst one row a block",
        killer="tests/test_checks.py::"
        "test_folded_symmetry_matches_the_per_element_loop[default_tol]",
    ),
    Mutant(
        "reducer.no_rows_pass", CHECKS,
        "    if best_at is None:\n"
        '        raise ValueError("no residuals to check: a check needs at least one observer")\n',
        "",
        "an observer check given no observers would pass vacuously",
        killer="tests/test_checks.py::test_reducer_never_reports_a_negative_residual",
    ),
    Mutant(
        "sampling.denominator_without_one", CHECKS,
        "    denoms = 1.0 + row_norms(fluxes)\n",
        "    denoms = row_norms(fluxes)\n",
        "residuals are relative to 1 + |q|; without the 1 the zero-gradient "
        "state divides by zero",
        killer="tests/test_acceptance.py::test_frame_indifference_does_not_imply_isotropy",
    ),
    Mutant(
        "component_map.q_for_q_transpose", "src/framecheck/models.py",
        "grads = grads_star.reshape(count, -1, 3) @ self.observers  # rows are Q^T g*",
        "grads = grads_star.reshape(count, -1, 3) @ self.observers.transpose(0, 2, 1)",
        "a map that rotates with Q in place of Q^T is not frame indifferent, "
        "isotropic conductors included",
        killer="tests/test_acceptance.py::test_frame_indifference_does_not_imply_isotropy",
    ),
    # -- the one isotropy test, the classifier and schur_reduce
    Mutant(
        "classify.labels_swapped", CHECKS,
        "        return LinearSymmetryClass.TRANSVERSELY_ISOTROPIC\n"
        "    return LinearSymmetryClass.ORTHOTROPIC\n",
        "        return LinearSymmetryClass.ORTHOTROPIC\n"
        "    return LinearSymmetryClass.TRANSVERSELY_ISOTROPIC\n",
        "a pair of equal eigenvalues, wherever the unpaired one lies, makes a "
        "tensor transversely isotropic, and three distinct ones orthotropic",
        killer="tests/test_checks.py::test_classify_linear_symmetry",
    ),
    Mutant(
        "classify.isotropic_on_one_axis", CHECKS,
        'return catalog_lookup("cubic_rotations")\n',
        'return catalog_lookup("transverse_z_8")\n',
        "isotropy is certified on the cubic rotations, which no tensor but "
        "c I commutes with; rotations about z alone pass diag(1, 1, 1 + 1e-6)",
        killer="tests/test_checks.py::"
        "test_isotropic_cross_check_rejects_every_off_scalar_direction",
    ),
    Mutant(
        "classify.gap_tolerance_not_tol", CHECKS,
        "    if gap <= cfg.tol * max_abs(eigvals):\n",
        "    if gap <= 1e-8 * max_abs(eigvals):\n",
        "one tol decides both steps: at 1e-8 a gap of 1.5 tol would count as "
        "a pair of equal eigenvalues",
        killer="tests/test_checks.py::"
        "test_classify_cross_checks_the_tensor_its_label_describes",
    ),
    Mutant(
        "classify.larger_gap", CHECKS,
        "    gap = min(eigvals[1] - eigvals[0], eigvals[2] - eigvals[1])\n",
        "    gap = max(eigvals[1] - eigvals[0], eigvals[2] - eigvals[1])\n",
        "two equal eigenvalues make the smaller gap 0; the larger is the "
        "unpaired eigenvalue's distance, so diag(2, 2, 5) would be orthotropic",
        killer="tests/test_checks.py::test_classify_linear_symmetry",
    ),
    Mutant(
        "schur.unnormalized", CHECKS,
        "    m = k / (max_abs(k) or 1.0)\n",
        "    m = k\n",
        "the residual is relative to the tensor's largest entry: on L itself, "
        "1e-10 diag(1, 2, 3) would pass as a multiple of I",
        killer="tests/test_checks.py::test_schur_reduce_rejects_a_tiny_anisotropic_tensor",
    ),
    Mutant(
        "schur.alpha_of_the_normalized_tensor", CHECKS,
        "    passed, residual, _ = _cubic_test(l, cfg)\n",
        "    passed, residual, l = _cubic_test(l, cfg)\n",
        "the scalar recovered is L's own, not that of L / max|L|",
        killer="tests/test_checks.py::test_schur_reduce_recovers_a_large_scalar",
    ),
    # -- the sampler every draw goes through
    Mutant(
        "sampler.no_ball_rejection", "src/framecheck/tensors.py",
        "        kept = (sq > 0.0) & (sq <= 1.0)\n",
        "        kept = sq > 0.0\n",
        "points of the cube, normalized, crowd toward its corners: E[v_x^4] "
        "is 0.181 on them, 1/5 on the sphere",
        killer="tests/test_tensors.py::test_unit_directions_have_the_moments_of_the_sphere",
    ),
    Mutant(
        "sampler.no_improper_half", "src/framecheck/tensors.py",
        "    if not proper_only:\n        r[:, :, w < 0.0] *= -1.0\n",
        "",
        "Haar draws on O(3) are improper half the time; rotations alone "
        "would never probe a law's response to reflections",
        killer="tests/test_tensors.py::"
        "test_haar_draws_have_the_moments_of_the_orthogonal_group",
    ),
    Mutant(
        "sampler.quaternion_entries_swapped", "src/framecheck/tensors.py",
        "[1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],",
        "[1.0 - 2.0 * (yy + zz), 2.0 * (xz + wy), 2.0 * (xy - wz)],",
        "a quaternion's rotation matrix with two entries swapped is not "
        "orthogonal",
        killer="tests/test_tensors.py::test_random_orthogonal_is_orthogonal",
    ),
    Mutant(
        "sampler.streams_share_a_salt", "src/framecheck/tensors.py",
        '_SALTS = {"orthogonal": 0, "group": 1, "gradient": 2, "observer": 3}',
        '_SALTS = {"orthogonal": 0, "group": 1, "gradient": 2, "observer": 1}',
        "the observers would be the sampled group's first draws, and the "
        "observer checks would probe the elements isotropy does",
        killer="tests/test_tensors.py::test_no_two_streams_share_a_key",
    ),
    # -- group closure
    Mutant(
        "groups.no_transpose_test", "src/framecheck/groups.py",
        "    if missing.size:\n"
        '        raise ValueError(f"element {missing[0]} has no transpose in the group'
        ' (inverses missing)")\n',
        "",
        "a set that closes only because near-duplicate products merge is not "
        "a group; the merged_generators golden pins the failure",
        killer="tests/test_golden.py::test_machine_report_matches_golden[merged_generators]",
    ),
    Mutant(
        "groups.finite_group_without_closure", "src/framecheck/groups.py",
        "            if not _closed:\n",
        "            if False:\n",
        "generate_closure is the only way to make a finite group",
        killer="tests/test_groups.py::test_overflowing_elements_are_rejected_without_a_warning",
    ),
    Mutant(
        "groups.nearest_without_budget", "src/framecheck/groups.py",
        '        j = i + max(1, int(np.searchsorted(padded, _SLOTS, side="right")))\n',
        "        j = i + len(widest)\n",
        "a query block padded to its widest trace-bucket range holds up to "
        "1,024 times that range; the transpose test of a large cyclic group "
        "then dominates the memory of its closure",
        killer="tests/test_groups.py::test_nearest_pads_its_query_blocks_within_a_budget",
    ),
    # -- the suite runner and the process entry
    Mutant(
        "report.binds_check_at_import", "src/framecheck/report.py",
        '"zero_map": (False, lambda m, g, o, c: check_zero_map(m, c)),',
        '"zero_map": (False, (lambda f: lambda m, g, o, c: f(m, c))(check_zero_map)),',
        "the suite must call report.check_* as bound when it runs, which "
        "perfbench's tracer rebinds",
        killer="tests/test_report.py::test_suite_calls_the_check_bound_in_the_report_module",
    ),
    Mutant(
        "cli.no_gc_freeze", "src/framecheck/cli.py",
        "    gc.freeze()\n    sys.exit(code)\n",
        "    sys.exit(code)\n",
        "entry() freezes the heap before exit",
        killer="tests/test_cli.py::test_entry_freezes_the_heap",
    ),
    Mutant(
        "launcher.no_blas_pin", LAUNCHER,
        '    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")\n',
        "",
        "numpy's import would start an OpenBLAS thread per further core, which "
        "spins with nothing to do",
        killer="tests/test_cli.py::"
        "test_launchers_pin_openblas_to_one_thread_unless_the_user_set_it[framecheck]",
    ),
    Mutant(
        "launcher.no_gc_pause", LAUNCHER,
        "    gc.disable()\n",
        "",
        "the imports of numpy and framecheck run with the collector paused",
        killer="tests/test_cli.py::"
        "test_launchers_collect_nothing_during_the_imports_and_run_main_collecting[framecheck]",
    ),
    Mutant(
        "launcher.gc_left_disabled", LAUNCHER,
        "    gc.enable()\n",
        "",
        "main() runs with the collector on",
        killer="tests/test_cli.py::"
        "test_launchers_collect_nothing_during_the_imports_and_run_main_collecting[framecheck]",
    ),
    Mutant(
        "cli.help_into_a_closed_pipe_swallowed", "src/framecheck/cli.py",
        "        if message and file is sys.stdout:\n",
        "        if False:\n",
        "argparse drops the OSError of an unbuffered --help into a closed "
        "pipe: exit 0 with nothing said, where it must be 2 with one line",
        killer="tests/test_cli.py::test_closed_stdout_exits_two_with_one_error_line",
    ),
    Mutant(
        "cli.no_dup2", "src/framecheck/cli.py",
        "        os.dup2(devnull, sys.stdout.fileno())\n",
        "",
        "after a broken pipe, the flush at shutdown must not raise again: "
        "exit 2 with one error line, not 120",
        killer="tests/test_cli.py::test_closed_stdout_exits_two_with_one_error_line",
    ),
    # -- the run parameters: CheckConfig's rules, the seed range, the
    #    generator and observer tolerances and the config's own fields, each
    #    judged in one place
    Mutant(
        "check_config.tol_zero_accepted", CHECKS,
        "        if not np.isfinite(tol) or tol <= 0.0:\n",
        "        if not np.isfinite(tol):\n",
        "tol must be positive: run.tol = 0 and --tol 0 are errors",
        killer="tests/test_checks.py::test_check_config_validation",
    ),
    Mutant(
        "check_config.no_theta_samples_accepted", CHECKS,
        "        if not thetas:\n"
        '            raise ValueError("theta_samples must not be empty")\n',
        "",
        "a sweep over no temperature checks nothing",
        killer="tests/test_checks.py::test_check_config_validation",
    ),
    Mutant(
        "check_config.zero_temperature_accepted", CHECKS,
        "        if not all(np.isfinite(t) and t > 0.0 for t in thetas):\n",
        "        if not all(np.isfinite(t) for t in thetas):\n",
        "temperatures must be positive",
        killer="tests/test_checks.py::test_check_config_validation",
    ),
    Mutant(
        "check_config.zero_count_accepted", CHECKS,
        "            if count < 1:\n",
        "            if count < 0:\n",
        "at least one random gradient direction per temperature, and one Haar "
        "draw: sample_count = 0 is an error in code as in a config file",
        killer="tests/test_checks.py::test_check_config_validation",
    ),
    Mutant(
        "check_config.seed_past_64_bits", "src/framecheck/tensors.py",
        "    if not 0 <= s < 2**64:\n",
        "    if not 0 <= s:\n",
        "a seed must fit in an unsigned 64-bit integer: run.seed and --seed "
        "of 2**64 are errors",
        killer="tests/test_cli.py::test_bad_flag_values_exit_two",
    ),
    Mutant(
        "config.generators_at_loose_tolerance", "src/framecheck/config.py",
        '_judge_matrices("group.generators", self.source, ELEMENT_ORTH_TOL)',
        '_judge_matrices("group.generators", self.source, 1e-6)',
        "a generator that GroupSpec accepts must pass generate_closure's "
        "generator test: 1e-7 off is a config error (exit 2)",
        killer="tests/test_cli.py::test_overflowing_generator_exits_two_with_one_error_line",
    ),
    Mutant(
        "observers.loose_tolerance", "src/framecheck/tensors.py",
        "OBSERVER_ORTH_TOL = 1e-12\n",
        "OBSERVER_ORTH_TOL = 1e-6\n",
        "an observer 1e-8 off orthogonal makes the isotropic 2 I fail frame "
        "indifference and observer independence; it is a config error (exit 2)",
        killer="tests/test_cli.py::test_observer_off_by_1e8_exits_two_with_one_error_line",
    ),
    Mutant(
        "config.max_order_with_a_name", "src/framecheck/config.py",
        "            if self.max_order != _DEFAULT_MAX_ORDER:\n",
        "            if False:\n",
        "a catalog name takes no closure cap: to_config_text drops it, so "
        "GroupSpec('z4', max_order=5) would not round-trip",
        killer="tests/test_config.py::test_group_spec_rejects_a_max_order_that_means_nothing",
    ),
    Mutant(
        "config.group_name_unchecked", "src/framecheck/config.py",
        "                resolve_group_name(self.source)\n",
        "                pass\n",
        "a GroupSpec's name is judged when it is built: an unknown one gave a "
        "could-not-run group check, where its config text exits 2",
        killer="tests/test_report.py::"
        "test_an_unknown_group_name_is_rejected_when_its_spec_is_built",
    ),
    Mutant(
        "config.counts_of_any_form", "src/framecheck/config.py",
        "    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):\n"
        '        raise TypeError(f"{name}: expected {form}")\n',
        "",
        "a count is an int: observers=5.0 crashed run_suite, and "
        "max_order=8.5 wrote a config text that does not parse",
        killer="tests/test_config.py::"
        "test_config_values_in_the_wrong_form_are_type_errors_naming_the_key",
    ),
    Mutant(
        "check_config.counts_of_any_form", CHECKS,
        "            if isinstance(count, bool) or not isinstance(count, (int, np.integer)):\n"
        '                raise TypeError(f"{name} must be an integer")\n',
        "",
        "a count is an int: CheckConfig(gradient_samples=2.5) became 2, True "
        "became 1 and '3' became 3, with no error",
        killer="tests/test_config.py::test_check_config_counts_are_ints_of_at_least_one",
    ),
    Mutant(
        "config.suite_without_checks", "src/framecheck/config.py",
        "        if not names:\n",
        "        if False:\n",
        "a SuiteConfig of no checks would run nothing and pass vacuously",
        killer="tests/test_config.py::test_validation_errors_name_the_offender",
    ),
    Mutant(
        "config.suite_unknown_check", "src/framecheck/config.py",
        "            if name not in CHECK_NAMES:\n",
        "            if False:\n",
        "a SuiteConfig's check names are judged when it is built, not deep in "
        "a run, and a config file's by the same rule",
        killer="tests/test_config.py::test_validation_errors_name_the_offender",
    ),
    Mutant(
        "config.suite_repeated_check", "src/framecheck/config.py",
        "        if len(set(names)) != len(names):\n",
        "        if False:\n",
        "a check named twice would run twice; SuiteConfig holds this one rule "
        "for code and config files alike",
        killer="tests/test_config.py::test_validation_errors_name_the_offender",
    ),
    Mutant(
        "config.suite_observers_unchecked", "src/framecheck/config.py",
        '            _judge_matrices("run.observers", self.observers, OBSERVER_ORTH_TOL)\n',
        "            pass\n",
        "SuiteConfig's observer matrices are judged when it is built, not deep "
        "in a run",
        killer="tests/test_config.py::test_suite_config_validates_its_observers",
    ),
    Mutant(
        "config.suite_model_unchecked", "src/framecheck/config.py",
        "        _judge_model(self.model)\n",
        "        pass\n",
        "a SuiteConfig's model is judged when it is built: a kappa0 of two "
        "numbers raised numpy's reshape error deep in run_suite, and a stray "
        "parameter ran and was dropped from the config text",
        killer="tests/test_config.py::test_suite_config_validates_its_model",
    ),
)


def problems(mutants=MUTANTS) -> list[str]:
    """One line for each row whose snippet does not occur exactly once, or
    that does not name exactly one of a killing test and an equivalence."""
    found = []
    for m in mutants:
        count = (ROOT / m.path).read_text().count(m.snippet)
        if count != 1:
            found.append(f"{m.name}: snippet occurs {count} times in {m.path}")
        if (m.killer is None) == (m.equivalent is None):
            found.append(f"{m.name}: must name a killing test or an equivalence, not both")
    return found


def missing_killers(mutants=MUTANTS) -> list[str]:
    """The killing tests that the full run does not collect."""
    killers = {m.killer for m in mutants if m.killer}
    files = sorted({k.partition("::")[0] for k in killers} - {TABLE_TEST})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT, env=_env(ROOT), capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    collected = set(proc.stdout.splitlines())
    # a function's id stands for all of its parametrized cases
    return sorted(
        k for k in killers
        if k not in collected and not any(c.startswith(k + "[") for c in collected)
    )


def _env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def _pytest(tree: Path, *args: str) -> tuple[int | None, str]:
    """(pytest's exit code or None on timeout, its first failure) in tree."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args]
    try:
        proc = subprocess.run(
            command, cwd=tree, env=_env(tree), capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {RUN_TIMEOUT_S} s"
    lines = proc.stdout.splitlines()
    first = next((ln for ln in lines if ln.startswith(("FAILED ", "ERROR "))), "")
    return proc.returncode, first or (lines[-1] if lines else proc.stderr.strip())


def _killer_alone(killer: str) -> tuple[int | None, str]:
    """(pytest's exit code or None on timeout, its first failure) for one
    killing test run alone on an unmutated copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="framecheck-killer-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        return _pytest(copy, killer)


def _run_tests(mutant: Optional[Mutant]) -> tuple[int | None, float, str, bool]:
    """(pytest's exit code or None on timeout, seconds, its first failure,
    whether the full run decided) for a copy of the tree with the mutant
    applied (None: unmutated, which only the full run tests)."""
    with tempfile.TemporaryDirectory(prefix="framecheck-mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        start = time.perf_counter()
        code = None
        if mutant is not None:
            target = copy / mutant.path
            target.write_text(target.read_text().replace(mutant.snippet, mutant.replacement))
            code, first = _pytest(copy, mutant.killer)
        full = code != 1
        if full:
            code, first = _pytest(copy, "--ignore", TABLE_TEST, "tests")
        return code, time.perf_counter() - start, first, full


def main() -> int:
    argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    ).parse_args()
    bad = problems()
    bad += [f"killing test {k} is not collected" for k in missing_killers()]
    if bad:
        print("\n".join(["mutant table does not match the source:"] + bad), file=sys.stderr)
        return 1
    live = [m for m in MUTANTS if not m.equivalent]
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        baseline = pool.submit(_run_tests, None)
        alone = [(k, pool.submit(_killer_alone, k)) for k in sorted({m.killer for m in live})]
        runs = [(m, pool.submit(_run_tests, m)) for m in live]
        survivors = 0
        for m, run in runs:
            code, seconds, first, full = run.result()
            survivors += code != 1
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            if code == 1 and full:
                verdict = "killed by the full run"
            print(f"{verdict:<10} {m.name:<46} {seconds:6.1f} s  {first}", flush=True)
        code, seconds, first, _ = baseline.result()
        failing = [(k, *run.result()) for k, run in alone]
        failing = [(k, c, f) for k, c, f in failing if c != 0]
    for m in MUTANTS:
        if m.equivalent:
            print(f"{'equivalent':<10} {m.name:<46} {m.equivalent}")
    print(f"unmutated tree: pytest exit {code} in {seconds:.1f} s  {first}")
    for killer, c, f in failing:
        print(f"killing test fails alone on the unmutated tree (pytest exit {c}): {killer}  {f}")
    print(
        f"{len(live) - survivors} of {len(live)} mutants killed, "
        f"{len(MUTANTS) - len(live)} equivalent, {len(alone) - len(failing)} of {len(alone)} "
        f"killing tests pass alone, {time.perf_counter() - start:.0f} s in all"
    )
    return 0 if code == 0 and not survivors and not failing else 1


if __name__ == "__main__":
    raise SystemExit(main())
