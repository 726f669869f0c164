#!/usr/bin/env python
"""Mutation gate: every check can fail, and every rule the tests pin is pinned.

Each row of MUTANTS is one deliberate fault: a source file, an exact snippet
that must occur in it exactly once, the replacement, and why the tests must
catch it.  For each row the script copies the tree to a temporary directory,
applies the fault there and runs ``pytest -x -q tests`` in the copy, with the
copy's ``src`` on PYTHONPATH.  The run leaves out ``tests/test_mutants.py``,
which matches this table against the source and so would fail on any
mutated copy.  The mutant is killed when that run reports a failing test
(pytest exit code 1); an import error or a timeout is not a kill.  A row with an ``equivalent`` reason is a known survivor: its snippet
must still match once, but it is not run.

The unmutated tree is run too, and must pass, or a kill would prove nothing.
Two test runs go at a time.  A refactor that moves a guarded line updates
its row here.

    python scripts/mutants.py

Exit status 0 when every snippet matches once, the unmutated tree passes and
every row not marked equivalent is killed; 1 otherwise.  Standard library
and pytest only.
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
JOBS = 2


class Mutant(NamedTuple):
    # "<area>.<fault>"; the area is a check name where the fault is in one
    # check, so that every check is seen to fail
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    why: str
    equivalent: Optional[str] = None  # why no test can kill it, for a known survivor


CHECKS = "src/framecheck/checks.py"

MUTANTS = (
    # -- each check's two residual forms
    Mutant(
        "symmetry.no_conductivity_form", CHECKS,
        "            kappa_raw = np.max(np.abs(deficit), axis=(1, 2))[:, at]\n"
        "            rel = np.maximum(flux_raw, kappa_raw) / batch.denoms\n",
        "            kappa_raw = np.max(np.abs(deficit), axis=(1, 2))[:, at]\n"
        "            rel = flux_raw / batch.denoms\n",
        "the flux form is blind at the zero gradient, where constant anisotropy "
        "shows only in the conductivity form",
    ),
    Mutant(
        "symmetry.no_flux_form", CHECKS,
        "            kappa_raw = np.max(np.abs(deficit), axis=(1, 2))[:, at]\n"
        "            rel = np.maximum(flux_raw, kappa_raw) / batch.denoms\n",
        "            kappa_raw = np.max(np.abs(deficit), axis=(1, 2))[:, at]\n"
        "            rel = kappa_raw / batch.denoms\n",
        "the symmetry residual is the larger of both forms; the goldens pin it",
    ),
    Mutant(
        "frame_indifference.no_conductivity_form", CHECKS,
        "rel = np.maximum(flux_raw, obs_kappa_raw) / batch.denoms",
        "rel = flux_raw / batch.denoms",
        "the conductivity form kappa = Q^T kappa*(Q g) Q is half of the "
        "transformation law, and the goldens pin its residuals",
    ),
    Mutant(
        "frame_indifference.no_flux_form", CHECKS,
        "rel = np.maximum(flux_raw, obs_kappa_raw) / batch.denoms",
        "rel = np.broadcast_to(obs_kappa_raw / batch.denoms, flux_raw.shape)",
        "the flux form q = Q^T q*(Q g) is the other half of the law",
    ),
    Mutant(
        "observer_independence.no_conductivity_form", CHECKS,
        "            kappa_raw = np.max(np.abs(kappa_star - kappas), axis=(0, 1))\n"
        "            rel = np.maximum(flux_raw, kappa_raw) / batch.denoms\n",
        "            kappa_raw = np.max(np.abs(kappa_star - kappas), axis=(0, 1))\n"
        "            rel = flux_raw / batch.denoms\n",
        "an anisotropic conductor's starred map differs at the zero gradient "
        "only in the conductivity form",
    ),
    Mutant(
        "observer_independence.no_flux_form", CHECKS,
        "            kappa_raw = np.max(np.abs(kappa_star - kappas), axis=(0, 1))\n"
        "            rel = np.maximum(flux_raw, kappa_raw) / batch.denoms\n",
        "            kappa_raw = np.max(np.abs(kappa_star - kappas), axis=(0, 1))\n"
        "            rel = kappa_raw / batch.denoms\n",
        "the residual is the larger of both forms; the goldens pin it",
    ),
    Mutant(
        "isotropy.trivial_group", CHECKS,
        'group = catalog_lookup("full_orthogonal", sample_count=sample_count)',
        'group = catalog_lookup("trivial")',
        "isotropy is symmetry under the orthogonal group; under the identity "
        "alone an anisotropic conductor would pass",
    ),
    Mutant(
        "zero_map.nan_as_zero", CHECKS,
        "            yield np.array([r]), IDENTITY, None, (state,)\n",
        "            yield np.nan_to_num(np.array([r]), nan=0.0), IDENTITY, None, (state,)\n",
        "an overflowing conductivity gives a NaN zero-gradient flux, which "
        "must fail, never pass",
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
    ),
    Mutant(
        "reducer.ignores_repeat", CHECKS,
        "        samples += rel.size * repeat\n",
        "        samples += rel.size\n",
        "a temperature-free law's rows stand for every temperature, and "
        "samples_used counts them all",
    ),
    Mutant(
        "reducer.nan_passes", CHECKS,
        "        if not math.isfinite(r):\n",
        "        if False:\n",
        "NaN compares false with everything, so without this branch a NaN "
        "residual could pass",
    ),
    Mutant(
        "reducer.no_rows_pass", CHECKS,
        "    if best_at is None:\n"
        '        raise ValueError("no residuals to check: a check needs at least one observer")\n',
        "",
        "an observer check given no observers would pass vacuously",
    ),
    Mutant(
        "sampling.denominator_without_one", CHECKS,
        "    denoms = 1.0 + np.linalg.norm(fluxes, axis=1)\n",
        "    denoms = np.linalg.norm(fluxes, axis=1)\n",
        "residuals are relative to 1 + |q|; without the 1 the zero-gradient "
        "state divides by zero",
    ),
    Mutant(
        "component_map.q_for_q_transpose", "src/framecheck/models.py",
        "grads = grads_star.reshape(count, -1, 3) @ self.observers  # rows are Q^T g*",
        "grads = grads_star.reshape(count, -1, 3) @ self.observers.transpose(0, 2, 1)",
        "a map that rotates with Q in place of Q^T is not frame indifferent, "
        "isotropic conductors included",
    ),
    # -- the classifier and schur_reduce
    Mutant(
        "classify.unpaired_eigenvalue_off_z", CHECKS,
        "        if low_pair:\n            order = [0, 1, 2]\n",
        "        if low_pair:\n            order = [1, 2, 0]\n",
        "transverse_z_8 expects the unpaired eigenvalue on the z axis; the "
        "cross-check raises otherwise",
    ),
    Mutant(
        "classify.isotropic_on_one_axis", CHECKS,
        '("cubic_rotations", "transverse_z_8", "orthotropic")',
        '("transverse_z_8", "transverse_z_8", "orthotropic")',
        "the isotropic label is certified on the cubic rotations, which no "
        "tensor but c I commutes with; rotations about z alone pass "
        "diag(1, 1, 1 + 1e-6)",
    ),
    Mutant(
        "schur.no_deviation_test", CHECKS,
        "    if deviation > cfg.tol:\n"
        "        return SchurResult(False, None, max(residual, deviation))\n",
        "",
        "a tensor that commutes with every conjugation must be alpha times "
        "the identity",
        equivalent="the conjugation test over the 268-element check set already "
        "rejects every tensor that is not alpha times the identity within tol; "
        "in 20,000 near-scalar draws it never passed one the deviation test "
        "then rejected (ROADMAP item 9)",
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
    ),
    Mutant(
        "groups.finite_group_without_closure", "src/framecheck/groups.py",
        "            if not _closed:\n",
        "            if False:\n",
        "generate_closure is the only way to make a finite group",
    ),
    # -- the suite runner and the process entry
    Mutant(
        "report.binds_check_at_import", "src/framecheck/report.py",
        '"zero_map": (False, lambda m, g, o, c, n: check_zero_map(m, c)),',
        '"zero_map": (False, (lambda f: lambda m, g, o, c, n: f(m, c))(check_zero_map)),',
        "the suite must call report.check_* as bound when it runs, which "
        "perfbench's tracer rebinds",
    ),
    Mutant(
        "cli.no_gc_freeze", "src/framecheck/cli.py",
        "    gc.freeze()\n    sys.exit(code)\n",
        "    sys.exit(code)\n",
        "entry() freezes the heap before exit",
    ),
    Mutant(
        "cli.no_dup2", "src/framecheck/cli.py",
        "        os.dup2(devnull, sys.stdout.fileno())\n",
        "",
        "after a broken pipe, the flush at shutdown must not raise again: "
        "exit 2 with one error line, not 120",
    ),
    # -- the run parameters: CheckConfig's rules, the seed range, the
    #    generator and observer tolerances and the config's own fields, each
    #    judged in one place
    Mutant(
        "check_config.tol_zero_accepted", CHECKS,
        "        if not np.isfinite(self.tol) or self.tol <= 0.0:\n",
        "        if not np.isfinite(self.tol):\n",
        "tol must be positive: run.tol = 0 and --tol 0 are errors",
    ),
    Mutant(
        "check_config.no_theta_samples_accepted", CHECKS,
        "        if not thetas:\n"
        '            raise ValueError("theta_samples must not be empty")\n',
        "",
        "a sweep over no temperature checks nothing",
    ),
    Mutant(
        "check_config.zero_temperature_accepted", CHECKS,
        "        if not all(np.isfinite(t) and t > 0.0 for t in thetas):\n",
        "        if not all(np.isfinite(t) for t in thetas):\n",
        "temperatures must be positive",
    ),
    Mutant(
        "check_config.zero_gradient_samples_accepted", CHECKS,
        "        if int(self.gradient_samples) < 1:\n",
        "        if int(self.gradient_samples) < 0:\n",
        "at least one random gradient direction per temperature",
    ),
    Mutant(
        "check_config.seed_past_64_bits", "src/framecheck/tensors.py",
        "    if not 0 <= s < 2**64:\n",
        "    if not 0 <= s:\n",
        "a seed must fit in an unsigned 64-bit integer: run.seed and --seed "
        "of 2**64 are errors",
    ),
    Mutant(
        "config.generators_at_loose_tolerance", "src/framecheck/config.py",
        'generators = _matrices("group", "generators", sec["generators"], ELEMENT_ORTH_TOL)',
        'generators = _matrices("group", "generators", sec["generators"], 1e-6)',
        "a generator that parses must pass generate_closure's generator "
        "test: 1e-7 off is a config error (exit 2)",
    ),
    Mutant(
        "observers.loose_tolerance", "src/framecheck/tensors.py",
        "OBSERVER_ORTH_TOL = 1e-12\n",
        "OBSERVER_ORTH_TOL = 1e-6\n",
        "an observer 1e-8 off orthogonal makes the isotropic 2 I fail frame "
        "indifference and observer independence; it is a config error (exit 2)",
    ),
    Mutant(
        "config.max_order_with_a_name", "src/framecheck/config.py",
        "        if isinstance(self.source, str) and self.max_order != _DEFAULT_MAX_ORDER:\n",
        "        if False:\n",
        "a catalog name takes no closure cap: to_config_text drops it, so "
        "GroupSpec('z4', max_order=5) would not round-trip",
    ),
    Mutant(
        "config.suite_without_checks", "src/framecheck/config.py",
        "        if not self.checks:\n",
        "        if False:\n",
        "a SuiteConfig of no checks would run nothing and pass vacuously",
    ),
    Mutant(
        "config.suite_unknown_check", "src/framecheck/config.py",
        "            if req.name not in CHECK_NAMES:\n"
        '                raise ValueError(f"unknown check {req.name!r}")\n',
        "",
        "a SuiteConfig's check names are judged when it is built, not deep in "
        "a run",
    ),
    Mutant(
        "config.suite_observers_unchecked", "src/framecheck/config.py",
        "            observer_stack(self.observers)\n",
        "            pass\n",
        "SuiteConfig's observer matrices pass observer_stack when it is "
        "built, not deep in a run",
    ),
)


def problems(mutants=MUTANTS) -> list[str]:
    """One line for each row whose snippet does not occur exactly once."""
    found = []
    for m in mutants:
        count = (ROOT / m.path).read_text().count(m.snippet)
        if count != 1:
            found.append(f"{m.name}: snippet occurs {count} times in {m.path}")
    return found


def _run_tests(mutant: Optional[Mutant]) -> tuple[int | None, float, str]:
    """(pytest's exit code or None on timeout, seconds, its first failure)
    for a copy of the tree with the mutant applied (None: unmutated)."""
    with tempfile.TemporaryDirectory(prefix="framecheck-mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        if mutant is not None:
            target = copy / mutant.path
            target.write_text(target.read_text().replace(mutant.snippet, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--ignore", "tests/test_mutants.py", "tests",
        ]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                command, cwd=copy, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - start, f"timed out after {RUN_TIMEOUT_S} s"
        seconds = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    first = next((ln for ln in lines if ln.startswith(("FAILED ", "ERROR "))), "")
    return proc.returncode, seconds, first or (lines[-1] if lines else proc.stderr.strip())


def main() -> int:
    argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    ).parse_args()
    bad = problems()
    if bad:
        print("\n".join(["mutant table does not match the source:"] + bad), file=sys.stderr)
        return 1
    live = [m for m in MUTANTS if not m.equivalent]
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        baseline = pool.submit(_run_tests, None)
        runs = [(m, pool.submit(_run_tests, m)) for m in live]
        survivors = 0
        for m, run in runs:
            code, seconds, first = run.result()
            survivors += code != 1
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            print(f"{verdict:<10} {m.name:<46} {seconds:6.1f} s  {first}", flush=True)
        code, seconds, first = baseline.result()
    for m in MUTANTS:
        if m.equivalent:
            print(f"{'equivalent':<10} {m.name:<46} {m.equivalent}")
    print(f"unmutated tree: pytest exit {code} in {seconds:.1f} s  {first}")
    print(
        f"{len(live) - survivors} of {len(live)} mutants killed, "
        f"{len(MUTANTS) - len(live)} equivalent, {time.perf_counter() - start:.0f} s in all"
    )
    return 0 if code == 0 and not survivors else 1


if __name__ == "__main__":
    raise SystemExit(main())
