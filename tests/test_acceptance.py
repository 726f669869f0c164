"""End-to-end acceptance checks for the verification suite.

Each test prints exactly one [PASS]/[FAIL] line (visible even under pytest
capture) and then asserts the same conditions so failures localize.
"""
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import framecheck as fc
from framecheck.tensors import conjugate_stack
from conftest import DIAG123, MODEL_ROSTER, SUBPROCESS_ENV, symmetry_form_residuals

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _announce(capsys, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {text}", flush=True)


def test_frame_indifference_does_not_imply_isotropy(capsys):
    # the central contrast: an anisotropic conductor satisfies every
    # observer-transformation identity yet fails the isotropy sweep
    t0 = time.monotonic()
    cfg = fc.CheckConfig()
    trivial = fc.catalog_lookup("trivial")
    observers = fc.random_observers(100, seed=0)
    aniso = fc.LinearConstant(DIAG123)
    spherical = fc.LinearConstant(2.5 * np.eye(3))

    fi_aniso = fc.check_frame_indifference(aniso, trivial, observers, cfg)
    iso_aniso = fc.check_isotropy(aniso, cfg)
    fi_sph = fc.check_frame_indifference(spherical, trivial, observers, cfg)
    iso_sph = fc.check_isotropy(spherical, cfg)
    elapsed = time.monotonic() - t0

    witness_gap = min(
        float(np.abs(iso_aniso.witness.group_element - e).max())
        for e in fc.catalog_lookup("cubic_rotations").elements
    )
    ok = (
        fi_aniso.passed
        and fi_aniso.max_residual <= 1e-9
        and not iso_aniso.passed
        and witness_gap <= 1e-12
        and fi_sph.passed
        and iso_sph.passed
        and elapsed < 1.0
    )
    _announce(
        capsys,
        ok,
        "1/8 frame indifference holds for diag(1,2,3) (residual "
        f"{fi_aniso.max_residual:.2e} <= 1e-09) while isotropy fails with one "
        f"of the 24 cubic rotations as witness; spherical conductor passes both ({elapsed:.2f}s < 1s)",
    )
    assert fi_aniso.passed and fi_aniso.max_residual <= 1e-9
    assert not iso_aniso.passed
    assert witness_gap <= 1e-12
    assert fi_sph.passed and iso_sph.passed
    assert elapsed < 1.0


def test_flux_form_and_tensor_form_residuals_agree(capsys):
    # the two ways of writing group invariance (transform the flux, or
    # transform the conductivity tensor) must score every sample identically
    t0 = time.monotonic()
    cfg = fc.CheckConfig(sample_count=64)
    groups = [
        fc.catalog_lookup("trivial"),
        fc.catalog_lookup("z4"),
        fc.catalog_lookup("orthotropic"),
        fc.catalog_lookup("transverse_z_8"),
        fc.catalog_lookup("cubic_rotations"),
        fc.catalog_lookup("full_orthogonal"),
    ]
    worst = 0.0
    pairs = 0
    for _, model in MODEL_ROSTER:
        for group in groups:
            flux_parts, kappa_parts = symmetry_form_residuals(model, group, cfg)
            assert flux_parts.shape == kappa_parts.shape
            worst = max(worst, float(np.abs(flux_parts - kappa_parts).max()))
            pairs += 1
    elapsed = time.monotonic() - t0

    ok = worst <= 1e-9 and elapsed < 5.0
    _announce(
        capsys,
        ok,
        f"2/8 flux-form vs tensor-form symmetry residuals agree across "
        f"{len(MODEL_ROSTER)} models x {len(groups)} groups ({pairs} pairs): "
        f"worst gap {worst:.2e} <= 1e-09 ({elapsed:.2f}s < 5s)",
    )
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_isotropy_implies_observer_independence(capsys):
    cfg = fc.CheckConfig()  # tol 1e-9
    loose = replace(cfg, tol=1e-8)
    observers = fc.random_observers(50, seed=0)

    implied = []
    for name, model in MODEL_ROSTER:
        iso = fc.check_isotropy(model, cfg)
        if iso.passed:
            oi = fc.check_observer_independence(model, observers, loose)
            implied.append((name, oi.passed, oi.max_residual))

    bad = fc.check_observer_independence(fc.LinearConstant(DIAG123), [fc.ROT_Z_90], cfg)

    ok = (
        len(implied) >= 1
        and all(passed for _, passed, _ in implied)
        and not bad.passed
        and bad.max_residual >= 0.5
    )
    _announce(
        capsys,
        ok,
        f"3/8 every isotropic model ({len(implied)} of {len(MODEL_ROSTER)}) is "
        f"observer-independent on 50 observers at 1e-08; diag(1,2,3) fails at "
        f"the quarter-turn observer with residual {bad.max_residual:.3g} >= 0.5",
    )
    assert implied, "no model in the roster passed the isotropy check"
    for name, passed, residual in implied:
        assert passed, f"{name}: observer independence residual {residual}"
    assert not bad.passed
    assert bad.max_residual >= 0.5


def test_scalar_reduction_recovers_and_rejects(capsys):
    cfg = fc.CheckConfig()
    rng = np.random.default_rng(12345)

    recovered = 0
    for _ in range(1000):
        alpha = float(rng.uniform(-10.0, 10.0))
        res = fc.schur_reduce(alpha * np.eye(3), cfg)
        if res.is_isotropic_invariant and abs(res.alpha - alpha) <= 1e-12:
            recovered += 1

    rejected = 0
    min_reject_residual = np.inf
    for i in range(1000):
        r = fc.random_orthogonal(i, proper_only=True)
        low = float(rng.uniform(-5.0, 5.0))
        high = low + float(rng.uniform(0.1, 5.0))  # eigenvalue spread >= 0.1
        mid = float(rng.uniform(low, high))
        l = r @ np.diag([low, mid, high]) @ r.T
        l = 0.5 * (l + l.T)
        res = fc.schur_reduce(l, cfg)
        if not res.is_isotropic_invariant and res.residual >= 1e-2:
            rejected += 1
            min_reject_residual = min(min_reject_residual, res.residual)

    ok = recovered == 1000 and rejected == 1000
    _announce(
        capsys,
        ok,
        f"4/8 scalar reduction: {recovered}/1000 scalar tensors recovered with "
        f"alpha error <= 1e-12, {rejected}/1000 non-scalar tensors rejected "
        f"with residual >= 1e-02 (smallest {min_reject_residual:.3g})",
    )
    assert recovered == 1000
    assert rejected == 1000


def test_zero_gradient_gives_exactly_zero_flux(capsys):
    cfg = fc.CheckConfig()  # theta samples 0.5, 1.0, 300.0
    results = [(name, fc.check_zero_map(model, cfg)) for name, model in MODEL_ROSTER]
    ok = all(r.passed and r.max_residual == 0.0 for _, r in results)
    _announce(
        capsys,
        ok,
        f"5/8 zero temperature gradient maps to bitwise-zero flux for all "
        f"{len(results)} families at theta in {{0.5, 1, 300}}",
    )
    for name, r in results:
        assert r.passed and r.max_residual == 0.0, name


def test_closure_orders_and_overflow(capsys):
    t0 = time.monotonic()
    orders = (
        fc.generate_closure([fc.IDENTITY], max_order=192).order,
        fc.generate_closure([fc.ROT_Z_90], max_order=192).order,
        fc.generate_closure([fc.ROT_X_180, fc.ROT_Y_180], max_order=192).order,
        fc.generate_closure([fc.ROT_Z_90, fc.ROT_X_90], max_order=192).order,
    )
    overflowed = False
    try:
        fc.generate_closure([fc.rotation_about((0.0, 0.0, 1.0), 1.0)], max_order=1000)
    except fc.ClosureOverflow:
        overflowed = True
    elapsed = time.monotonic() - t0

    ok = orders == (1, 4, 4, 24) and overflowed and elapsed < 1.0
    _announce(
        capsys,
        ok,
        f"6/8 closure reproduces orders {orders} for identity/quarter-turn/"
        f"half-turn-pair/cubic generators and a 1-radian rotation overflows at "
        f"max_order=1000 ({elapsed:.2f}s < 1s)",
    )
    assert orders == (1, 4, 4, 24)
    assert overflowed
    assert elapsed < 1.0


def test_cli_exit_codes_and_byte_determinism(capsys):
    def run(name):
        return subprocess.run(
            [sys.executable, "-m", "framecheck", "run",
             str(CONFIGS / name), "--format", "machine"],
            capture_output=True,
            env=SUBPROCESS_ENV,
            timeout=120,
        )

    codes = {name: run(name).returncode
             for name in ("isotropic.ini", "anisotropic.ini", "malformed.ini")}
    first = run("isotropic.ini")
    second = run("isotropic.ini")
    identical = first.stdout == second.stdout and len(first.stdout) > 0

    ok = (
        codes == {"isotropic.ini": 0, "anisotropic.ini": 1, "malformed.ini": 2}
        and identical
    )
    _announce(
        capsys,
        ok,
        f"7/8 CLI exit codes {codes['isotropic.ini']}/{codes['anisotropic.ini']}/"
        f"{codes['malformed.ini']} on the canned configs; repeated machine "
        f"reports byte-identical ({len(first.stdout)} bytes)",
    )
    assert codes == {"isotropic.ini": 0, "anisotropic.ini": 1, "malformed.ini": 2}
    assert identical


def test_transformation_laws_over_seeded_samples(capsys):
    t0 = time.monotonic()
    data = np.random.default_rng(0)
    worst_orth = worst_len = worst_round = 0.0
    worst_trace = worst_det = 0.0
    n = 10_000
    for seed in range(n):
        q = fc.observer_stack(fc.random_orthogonal(seed))[0]
        worst_orth = max(worst_orth, float(np.abs(q @ q.T - np.eye(3)).max()))

        v = data.standard_normal(3)
        vs = q @ v
        worst_len = max(
            worst_len, abs(float(np.linalg.norm(vs)) - float(np.linalg.norm(v)))
        )

        h = data.standard_normal((3, 3))
        # the conjugation the checks run; Q^T is the inverse observer
        hs = conjugate_stack(q[None], h[None])[0, 0]
        worst_trace = max(worst_trace, abs(float(np.trace(hs) - np.trace(h))))
        worst_det = max(
            worst_det, abs(float(np.linalg.det(hs) - np.linalg.det(h)))
        )
        back = conjugate_stack(q.T[None], hs[None])[0, 0]
        worst_round = max(worst_round, float(np.abs(back - h).max()))
    elapsed = time.monotonic() - t0

    ok = (
        worst_orth <= 1e-12
        and worst_len <= 1e-12
        and worst_round <= 1e-12
        and worst_trace <= 1e-10
        and worst_det <= 1e-10
        and elapsed < 10.0
    )
    _announce(
        capsys,
        ok,
        f"8/8 transformation laws over {n} seeds: orthogonality {worst_orth:.1e}"
        f"/length {worst_len:.1e}/round-trip {worst_round:.1e} <= 1e-12, trace "
        f"{worst_trace:.1e}/determinant {worst_det:.1e} <= 1e-10 "
        f"({elapsed:.2f}s < 10s)",
    )
    assert worst_orth <= 1e-12
    assert worst_len <= 1e-12
    assert worst_round <= 1e-12
    assert worst_trace <= 1e-10
    assert worst_det <= 1e-10
    assert elapsed < 10.0
