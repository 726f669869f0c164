"""The oracle must flag every kind of wrong output the benchmark can meet.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402


def _framecheck(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "framecheck", *args], capture_output=True, env=env, cwd=ROOT, timeout=120
    )


@pytest.fixture(scope="module")
def anisotropic():
    path = ROOT / "configs" / "anisotropic.ini"
    proc = _framecheck("run", "--format", "machine", "--seed", "7", str(path))
    cfg = oracle.read_config(path.read_text(), 7)
    return cfg, proc


def _check(cfg, code, report) -> list[str]:
    return oracle.check_report(cfg, run.CANNED["anisotropic"], code, report, b"")


def _edit(report: bytes, fn) -> bytes:
    payload = json.loads(report)
    fn(payload)
    return json.dumps(payload).encode()


def test_real_report_passes(anisotropic):
    cfg, proc = anisotropic
    assert proc.returncode == 1
    assert _check(cfg, proc.returncode, proc.stdout) == []


def test_flipped_verdict_is_flagged(anisotropic):
    cfg, proc = anisotropic

    def flip(p):
        p["checks"][2]["passed"] = True  # observer_independence

    errors = _check(cfg, proc.returncode, _edit(proc.stdout, flip))
    assert any("observer_independence: passed=True" in e for e in errors)


def test_wrong_exit_code_is_flagged(anisotropic):
    cfg, proc = anisotropic
    assert any("exit code 0" in e for e in _check(cfg, 0, proc.stdout))


IDENTITY = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize(
    "index, forge",
    [
        (3, lambda w: w.update(group_element=IDENTITY)),  # isotropy
        (3, lambda w: w["state"].update(grad_theta=[1.0, 0.0, 0.0])),
        (2, lambda w: w.update(observer=IDENTITY)),  # observer_independence
        (2, lambda w: w.update(group_element=IDENTITY)),
        (2, lambda w: w["state"].update(grad_theta=[0.5, -0.25, 2.0])),
    ],
)
def test_forged_witness_is_flagged(anisotropic, index, forge):
    cfg, proc = anisotropic
    name = oracle.CHECK_NAMES[index]

    def edit(p):
        forge(p["checks"][index]["witness"])

    errors = _check(cfg, proc.returncode, _edit(proc.stdout, edit))
    assert any(e.startswith(f"{name}: ") and "witness" in e for e in errors)


def test_sentinel_and_non_finite_residuals_are_flagged(anisotropic):
    cfg, proc = anisotropic
    for bad in (-1.0, float("nan"), 1e-3):
        def edit(p, bad=bad):
            p["checks"][0]["max_residual"] = bad  # symmetry, a passing check

        errors = _check(cfg, proc.returncode, _edit(proc.stdout, edit))
        assert any(e.startswith("symmetry: ") for e in errors), bad


def test_one_byte_change_is_flagged(anisotropic):
    _, proc = anisotropic
    det = oracle.Determinism()
    assert det.check("anisotropic", proc.stdout) == []
    assert det.check("anisotropic", proc.stdout) == []
    changed = bytearray(proc.stdout)
    changed[len(changed) // 2] ^= 1
    assert det.check("anisotropic", bytes(changed)) != []


def test_malformed_rejection():
    proc = _framecheck("run", "--format", "machine", str(ROOT / "configs" / "malformed.ini"))
    assert oracle.check_rejected(proc.returncode, proc.stdout, proc.stderr) == []
    assert oracle.check_rejected(0, proc.stdout, proc.stderr) != []
    assert oracle.check_rejected(2, b"{}", proc.stderr) != []
    assert oracle.check_rejected(2, b"", proc.stderr + b"more\n") != []


def test_classify_output_is_checked():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "classify", "3"],
        capture_output=True, env=env, cwd=ROOT, timeout=120,
    )
    args = (run.SPECTRA, run.PER_CLASS, proc.returncode)
    assert oracle.check_classify(*args, proc.stdout) == []
    good = json.loads(proc.stdout)
    for edit in (
        lambda d: d.update(label="orthotropic"),
        lambda d: d.update(invariant=False),
        lambda d: d.update(alpha=2.5),
        lambda d: d.update(kappa=[[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.5]]),
    ):
        bad = copy.deepcopy(good)
        edit(bad["draws"][0])  # an isotropic draw
        assert oracle.check_classify(*args, json.dumps(bad).encode()) != []
