"""Correctness oracle for benchmark operations.

Nothing here calls framecheck.  Verdicts are compared with the table each
workload declares, and every residual a report makes a claim about is
recomputed with plain numpy from the model parameters of the config the
program was given:

    r = max(|flux deficit|_2, |conductivity deficit|_max) / (1 + |q(theta, g)|_2)

A failing check must carry a witness whose recomputed residual is finite,
above the check's tolerance and equal to the reported maximum; a passing
check must report 0 <= max_residual <= tol.  Each function returns a list of
error strings, empty when the operation is correct.
"""

from __future__ import annotations

import configparser
import json
import math

import numpy as np

CHECK_NAMES = (
    "symmetry",
    "frame_indifference",
    "observer_independence",
    "isotropy",
    "zero_map",
)
# Relative agreement required between a recomputed and a reported residual.
AGREE_RTOL = 1e-8


class Model:
    """The conduction law a config describes, evaluated independently."""

    def __init__(self, section):
        self.family = section["family"].strip()
        p = {k: [float(t) for t in v.replace(";", " ").split()] for k, v in section.items() if k != "family"}
        if self.family == "linear_constant":
            k0 = np.array(p["kappa0"]).reshape(3, 3)
            self.kappa = lambda theta, g: k0
        elif self.family == "linear_temperature":
            k0 = np.array(p["kappa0"]).reshape(3, 3)
            coeffs = p["theta_coeffs"]
            self.kappa = lambda theta, g: sum(c * theta**i for i, c in enumerate(coeffs)) * k0
        elif self.family == "nonlinear_isotropic":
            a, b = p["a"][0], p["b"][0]
            self.kappa = lambda theta, g: (a + b * float(g @ g)) * np.eye(3)
        elif self.family == "nonlinear_anisotropic":
            at, c = np.array(p["a_tensor"]).reshape(3, 3), p["c"][0]
            self.kappa = lambda theta, g: at + c * np.outer(g, g)
        else:
            raise ValueError(f"unknown family {self.family!r}")

    def flux(self, theta, g):
        return self.kappa(theta, g) @ g


def read_config(text: str, seed_override: int | None = None) -> dict:
    """The parts of a config the oracle needs: model, tolerances, seed."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    run = cp["run"] if cp.has_section("run") else {}
    checks = cp["checks"] if cp.has_section("checks") else {}
    base_tol = float(run.get("tol", "1e-9"))
    names = checks.get("names", " ".join(CHECK_NAMES)).split()
    return {
        "model": Model(cp["model"]),
        "names": names,
        "tol": {n: float(checks.get(f"{n}.tol", base_tol)) for n in names},
        "seed": seed_override if seed_override is not None else int(run.get("seed", "0")),
    }


def _relative(model, theta, g, flux_dev, kappa_dev):
    q = model.flux(theta, g)
    return max(float(np.linalg.norm(flux_dev)), float(np.max(np.abs(kappa_dev)))) / (
        1.0 + float(np.linalg.norm(q))
    )


def witness_residual(model: Model, check: str, witness: dict) -> float:
    """Recompute a check's residual at the reported element, state and observer."""
    h = np.array(witness["group_element"], dtype=float)
    theta = float(witness["state"]["theta"])
    g = np.array(witness["state"]["grad_theta"], dtype=float)
    q_obs = None if witness["observer"] is None else np.array(witness["observer"], dtype=float)
    k = model.kappa(theta, g)
    if check in ("symmetry", "isotropy"):
        hg = h @ g
        k_h = model.kappa(theta, hg)
        return _relative(model, theta, g, h.T @ (k_h @ hg) - k @ g, h @ k - k_h @ h)
    if check == "observer_independence":
        q = q_obs
        if not np.array_equal(h, q):
            raise ValueError("the witness element must be its observer")
        phys = q.T @ g
        k_phys = model.kappa(theta, phys)
        return _relative(model, theta, g, q @ (k_phys @ phys) - k @ g, q @ k_phys @ q.T - k)
    if check == "frame_indifference":
        q = q_obs
        hg = h @ g
        phys_h = q.T @ (q @ hg)
        flux_back = q.T @ (q @ model.flux(theta, phys_h))
        k_star = q @ model.kappa(theta, q.T @ (q @ g)) @ q.T
        return _relative(model, theta, g, flux_back - model.flux(theta, hg), q.T @ k_star @ q - k)
    if check == "zero_map":
        return float(np.linalg.norm(model.flux(theta, np.zeros(3))))
    raise ValueError(f"unknown check {check!r}")


def check_report(cfg: dict, expected: dict, code: int, stdout: bytes, stderr: bytes) -> list[str]:
    """Verdict oracle and witness re-verification for one CLI operation.

    ``expected`` maps each selected check name to its expected pass/fail.
    """
    errors = []
    want_code = 0 if all(expected.values()) else 1
    if code != want_code:
        errors.append(f"exit code {code}, expected {want_code}")
    try:
        report = json.loads(stdout)
        if report["verdict"] != ("pass" if want_code == 0 else "fail"):
            errors.append(f"verdict {report['verdict']!r} disagrees with the expected table")
        names = [r["name"] for r in report["checks"]]
        if names != list(expected):
            return errors + [f"checks {names}, expected {list(expected)}"]
        for r in report["checks"]:
            errors += _check_record(cfg, expected[r["name"]], r)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        errors.append(f"malformed machine report: {exc!r}")
    return errors


def _check_record(cfg: dict, want: bool, r: dict) -> list[str]:
    name, tol, res = r["name"], cfg["tol"][r["name"]], r["max_residual"]
    errors = []
    if r["passed"] is not want:
        errors.append(f"{name}: passed={r['passed']}, expected {want}")
    if not isinstance(res, (int, float)) or not math.isfinite(res) or res < 0.0:
        return errors + [f"{name}: max_residual {res!r} is not a finite non-negative number"]
    if r["passed"]:
        if res > tol:
            errors.append(f"{name}: passes with max_residual {res!r} above tol {tol!r}")
        if r["witness"] is not None:
            errors.append(f"{name}: passing check carries a witness")
        return errors
    if r["witness"] is None:
        return errors + [f"{name}: failing check carries no witness"]
    try:
        again = witness_residual(cfg["model"], name, r["witness"])
    except (KeyError, TypeError, ValueError) as exc:
        return errors + [f"{name}: unreadable witness: {exc}"]
    if not math.isfinite(again) or again <= tol:
        errors.append(f"{name}: witness residual recomputes to {again!r}, not above tol {tol!r}")
    elif abs(again - res) > AGREE_RTOL * max(1.0, abs(res)):
        errors.append(f"{name}: witness residual recomputes to {again!r}, report says {res!r}")
    return errors


def check_rejected(code: int, stdout: bytes, stderr: bytes) -> list[str]:
    """A config the program must refuse: exit 2, no report, one error line."""
    errors = []
    if code != 2:
        errors.append(f"exit code {code}, expected 2")
    if stdout:
        errors.append("a rejected config printed to stdout")
    lines = stderr.decode("utf-8", "replace").splitlines()
    if len(lines) != 1 or not lines[0].startswith("error:"):
        errors.append(f"stderr is not one 'error:' line: {lines!r}")
    return errors


def check_classify(spectra: dict, per_class: int, code: int, stdout: bytes) -> list[str]:
    """Every draw classified as drawn, and only the spherical ones reduced to
    a scalar, which must be the spectrum's own."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        out = json.loads(stdout)
        tol, draws = float(out["tol"]), out["draws"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable classify output: {exc}"]
    want = [cls for cls in spectra for _ in range(per_class)]
    if [d.get("expected") for d in draws] != want:
        return ["classify output does not cover the seeded batch"]
    errors = []
    for i, d in enumerate(draws):
        spectrum = spectra[d["expected"]]
        k = np.array(d["kappa"], dtype=float)
        if np.max(np.abs(k - k.T)) > 1e-12 or np.max(
            np.abs(np.linalg.eigvalsh(k) - np.sort(spectrum))
        ) > 1e-9:
            errors.append(f"draw {i}: conductivity does not have spectrum {spectrum}")
        if d["label"] != d["expected"]:
            errors.append(f"draw {i}: classified {d['label']}, drawn {d['expected']}")
        spherical = d["expected"] == "isotropic"
        if d["invariant"] is not spherical:
            errors.append(f"draw {i}: scalar reduction says invariant={d['invariant']}")
        res = d["residual"]
        if not isinstance(res, (int, float)) or not math.isfinite(res) or res < 0.0:
            errors.append(f"draw {i}: residual {res!r} is not a finite non-negative number")
        elif (res <= tol) is not spherical:
            errors.append(f"draw {i}: residual {res!r} on the wrong side of tol {tol!r}")
        if spherical and (d["alpha"] is None or abs(d["alpha"] - spectrum[0]) > 1e-12):
            errors.append(f"draw {i}: recovered scalar {d['alpha']!r}, expected {spectrum[0]}")
    return errors


class Determinism:
    """Flags any output that differs from the first one seen for its key."""

    def __init__(self):
        self.first: dict[str, bytes] = {}

    def check(self, key: str, output: bytes) -> list[str]:
        seen = self.first.setdefault(key, output)
        if seen == output:
            return []
        at = next((i for i, (a, b) in enumerate(zip(seen, output)) if a != b), min(len(seen), len(output)))
        return [f"{key}: output differs from the first operation at byte {at}"]
