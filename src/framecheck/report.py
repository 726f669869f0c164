"""Suite runner and report emission.

run_suite executes the checks requested by a SuiteConfig against freshly
built model, group and observer objects, and emit_report renders the result.
The machine format is stable JSON: keys sorted, two-space indent, no
timestamps or environment echo, so identical configs produce byte-identical
reports.  Each check record carries exactly the keys
name / passed / max_residual / samples_used / witness / note;
max_residual is null only when the check could not run at all (for example
the group closure overflowed), which also fails the suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .checks import (
    CheckConfig,
    Witness,
    check_frame_indifference,
    check_isotropy,
    check_observer_independence,
    check_symmetry,
    check_zero_map,
)
from .config import CONFIG_ORTH_TOL, GroupSpec, ModelSpec, SuiteConfig
from .groups import ClosureOverflow, SymmetryGroup, catalog_lookup, generate_closure
from .models import MODEL_FAMILIES, ConstitutiveModel
from .tensors import ObserverChange, random_observers


@dataclass(frozen=True, eq=False)
class CheckRecord:
    name: str
    passed: bool
    max_residual: Optional[float]
    samples_used: int
    witness: Optional[Witness]
    note: str = ""


@dataclass(frozen=True, eq=False)
class SuiteReport:
    config: SuiteConfig
    records: tuple[CheckRecord, ...]
    passed: bool


def build_model(spec: ModelSpec) -> ConstitutiveModel:
    """The model a spec describes: its family's class, given the spec's
    values for that class's fields."""
    cls = MODEL_FAMILIES[spec.family]
    return cls(**{f.name: getattr(spec, f.name) for f in fields(cls)})


def build_group(spec: GroupSpec, sample_count: int) -> SymmetryGroup:
    """Catalog lookup, or finite closure of explicit generators."""
    if spec.generators is not None:
        return generate_closure(spec.generators, max_order=spec.max_order)
    return catalog_lookup(spec.name, sample_count=sample_count)


def build_observers(cfg: SuiteConfig) -> list[ObserverChange]:
    if cfg.observer_matrices is not None:
        return [ObserverChange(m, orth_tol=CONFIG_ORTH_TOL) for m in cfg.observer_matrices]
    return random_observers(cfg.observer_count, cfg.seed)


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Run the requested checks in config order.

    The group is built lazily on first use; if its construction fails, every
    group-dependent check gets a could-not-run record (max_residual None) and
    the suite fails, while the group-free checks still run.
    """
    model = build_model(cfg.model)
    observers = build_observers(cfg)
    base = CheckConfig(
        tol=cfg.tol,
        theta_samples=cfg.theta_samples,
        gradient_samples=cfg.gradient_samples,
        seed=cfg.seed,
    )
    group: SymmetryGroup | None = None
    group_error: str | None = None
    records: list[CheckRecord] = []
    for req in cfg.checks:
        check_cfg = base if req.tol is None else replace(base, tol=req.tol)
        if req.name in ("symmetry", "frame_indifference"):
            if group is None and group_error is None:
                try:
                    group = build_group(cfg.group, cfg.sample_count)
                except (ClosureOverflow, ValueError) as exc:
                    group_error = str(exc)
            if group_error is not None:
                records.append(
                    CheckRecord(
                        req.name, False, None, 0, None,
                        f"group construction failed: {group_error}",
                    )
                )
                continue
        if req.name == "symmetry":
            result = check_symmetry(model, group, check_cfg)
        elif req.name == "frame_indifference":
            result = check_frame_indifference(model, group, observers, check_cfg)
        elif req.name == "observer_independence":
            result = check_observer_independence(model, observers, check_cfg)
        elif req.name == "isotropy":
            count = req.sample_count if req.sample_count is not None else cfg.sample_count
            result = check_isotropy(model, check_cfg, sample_count=count)
        elif req.name == "zero_map":
            result = check_zero_map(model, check_cfg)
        else:
            # parse_config validates names; direct construction can miss
            raise ValueError(f"unknown check {req.name!r}")
        # a record is the check's result under the check's config name
        records.append(CheckRecord(req.name, **vars(result)))
    return SuiteReport(cfg, tuple(records), all(r.passed for r in records))


def emit_report(report: SuiteReport, format: str = "human") -> bytes:
    if format == "machine":
        return _machine_bytes(report)
    if format == "human":
        return _human_bytes(report)
    raise ValueError(f"unknown report format {format!r}")


def _matrix_json(m) -> list[list[float]]:
    return [[float(x) for x in row] for row in np.asarray(m)]


def _witness_json(w: Optional[Witness]):
    if w is None:
        return None
    return {
        "group_element": _matrix_json(w.group_element),
        "state": {
            "theta": float(w.state.theta),
            "grad_theta": [float(x) for x in w.state.grad_theta],
        },
        "observer": None if w.observer is None else _matrix_json(w.observer.q_matrix),
    }


def _machine_bytes(report: SuiteReport) -> bytes:
    from . import __version__

    payload = {
        "version": __version__,
        "verdict": "pass" if report.passed else "fail",
        "config_text": report.config.to_config_text(),
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "max_residual": None if r.max_residual is None else float(r.max_residual),
                "samples_used": r.samples_used,
                "witness": _witness_json(r.witness),
                "note": r.note,
            }
            for r in report.records
        ],
    }
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _matrix_lines(m, indent="    ") -> list[str]:
    return [indent + " ".join(f"{v:>12.6g}" for v in row) for row in np.asarray(m)]


def _human_bytes(report: SuiteReport) -> bytes:
    cfg = report.config
    out = ["framecheck suite report", ""]
    out.append(f"model family: {cfg.model.family}")
    if cfg.group.generators is not None:
        out.append(
            f"group: closure of {len(cfg.group.generators)} generator(s), "
            f"max_order {cfg.group.max_order}"
        )
    else:
        out.append(f"group: {cfg.group.name}")
    out.append(f"seed: {cfg.seed}   base tol: {cfg.tol:g}")
    out.append("")
    name_w = max(len(r.name) for r in report.records) + 2
    header = f"{'check':<{name_w}} {'status':<7} {'max residual':>13} {'samples':>9}"
    out.append(header)
    out.append("-" * len(header))
    for r in report.records:
        status = "PASS" if r.passed else "FAIL"
        residual = "n/a" if r.max_residual is None else f"{r.max_residual:.6g}"
        out.append(f"{r.name:<{name_w}} {status:<7} {residual:>13} {r.samples_used:>9}")
    notes = [r for r in report.records if r.note]
    if notes:
        out.append("")
        for r in notes:
            out.append(f"{r.name}: {r.note}")
    for r in report.records:
        if r.witness is None:
            continue
        w = r.witness
        out.append("")
        out.append(f"witness for {r.name} (residual {r.max_residual:.6g}):")
        out.append("  group element:")
        out.extend(_matrix_lines(w.group_element))
        grad = ", ".join(f"{v:.6g}" for v in w.state.grad_theta)
        out.append(f"  state: theta = {w.state.theta:.6g}, grad_theta = [{grad}]")
        if w.observer is not None:
            out.append("  observer:")
            out.extend(_matrix_lines(w.observer.q_matrix))
    out.append("")
    out.append(f"suite verdict: {'PASS' if report.passed else 'FAIL'}")
    out.append("")
    out.append("resolved configuration:")
    out.extend("  " + line if line else "" for line in cfg.to_config_text().splitlines())
    out.append("")
    return "\n".join(out).encode("utf-8")
