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
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .checks import (
    CheckResult,
    Witness,
    check_frame_indifference,
    check_isotropy,
    check_observer_independence,
    check_symmetry,
    check_zero_map,
)
from .config import GroupSpec, ModelSpec, SuiteConfig
from .groups import ClosureOverflow, SymmetryGroup
from .groups import catalog_lookup, generate_closure
from .models import MODEL_FAMILIES, ConstitutiveModel
from .tensors import observer_stack, random_observers


@dataclass(frozen=True, eq=False)
class SuiteReport:
    config: SuiteConfig
    records: tuple[tuple[str, CheckResult], ...]  # (check name, result), config order

    @property
    def passed(self) -> bool:
        return all(r.passed for _, r in self.records)


def build_model(spec: ModelSpec) -> ConstitutiveModel:
    """The model a spec describes: its family's class, given the spec's
    values for that class's fields."""
    cls = MODEL_FAMILIES[spec.family]
    return cls(**{f.name: getattr(spec, f.name) for f in fields(cls)})


def build_group(spec: GroupSpec) -> SymmetryGroup:
    """Catalog lookup, or finite closure of explicit generators."""
    if isinstance(spec.source, str):
        return catalog_lookup(spec.source)
    return generate_closure(spec.source, max_order=spec.max_order)


def build_observers(cfg: SuiteConfig) -> np.ndarray:
    """The config's observer matrices, or its count of draws, as a stack."""
    if isinstance(cfg.observers, tuple):
        return observer_stack(cfg.observers)
    return random_observers(cfg.observers, cfg.run.seed)


# check name -> (reads the group, run(model, group, observers, cfg)), in
# CHECK_NAMES order.  Each run looks its check up in this module's namespace
# when it is called, so a rebinding of report.check_* is the function the
# suite calls.
_CHECKS = {
    "symmetry": (True, lambda m, g, o, c: check_symmetry(m, g, c)),
    "frame_indifference": (True, lambda m, g, o, c: check_frame_indifference(m, g, o, c)),
    "observer_independence": (False, lambda m, g, o, c: check_observer_independence(m, o, c)),
    "isotropy": (False, lambda m, g, o, c: check_isotropy(m, c)),
    "zero_map": (False, lambda m, g, o, c: check_zero_map(m, c)),
}


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Run the requested checks in config order.

    The group is built lazily on first use.  A GroupSpec's name and generators
    are judged when it is built, so what can still fail is the closure: it
    overflows max_order, an element drifts from orthogonal, or a transpose is
    missing.  Then every group-dependent check gets a could-not-run result
    (max_residual None) and the suite fails; the group-free checks still run.
    """
    model = build_model(cfg.model)
    observers = build_observers(cfg)
    group: SymmetryGroup | None = None
    group_error: str | None = None
    records: list[tuple[str, CheckResult]] = []
    for name in cfg.checks:
        needs_group, run = _CHECKS[name]
        if needs_group and group is None and group_error is None:
            try:
                group = build_group(cfg.group)
            except (ClosureOverflow, ValueError) as exc:
                group_error = f"group construction failed: {exc}"
        if needs_group and group_error is not None:
            result = CheckResult(False, None, 0, None, group_error)
        else:
            result = run(model, group, observers, cfg.run)
        records.append((name, result))
    return SuiteReport(cfg, tuple(records))


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
        "observer": None if w.observer is None else _matrix_json(w.observer),
    }


def _machine_bytes(report: SuiteReport) -> bytes:
    from . import __version__

    payload = {
        "version": __version__,
        "verdict": "pass" if report.passed else "fail",
        "config_text": report.config.to_config_text(),
        "checks": [
            {
                "name": name,
                "passed": r.passed,
                "max_residual": None if r.max_residual is None else float(r.max_residual),
                "samples_used": r.samples_used,
                "witness": _witness_json(r.witness),
                "note": r.note,
            }
            for name, r in report.records
        ],
    }
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _matrix_lines(m, indent="    ") -> list[str]:
    return [indent + " ".join(f"{v:>12.6g}" for v in row) for row in np.asarray(m)]


def _human_bytes(report: SuiteReport) -> bytes:
    cfg = report.config
    out = ["framecheck suite report", ""]
    out.append(f"model family: {cfg.model.family}")
    group = cfg.group.source
    if not isinstance(group, str):
        group = f"closure of {len(group)} generator(s), max_order {cfg.group.max_order}"
    out.append(f"group: {group}")
    out.append(f"seed: {cfg.run.seed}   tol: {cfg.run.tol:g}")
    out.append("")
    name_w = max(len(name) for name, _ in report.records) + 2
    header = f"{'check':<{name_w}} {'status':<7} {'max residual':>13} {'samples':>9}"
    out.append(header)
    out.append("-" * len(header))
    for name, r in report.records:
        status = "PASS" if r.passed else "FAIL"
        residual = "n/a" if r.max_residual is None else f"{r.max_residual:.6g}"
        out.append(f"{name:<{name_w}} {status:<7} {residual:>13} {r.samples_used:>9}")
    notes = [(name, r.note) for name, r in report.records if r.note]
    if notes:
        out.append("")
        out.extend(f"{name}: {note}" for name, note in notes)
    for name, r in report.records:
        if r.witness is None:
            continue
        w = r.witness
        out.append("")
        out.append(f"witness for {name} (residual {r.max_residual:.6g}):")
        out.append("  group element:")
        out.extend(_matrix_lines(w.group_element))
        grad = ", ".join(f"{v:.6g}" for v in w.state.grad_theta)
        out.append(f"  state: theta = {w.state.theta:.6g}, grad_theta = [{grad}]")
        if w.observer is not None:
            out.append("  observer:")
            out.extend(_matrix_lines(w.observer))
    out.append("")
    out.append(f"suite verdict: {'PASS' if report.passed else 'FAIL'}")
    out.append("")
    out.append("resolved configuration:")
    out.extend("  " + line if line else "" for line in cfg.to_config_text().splitlines())
    out.append("")
    return "\n".join(out).encode("utf-8")
