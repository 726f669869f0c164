"""Golden machine reports: the CLI's bytes for a fixed set of configs.

Each ``tests/golden/<name>.json`` is the ``framecheck run --format machine``
output for one config, and ``<name>.txt`` the human-format output where
there is one.  ``catalog.txt`` is the ``framecheck catalog`` output,
``demo.txt`` the ``framecheck demo`` output, and ``classify.json`` is
``json.dumps(classify_draws(1, 20), indent=2) + "\n"`` from
``scripts/classify_conductivities.py``.  Together the configs cover all four model families.  A refactor
must leave these bytes unchanged; a change that moves a verdict, a residual
or a witness on purpose regenerates the file and says why.
"""

import importlib.util
import json
import os
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import framecheck as fc
from framecheck.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CONFIGS = {
    "isotropic": (ROOT / "configs" / "isotropic.ini", 0),
    "anisotropic": (ROOT / "configs" / "anisotropic.ini", 1),
    "heavy": (GOLDEN / "heavy.ini", 1),
    "big_group": (GOLDEN / "big_group.ini", 1),
    "nonlinear_isotropic": (GOLDEN / "nonlinear_isotropic.ini", 0),
    "theta_order": (GOLDEN / "theta_order.ini", 1),
    "merged_generators": (GOLDEN / "merged_generators.ini", 1),
    "group_overflow": (GOLDEN / "group_overflow.ini", 1),
    "full_orthogonal": (GOLDEN / "full_orthogonal.ini", 1),
}

# configs whose human-format report is pinned too
HUMAN = ("anisotropic", "group_overflow")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_machine_report_matches_golden(name, capsysbinary):
    path, code = CONFIGS[name]
    assert main(["run", "--format", "machine", str(path)]) == code
    assert capsysbinary.readouterr().out == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", HUMAN)
def test_human_report_matches_golden(name, capsysbinary):
    path, code = CONFIGS[name]
    assert main(["run", str(path)]) == code
    assert capsysbinary.readouterr().out == (GOLDEN / f"{name}.txt").read_bytes()


def test_each_verdict_turns_at_its_golden_residual():
    """A tol equal to a check's golden max_residual passes and the next float
    below it fails, so the verdict is max_residual <= tol: for the
    anisotropic golden's two failing checks and its passing ~1e-15 frame
    indifference, each run alone at that tol."""
    cfg = fc.parse_config(CONFIGS["anisotropic"][0].read_bytes())
    golden = json.loads((GOLDEN / "anisotropic.json").read_bytes())["checks"]
    positive = {c["name"]: c["max_residual"] for c in golden if c["max_residual"] > 0}
    assert set(positive) == {"frame_indifference", "observer_independence", "isotropy"}
    for name, value in positive.items():
        for tol, passed in ((value, True), (float(np.nextafter(value, 0.0)), False)):
            alone = replace(cfg, checks=(name,), run=replace(cfg.run, tol=tol))
            ((_, result),) = fc.run_suite(alone).records
            assert result.max_residual == value, name
            assert result.passed is passed, (name, tol)


def test_the_configured_sampled_group_is_the_isotropy_checks():
    """[group] name = full_orthogonal asks for symmetry under the full
    orthogonal group, which is isotropy: the symmetry record is the
    isotropy record, key for key, and the shipped law fails both on the
    cubic rotations."""
    cfg = fc.parse_config(CONFIGS["full_orthogonal"][0].read_bytes())
    assert cfg.checks == ("symmetry", "isotropy")
    symmetry, isotropy = json.loads(fc.emit_report(fc.run_suite(cfg), "machine"))["checks"]
    assert symmetry.pop("name") == "symmetry" and isotropy.pop("name") == "isotropy"
    assert symmetry == isotropy
    assert symmetry["passed"] is False and symmetry["witness"] is not None
    assert symmetry["note"].startswith("fails on the 24 cubic rotations")


def test_golden_configs_cover_every_family():
    families = {
        fc.parse_config(path.read_bytes()).model.family for path, _ in CONFIGS.values()
    }
    assert families == set(fc.MODEL_FAMILIES)


def test_catalog_matches_golden(capsysbinary):
    assert main(["catalog"]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / "catalog.txt").read_bytes()


def test_demo_matches_golden(capsysbinary):
    assert main(["demo"]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / "demo.txt").read_bytes()


def _load(path):
    """The module at path, loaded as a script's importer would; what it sets
    in os.environ, as a script pins OpenBLAS, is undone after."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


# the goldens with a check that could not run: its group was never built
COULD_NOT_RUN = ("group_overflow", "merged_generators")
REPORTS = sorted(p.stem for p in GOLDEN.glob("*.json") if p.stem != "classify")


@pytest.mark.parametrize("name", REPORTS)
def test_the_benchmark_oracle_accepts_every_golden_report(name):
    """perfbench's oracle, which calls no framecheck code, reads each golden
    against its own config_text: every failing witness recomputes above its
    tol and equal to the report, and every passing maximum is at most its
    tol.  The one error it may give is for a check that could not run,
    whose max_residual is null."""
    oracle = _load(ROOT / "perfbench" / "oracle.py")
    data = (GOLDEN / f"{name}.json").read_bytes()
    report = json.loads(data)
    expected = {r["name"]: r["passed"] for r in report["checks"]}
    cfg = oracle.read_config(report["config_text"])
    errors = oracle.check_report(cfg, expected, CONFIGS[name][1], data, b"")
    null = [r["name"] for r in report["checks"] if r["max_residual"] is None]
    assert errors == [f"{n}: max_residual None is not a finite non-negative number" for n in null]
    assert bool(null) is (name in COULD_NOT_RUN)


def test_classify_draws_match_golden():
    """Every draw's label and schur_reduce fields, to the last bit of alpha
    and of the residual, which is relative to the tensor's largest entry:
    the benchmark's oracle checks only which side of the tolerance a
    residual falls on."""
    script = _load(ROOT / "scripts" / "classify_conductivities.py")
    text = json.dumps(script.classify_draws(1, 20), indent=2) + "\n"
    assert text.encode() == (GOLDEN / "classify.json").read_bytes()
