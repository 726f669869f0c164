"""Golden machine reports: the CLI's bytes for a fixed set of configs.

Each ``tests/golden/<name>.json`` is the ``framecheck run --format machine``
output for one config, and ``catalog.txt`` is the ``framecheck catalog``
output.  Together the configs cover all four model families.  A refactor
must leave these bytes unchanged; a change that moves a verdict, a residual
or a witness on purpose regenerates the file and says why.
"""

from pathlib import Path

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
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_machine_report_matches_golden(name, capsysbinary):
    path, code = CONFIGS[name]
    assert main(["run", "--format", "machine", str(path)]) == code
    assert capsysbinary.readouterr().out == (GOLDEN / f"{name}.json").read_bytes()


def test_golden_configs_cover_every_family():
    families = {
        fc.parse_config(path.read_bytes()).model.family for path, _ in CONFIGS.values()
    }
    assert families == set(fc.MODEL_FAMILIES)


def test_catalog_matches_golden(capsysbinary):
    assert main(["catalog"]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / "catalog.txt").read_bytes()
