"""The tracer's counts must match what the program itself reports.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_counts_match_the_report(tmp_path):
    spans = tmp_path / "spans.json"
    config = ROOT / "configs" / "anisotropic.ini"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "trace", str(spans), "cli", "run", "--format", "machine", "--seed", "3", str(config)],
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    traced = json.loads(spans.read_text())
    assert traced["missing"] == []
    counts = traced["counts"]
    report = json.loads(proc.stdout)
    for check in report["checks"]:
        assert counts[f"checks.{check['name']}.samples"] == check["samples_used"]
    observers, order = counts["tensors.observer_count"], counts["groups.order"]
    assert counts["checks.frame_indifference.trips"] == observers * order
    assert counts["checks.observer_independence.trips"] == observers
    assert counts["checks.symmetry.trips"] == order
    assert counts["checks.zero_map.trips"] == 3
    assert counts["report.bytes"] == len(proc.stdout)
    # check_isotropy calls check_symmetry: that span nests inside isotropy's,
    # and its samples and trips count as isotropy's (checked above)
    nested = [row for row in traced["spans"] if row[0] == "checks.symmetry" and row[3] >= 0]
    assert any(traced["spans"][row[3]][0] == "checks.isotropy" for row in nested)
