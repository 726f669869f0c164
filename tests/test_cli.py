import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import framecheck as fc
from conftest import SUBPROCESS_ENV
from framecheck.cli import entry, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

RECORD_KEYS = {"name", "passed", "max_residual", "samples_used", "witness", "note"}


def test_exit_code_zero_for_passing_suite(capsysbinary):
    assert main(["run", str(CONFIGS / "isotropic.ini")]) == 0
    out = capsysbinary.readouterr().out
    assert b"suite verdict: PASS" in out


def test_exit_code_one_for_failing_suite(capsysbinary):
    assert main(["run", str(CONFIGS / "anisotropic.ini")]) == 1
    out = capsysbinary.readouterr().out
    assert b"suite verdict: FAIL" in out
    assert b"witness" in out


def test_exit_code_two_for_malformed_config(capsys):
    assert main(["run", str(CONFIGS / "malformed.ini")]) == 2
    assert "kappa0" in capsys.readouterr().err


def test_exit_code_two_for_missing_file(capsys):
    assert main(["run", str(CONFIGS / "does_not_exist.ini")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_machine_report_schema(capsysbinary):
    code = main(["run", str(CONFIGS / "anisotropic.ini"), "--format", "machine"])
    assert code == 1
    payload = json.loads(capsysbinary.readouterr().out)
    assert sorted(payload.keys()) == ["checks", "config_text", "verdict", "version"]
    assert payload["verdict"] == "fail"
    assert payload["version"] == fc.__version__
    names = [c["name"] for c in payload["checks"]]
    assert names == list(fc.CHECK_NAMES)
    for record in payload["checks"]:
        assert set(record.keys()) == RECORD_KEYS


def test_machine_witness_block_for_failing_isotropy(capsysbinary):
    main(["run", str(CONFIGS / "anisotropic.ini"), "--format", "machine"])
    payload = json.loads(capsysbinary.readouterr().out)
    by_name = {c["name"]: c for c in payload["checks"]}
    iso = by_name["isotropy"]
    assert not iso["passed"]
    w = iso["witness"]
    assert len(w["group_element"]) == 3
    assert all(len(row) == 3 for row in w["group_element"])
    assert w["state"]["theta"] > 0
    assert len(w["state"]["grad_theta"]) == 3
    assert w["observer"] is None
    # passing checks carry no witness
    assert by_name["zero_map"]["witness"] is None
    # observer-dependent failures carry the observer matrix
    oi = by_name["observer_independence"]
    assert len(oi["witness"]["observer"]) == 3


def test_config_echo_round_trips(capsysbinary):
    main(["run", str(CONFIGS / "isotropic.ini"), "--format", "machine"])
    payload = json.loads(capsysbinary.readouterr().out)
    echoed = fc.parse_config(payload["config_text"])
    original = fc.parse_config((CONFIGS / "isotropic.ini").read_text())
    assert echoed == original


def test_reports_are_byte_identical_across_runs(capsysbinary):
    main(["run", str(CONFIGS / "anisotropic.ini"), "--format", "machine"])
    first = capsysbinary.readouterr().out
    main(["run", str(CONFIGS / "anisotropic.ini"), "--format", "machine"])
    second = capsysbinary.readouterr().out
    assert first == second


def test_flag_overrides_beat_config(capsysbinary):
    # a tolerance looser than the worst residual turns the failing suite green
    code = main(["run", str(CONFIGS / "anisotropic.ini"), "--tol", "3.0"])
    assert code == 0
    out = capsysbinary.readouterr().out
    assert b"suite verdict: PASS" in out
    # and the resolved config block reflects the override
    assert b"tol = 3.0" in out


def test_seed_override_changes_draws_not_verdict(capsysbinary):
    assert main(["run", str(CONFIGS / "anisotropic.ini"), "--seed", "9"]) == 1
    out1 = capsysbinary.readouterr().out
    assert main(["run", str(CONFIGS / "anisotropic.ini"), "--seed", "10"]) == 1
    out2 = capsysbinary.readouterr().out
    assert out1 != out2


def test_bad_flag_values_exit_two(capsys):
    # one error line that names the flag, as for --tol
    for seed in ("-1", str(2**64)):
        assert main(["run", str(CONFIGS / "isotropic.ini"), "--seed", seed]) == 2, seed
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --seed ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    # the rule run.tol follows in a config file: positive and finite; the
    # --tol=VALUE form keeps argparse from reading -inf as an option
    for tol in ("0", "inf", "-inf", "nan", "1e309"):
        assert main(["run", str(CONFIGS / "isotropic.ini"), f"--tol={tol}"]) == 2, tol
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --tol must be positive and finite\n"


def test_catalog_lists_groups_and_families(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name, _ in fc.CATALOG_SUMMARY:
        assert name in out
    for family in fc.MODEL_FAMILIES:
        assert family in out


def test_demo_contrasts_the_two_conductors(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert out.count("frame indifference: PASS") == 2
    assert "isotropy:           FAIL" in out
    assert "isotropy:           PASS" in out


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "framecheck", "catalog"],
        capture_output=True,
        env=SUBPROCESS_ENV,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "full_orthogonal" in proc.stdout


@pytest.mark.parametrize("launcher", ["framecheck", "framecheck.cli"])
@pytest.mark.parametrize(
    "config",
    sorted(GOLDEN.glob("*.ini")) + sorted(CONFIGS.glob("*.ini")),
    ids=lambda path: path.name,
)
def test_launchers_agree_with_main(launcher, config, capsysbinary):
    """``python -m framecheck`` and ``python -m framecheck.cli`` go through
    ``entry()``; each gives the bytes and exit code of in-process main()."""
    argv = ["run", "--format", "machine", str(config)]
    code = main(argv)
    out, err = capsysbinary.readouterr()
    proc = subprocess.run(
        [sys.executable, "-m", launcher, *argv],
        capture_output=True,
        env=SUBPROCESS_ENV,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    if config.name == "malformed.ini":
        assert code == 2 and out == b""
        assert err.startswith(b"error: ") and err.count(b"\n") == 1


def test_closed_stdout_exits_two_with_one_error_line():
    """A report nobody can read is not a failed check: exit 2, one error
    line and no traceback, also from the flush at interpreter shutdown, and
    also for argparse's --help, which leaves main() by SystemExit."""
    # stdout block-buffered, as a user's is, so the shutdown flush has
    # the unwritten report to write
    env = {k: v for k, v in SUBPROCESS_ENV.items() if k != "PYTHONUNBUFFERED"}
    for argv in (
        ["run", str(CONFIGS / "isotropic.ini")],
        ["--help"],
        ["run", "--help"],
        ["catalog", "--help"],
    ):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "framecheck", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith(b"error: cannot write the report: "), argv
        assert proc.stderr.count(b"\n") == 1, argv


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["run", "--help"], 0), (["bogus"], 2), (["run"], 2)],
    ids=["help", "run-help", "unknown-command", "missing-config"],
)
def test_entry_exits_as_argparse_does_with_stdout_open(argv, code, capsys):
    """entry() takes argparse's exit code: 0 after --help, 2 on a usage
    error, with its usage on stderr."""
    try:
        with pytest.raises(SystemExit) as exited:
            entry(argv)
    finally:
        gc.unfreeze()
    out, err = capsys.readouterr()
    assert exited.value.code == code
    if code == 0:
        assert out.startswith("usage: framecheck")
    else:
        assert "error:" in err


def test_entry_freezes_the_heap(capsys):
    before = gc.get_freeze_count()
    try:
        with pytest.raises(SystemExit) as exited:
            entry(["catalog"])
        frozen = gc.get_freeze_count()
    finally:
        gc.unfreeze()
    assert exited.value.code == 0
    assert frozen > before


def test_main_leaves_the_heap_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert main(["catalog"]) == 0
    assert gc.get_freeze_count() == before


def test_non_finite_conductivity_exits_one(tmp_path, capsysbinary):
    config = tmp_path / "overflow.ini"
    config.write_text(
        "[model]\nfamily = linear_temperature\n"
        "kappa0 = 1 0 0 ; 0 2 0 ; 0 0 3\ntheta_coeffs = 0 0 1e308\n"
        "[run]\nobservers = 5\nsample_count = 8\n"
    )
    code = main(["run", "--format", "machine", str(config)])
    assert code == 1
    out, err = capsysbinary.readouterr()
    # overflow is a verdict, not a numpy warning on stderr
    assert err == b""
    report = json.loads(out)
    assert report["verdict"] == "fail"
    for record in report["checks"]:
        assert record["passed"] is False, record["name"]
        assert record["max_residual"] == float("inf"), record["name"]


def test_overflowing_generator_exits_two_with_one_error_line(tmp_path):
    """A 1e200-scale generator is a config error, reported on one line, and
    no numpy warning escapes even when warnings are errors."""
    config = tmp_path / "overflow_generator.ini"
    config.write_text(
        "[model]\nfamily = linear_constant\nkappa0 = 1 0 0 ; 0 2 0 ; 0 0 3\n"
        "[group]\ngenerators = 1e200 0 0 0 1e200 0 0 0 1e200\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "framecheck", "run", str(config)],
        capture_output=True,
        env={**SUBPROCESS_ENV, "PYTHONWARNINGS": "error::RuntimeWarning"},
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: group.generators: matrix is not orthogonal within 1e-09\n"


def test_generator_off_by_1e7_exits_two_with_one_error_line(tmp_path, capsys):
    """Not within the closure's 1e-9: a config error (exit 2), not a suite
    whose group checks could not run (exit 1)."""
    config = tmp_path / "skewed_generator.ini"
    config.write_text(
        "[model]\nfamily = linear_constant\nkappa0 = 1 0 0 ; 0 2 0 ; 0 0 3\n"
        "[group]\ngenerators = 1e-7 -1 0 ; 1 0 0 ; 0 0 1\n"
    )
    assert main(["run", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: group.generators: matrix is not orthogonal within 1e-09\n"


def test_observer_off_by_1e8_exits_two_with_one_error_line(tmp_path, capsys):
    """An observer 1e-8 off orthogonal is no change of observer: under it
    the isotropic 2 I failed frame indifference (4e-8) and observer
    independence (2e-8), since the round trip Q^T Q misses by about 1e-8.
    It is a config error (exit 2).  A rotation written out at full precision
    still parses, and the isotropic law passes both checks under it."""
    law = (
        "[model]\nfamily = linear_constant\nkappa0 = 2 0 0 ; 0 2 0 ; 0 0 2\n"
        "[checks]\nnames = frame_indifference observer_independence\n"
    )
    config = tmp_path / "skewed_observer.ini"
    config.write_text(law + "[run]\nobservers = 1e-8 -1 0 ; 1 0 0 ; 0 0 1\n")
    assert main(["run", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: run.observers: matrix is not orthogonal within 1e-12\n"
    rotation = " ".join(repr(float(x)) for x in fc.rotation_about((1, 2, 3), 0.7).flat)
    config.write_text(law + f"[run]\nobservers = {rotation}\n")
    assert main(["run", "--format", "machine", str(config)]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["passed"]) for c in checks] == [
        ("frame_indifference", True), ("observer_independence", True)
    ]
    assert max(c["max_residual"] for c in checks) < 1e-14
