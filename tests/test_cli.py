import ast
import gc
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import framecheck as fc
from conftest import SUBPROCESS_ENV
from framecheck.cli import entry, main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
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


# Runs a launcher as its command line would, and reports on stderr, as one
# JSON line at exit, what it did to the process: OPENBLAS_NUM_THREADS, the
# threads left (None where /proc/self/task is missing), the collections that
# ran before main(), and whether the collector was on when main() opened the
# config.  "console" is the console script's call.
_WATCH = r"""
import atexit, gc, json, os, runpy, sys

launcher, config = sys.argv[1], sys.argv[-1]
seen = {"collections_before_main": 0, "gc_in_main": None}


def in_main(frame):
    while frame is not None:
        code = frame.f_code
        if code.co_name == "main" and code.co_filename.endswith("cli.py"):
            return True
        frame = frame.f_back
    return False


def on_gc(phase, info):
    if phase == "start" and seen["gc_in_main"] is None and not in_main(sys._getframe(1)):
        seen["collections_before_main"] += 1


def on_audit(event, args):
    if event == "open" and args[0] == config and seen["gc_in_main"] is None:
        seen["gc_in_main"] = gc.isenabled()


def report():
    seen["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    tasks = "/proc/self/task"
    seen["threads"] = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
    sys.stderr.write(json.dumps(seen) + "\n")


atexit.register(report)
sys.addaudithook(on_audit)
sys.argv = sys.argv[1:]
gc.collect()
gc.callbacks.append(on_gc)
if launcher == "console":
    from framecheck.__main__ import launch

    launch()
else:
    runpy.run_module(launcher, run_name="__main__", alter_sys=True)
"""


def _watch(launcher, **env):
    """What the launcher did to its process, on the isotropic config."""
    config = str(CONFIGS / "isotropic.ini")
    base = {k: v for k, v in SUBPROCESS_ENV.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", _WATCH, launcher, "run", "--format", "machine", config],
        capture_output=True,
        env={**base, **env},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "isotropic.json").read_bytes()
    return json.loads(proc.stderr)


def _openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas.lower()


LAUNCHERS = ["framecheck", "framecheck.cli", "console"]


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_launchers_pin_openblas_to_one_thread_unless_the_user_set_it(launcher):
    """No product here is large enough for OpenBLAS to thread; its idle
    threads only spin.  A value in the environment is the user's choice."""
    assert _watch(launcher)["blas_threads"] == "1"
    assert _watch(launcher, OPENBLAS_NUM_THREADS="2")["blas_threads"] == "2"


def _imports_numpy(node) -> bool:
    """Whether a statement imports numpy or framecheck, which loads it."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return False
    return any(name.split(".")[0] in ("numpy", "framecheck") for name in names)


@pytest.mark.parametrize("script", ["classify_conductivities.py", "frame_vs_isotropy.py"])
def test_scripts_pin_openblas_before_numpy_loads(script):
    """Each script pins OpenBLAS as the launcher does, in a top-level
    statement before its first import of numpy or framecheck."""
    body = ast.parse((ROOT / "scripts" / script).read_text()).body
    pin = "os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')"
    pins = [i for i, node in enumerate(body) if ast.unparse(node) == pin]
    first = next(i for i, node in enumerate(body) if _imports_numpy(node))
    assert pins and pins[0] < first


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and _openblas()),
    reason="counts the threads of /proc/self/task that OpenBLAS starts",
)
@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_launchers_leave_one_thread(launcher):
    assert _watch(launcher)["threads"] == 1


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_launchers_collect_nothing_during_the_imports_and_run_main_collecting(launcher):
    """The imports of numpy and framecheck run with the collector paused,
    and main() runs with it on."""
    seen = _watch(launcher)
    assert seen["collections_before_main"] == 0
    assert seen["gc_in_main"] is True


def test_library_paths_leave_the_environment_and_the_collector_alone():
    """Only the launcher prepares the process: importing framecheck.cli and
    calling main() or entry() in process set no environment variable and
    leave the collector on."""
    code = """
import gc, os
before = dict(os.environ)
import framecheck.cli
assert framecheck.cli.main(["catalog"]) == 0
try:
    framecheck.cli.entry(["catalog"])
except SystemExit as exc:
    assert exc.code == 0
assert dict(os.environ) == before, set(os.environ.items()) ^ set(before.items())
assert gc.isenabled()
"""
    env = {k: v for k, v in SUBPROCESS_ENV.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_closed_stdout_exits_two_with_one_error_line():
    """A report nobody can read is not a failed check: exit 2, one error
    line and no traceback, also from the flush at interpreter shutdown, and
    also for argparse's --help, which leaves main() by SystemExit.  Block
    buffered, as a user's stdout is, the write fails in the flush; unbuffered
    it fails in the write itself, which argparse would swallow."""
    # block buffered: the shutdown flush has the unwritten report to write
    buffered = {k: v for k, v in SUBPROCESS_ENV.items() if k != "PYTHONUNBUFFERED"}
    unbuffered = {**buffered, "PYTHONUNBUFFERED": "1"}
    runs = (
        ["run", str(CONFIGS / "isotropic.ini")],
        ["--help"], ["run", "--help"], ["catalog", "--help"],
    )
    for env, argv in itertools.product((buffered, unbuffered), runs):
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
        where = (argv, "PYTHONUNBUFFERED" in env)
        assert proc.returncode == 2, where
        assert proc.stderr.startswith(b"error: cannot write the report: "), where
        assert proc.stderr.count(b"\n") == 1, where


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


def test_a_cyclic_group_too_fine_to_close_exits_one(tmp_path, capsysbinary):
    """transverse_z_100000000 would close to the trivial group, under which
    diag(1, 2, 3) passes symmetry: the group check cannot run instead."""
    config = tmp_path / "too_fine.ini"
    config.write_text(
        "[model]\nfamily = linear_constant\nkappa0 = 1 0 0 ; 0 2 0 ; 0 0 3\n"
        "[group]\nname = transverse_z_100000000\n[checks]\nnames = symmetry\n"
    )
    assert main(["run", "--format", "machine", str(config)]) == 1
    (record,) = json.loads(capsysbinary.readouterr().out)["checks"]
    assert (record["passed"], record["max_residual"], record["samples_used"]) == (False, None, 0)
    assert record["note"].startswith("group construction failed: closure of")


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


@pytest.mark.parametrize("key", ["isotropy.sample_count = 64", "symmetry.tol = 1e-8"])
def test_a_per_check_value_exits_two_with_one_error_line(key, tmp_path, capsys):
    """[checks] holds the names alone: every check runs under [run]'s tol,
    and isotropy draws [run]'s sample_count, so a per-check value is an
    unknown key, not an override."""
    config = tmp_path / "per_check.ini"
    config.write_text(
        "[model]\nfamily = linear_constant\nkappa0 = 1 0 0 ; 0 2 0 ; 0 0 3\n"
        f"[checks]\nnames = symmetry isotropy\n{key}\n"
    )
    assert main(["run", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: checks.{key.partition(' ')[0]}: unknown key\n"


@pytest.mark.parametrize(
    "text, where",
    [
        ("[model]\nfamily = linear_constant\nkappa0 1 0 0 ; 0 2 0 ; 0 0 3\n", "[line  3]"),
        ("family = linear_constant\nkappa0 = 1 0 0 ; 0 2 0 ; 0 0 3\n", "line: 1"),
    ],
    ids=["line_without_equals", "no_section_header"],
)
def test_text_that_is_not_ini_exits_two_with_one_error_line(text, where, tmp_path, capsys):
    """configparser spreads these messages over two and three lines; the
    error is one line, and keeps the line number."""
    config = tmp_path / "not_ini.ini"
    config.write_text(text)
    assert main(["run", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert where in err


def test_a_byte_order_mark_changes_no_report_byte(tmp_path, capsysbinary):
    """Windows editors save UTF-8 with a byte order mark first: the config
    reads as it does without one and writes the same machine report."""
    config = tmp_path / "isotropic.ini"
    config.write_bytes(b"\xef\xbb\xbf" + (CONFIGS / "isotropic.ini").read_bytes())
    assert main(["run", "--format", "machine", str(config)]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / "isotropic.json").read_bytes()
