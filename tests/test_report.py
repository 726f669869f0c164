"""run_suite's check table: one entry per check name, calls looked up at run
time, and one group build per suite."""

import inspect
from pathlib import Path

import pytest

import framecheck as fc
import framecheck.report as report

GOLDEN = Path(__file__).resolve().parent / "golden"
IDENTITY = fc.ModelSpec("linear_constant", kappa0=(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0))


def _suite(*names):
    return fc.SuiteConfig(IDENTITY, checks=names)


def _overflow_config():
    return fc.parse_config((GOLDEN / "group_overflow.ini").read_bytes())


def test_table_keys_are_the_check_names_in_order():
    assert tuple(report._CHECKS) == fc.CHECK_NAMES


def test_suite_calls_the_check_bound_in_the_report_module(monkeypatch):
    """A rebinding of framecheck.report.check_* (as perfbench's tracer makes)
    is the function run_suite calls."""
    stub = fc.CheckResult(True, 0.0, 7, None, "stub")
    calls = []
    monkeypatch.setattr(report, "check_zero_map", lambda *a: calls.append(a) or stub)
    result = fc.run_suite(_suite("zero_map"))
    assert len(calls) == 1
    assert result.records == (("zero_map", stub),)


def test_every_check_runs_under_the_suite_run(monkeypatch):
    """Every check gets the suite's one CheckConfig: no check carries a tol
    or a draw count of its own."""
    cfg = fc.SuiteConfig(IDENTITY, run=fc.CheckConfig(tol=1e-7, seed=5, sample_count=9),
                         observers=2)
    seen = {}
    for name in fc.CHECK_NAMES:
        check = getattr(report, f"check_{name}")

        def recorded(*args, name=name, check=check, **kwargs):
            seen[name] = inspect.signature(check).bind(*args, **kwargs).arguments
            return check(*args, **kwargs)

        monkeypatch.setattr(report, f"check_{name}", recorded)
    suite = fc.run_suite(cfg)
    assert suite.passed
    assert list(seen) == list(fc.CHECK_NAMES)
    assert all(arguments["cfg"] is cfg.run for arguments in seen.values())
    assert list(seen["isotropy"]) == ["model", "cfg"]
    # decided on the 24 cubic rotations, over 3 temperatures of 36 states
    assert dict(suite.records)["isotropy"].samples_used == 24 * 3 * 36


@pytest.mark.parametrize("fails", [False, True], ids=["builds", "raises"])
def test_group_is_built_once_per_suite(fails, monkeypatch):
    cfg = _overflow_config()
    if not fails:
        cfg = fc.SuiteConfig(cfg.model, observers=3)  # the trivial group
    built = []
    # the real function, taken before the patch: fc.build_group, if not yet
    # bound in the lazy package, would resolve to the patch itself
    build = report.build_group

    def counting(spec):
        built.append(spec)
        return build(spec)

    monkeypatch.setattr(report, "build_group", counting)
    fc.run_suite(cfg)
    assert len(built) == 1


def test_failed_group_construction_fails_only_the_group_checks():
    suite = fc.run_suite(_overflow_config())
    assert not suite.passed
    for name, result in suite.records:
        if name in ("symmetry", "frame_indifference"):
            assert (result.passed, result.max_residual, result.samples_used) == (False, None, 0)
            assert result.witness is None
            assert result.note.startswith("group construction failed: closure of")
        else:
            assert result.max_residual is not None, name
            assert result.samples_used > 0, name


def test_unknown_check_name_raises():
    with pytest.raises(ValueError, match="unknown check 'no_such_check'"):
        fc.run_suite(_suite("zero_map", "no_such_check"))


def test_an_unknown_group_name_is_rejected_when_its_spec_is_built():
    """A GroupSpec built in code with a name the catalog lacks is rejected
    when it is built, with parse_config's message, so run_suite never starts
    on it; only a closure that cannot be built is a could-not-run result."""
    for name, message in (
        ("nope", "group.name: nope"),
        ("transverse_z_0", "group.name: transverse order must be >= 1, got 'transverse_z_0'"),
    ):
        with pytest.raises(fc.ValidationError) as err:
            fc.GroupSpec(name)
        assert str(err.value) == message
        with pytest.raises(fc.ValidationError) as err:
            fc.parse_config(f"[model]\nfamily = linear_constant\nkappa0 = 1 0 0 0 1 0 0 0 1\n"
                            f"[group]\nname = {name}\n")
        assert str(err.value) == message
