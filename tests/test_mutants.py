"""The mutation gate's table stays applicable.  ``scripts/mutants.py`` runs
the tests once per mutant; these tests only match its rows against the
source and its killing tests against the ones pytest collects, and run no
test suite."""

import importlib.util
from pathlib import Path

import framecheck as fc

ROOT = Path(__file__).resolve().parent.parent


def _gate():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_snippet_matches_the_source_exactly_once():
    assert _gate().problems() == []


def test_every_check_has_a_mutant_the_tests_must_kill():
    gate = _gate()
    killable = {m.name.split(".")[0] for m in gate.MUTANTS if not m.equivalent}
    assert set(fc.CHECK_NAMES) <= killable


def test_every_killing_test_exists():
    """Each live row's killing test is collected by the gate's full run, so
    running it first can only spare that run, never replace it."""
    gate = _gate()
    assert gate.missing_killers() == []
    stale = gate.MUTANTS[0]._replace(killer="tests/test_cli.py::test_no_such_test")
    excluded = stale._replace(killer="tests/test_mutants.py::test_every_killing_test_exists")
    assert gate.missing_killers(mutants=(stale, excluded)) == sorted(
        [stale.killer, excluded.killer]
    )


def test_a_snippet_that_does_not_match_once_is_reported():
    gate = _gate()
    row = gate.MUTANTS[0]
    moved = row._replace(snippet=row.snippet + "# moved\n")
    common = row._replace(name="common", snippet="import ")
    unjudged = row._replace(killer=None)
    found = gate.problems(mutants=(moved, common, unjudged))
    assert found[0] == f"{row.name}: snippet occurs 0 times in {row.path}"
    assert found[1].startswith("common: snippet occurs ")
    assert found[2] == f"{row.name}: must name a killing test or an equivalence, not both"
    assert len(found) == 3
