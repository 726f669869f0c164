import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import framecheck as fc

ROOT = Path(__file__).resolve().parent.parent

# exported names that nothing outside tests/ uses, each with why it stays
TEST_ONLY_EXPORTS: dict[str, str] = {}


def _names_used(path):
    """Every name a module reads, reads as an attribute or imports; its own
    definitions are stores, so they do not count."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_the_package_version_is_the_project_version():
    """pyproject.toml's [project] version and framecheck.__version__ are
    one number: read the line itself, as Python 3.10 has no tomllib."""
    section, versions = None, []
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        if line.startswith("["):
            section = line.strip()
        elif section == "[project]" and re.match(r"version\s*=", line):
            versions.append(line.split("=", 1)[1].strip().strip('"'))
    assert versions == [fc.__version__]


def test_all_names_resolve_and_list_no_submodules():
    assert len(fc.__all__) == len(set(fc.__all__))
    for name in fc.__all__:
        value = getattr(fc, name)
        assert not isinstance(value, types.ModuleType), name
    assert "__version__" in fc.__all__
    for module in ("checks", "config", "groups", "models", "report", "tensors", "cli"):
        assert module not in fc.__all__


def test_every_export_has_a_caller_outside_the_tests():
    """A public name is used by the package itself, a script, the README or
    the benchmark, or it is on TEST_ONLY_EXPORTS with a reason."""
    package = ROOT / "src" / "framecheck"
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*map(_names_used, sources))
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    assert sorted(set(fc.__all__) - used) == sorted(TEST_ONLY_EXPORTS)


def test_every_public_name_is_its_submodules_object():
    """Each name resolves, on first use, to the object its submodule
    defines, and a star import binds exactly __all__."""
    for name in fc.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"framecheck.{fc._MODULE_OF[name]}")
        assert getattr(fc, name) is getattr(module, name), name
    for module in fc._EXPORTS:
        assert getattr(fc, module) is importlib.import_module(f"framecheck.{module}")
        assert module in dir(fc)
    assert set(fc.__all__) <= set(dir(fc))
    namespace = {}
    exec("from framecheck import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(fc.__all__)


# run in a fresh interpreter, where nothing is imported yet
_LAZY_IMPORT = """
import sys
import framecheck
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("framecheck."))
assert not loaded, loaded
import numpy
framecheck.classify_linear_symmetry(4.0 * numpy.eye(3), framecheck.CheckConfig())
loaded = sorted({"framecheck.config", "framecheck.report"} & set(sys.modules))
assert not loaded, loaded
"""


def test_import_framecheck_loads_nothing_heavy():
    """``import framecheck`` loads neither numpy nor a submodule, and the
    classifier loads the modules it uses, not config or report."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _LAZY_IMPORT],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# run in a fresh interpreter: every draw comes from the standard library's
# random.Random, so neither path loads numpy.random
_NO_NUMPY_RANDOM = {
    "cli": """
import sys
from framecheck.cli import main
assert main(["run", "configs/isotropic.ini"]) == 0
""",
    "library": """
import sys
import numpy
import framecheck as fc
cfg = fc.CheckConfig()
r = fc.random_orthogonal(3, proper_only=True)
assert fc.classify_linear_symmetry(r @ numpy.diag([1.0, 2.0, 3.0]) @ r.T, cfg).value == "orthotropic"
assert fc.schur_reduce(2.0 * numpy.eye(3), cfg).is_isotropic_invariant
""",
}


@pytest.mark.parametrize("path", sorted(_NO_NUMPY_RANDOM))
def test_no_draw_imports_numpy_random(path):
    """framecheck run, and the classifier, schur_reduce and random_orthogonal,
    never import numpy.random (about 6 MB and 15 ms at start-up)."""
    script = _NO_NUMPY_RANDOM[path] + 'assert "numpy.random" not in sys.modules\n'
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", script],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
