import ast
import re
import types
from pathlib import Path

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
