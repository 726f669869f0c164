"""Numerical checks separating frame indifference from isotropy in heat
conduction laws.

The library represents constitutive mappings for the heat flux in factored
form q = kappa(theta, grad theta) @ grad theta and checks three independent
properties numerically: invariance under a material symmetry group, frame
indifference of the component representation, and isotropy (symmetry under
the full orthogonal group).  A strongly anisotropic conductor passes the
frame indifference check and fails the isotropy check, which is the point.

The package is lazy: ``import framecheck`` loads no submodule and not numpy.
A public name, or a submodule name such as ``framecheck.checks``, imports its
submodule on first access (PEP 562), so a caller pays only for the modules it
uses.
"""

from importlib import import_module as _import_module

__version__ = "0.4.0"

# submodule -> the public names it defines
_EXPORTS = {
    "checks": (
        "DEFAULT_SAMPLE_COUNT", "CheckConfig", "CheckResult",
        "LinearSymmetryClass", "NotSymmetric", "SchurResult", "Witness",
        "check_frame_indifference", "check_isotropy",
        "check_observer_independence", "check_symmetry", "check_zero_map",
        "classify_linear_symmetry", "schur_reduce",
    ),
    "config": (
        "CHECK_NAMES", "GroupSpec", "ModelSpec", "ParseError", "SuiteConfig",
        "ValidationError", "parse_config",
    ),
    "groups": (
        "CATALOG_SUMMARY", "ClosureOverflow", "SymmetryGroup",
        "UnknownGroupName", "adversarial_elements", "catalog_lookup",
        "generate_closure", "orthogonal_check_set",
    ),
    "models": (
        "MODEL_FAMILIES", "ComponentMap", "ConstitutiveModel",
        "LinearConstant", "LinearTemperature", "NonlinearAnisotropic",
        "NonlinearIsotropic", "StatePoint", "evaluate", "kappa_of",
    ),
    "report": (
        "SuiteReport", "build_group", "build_model", "build_observers",
        "emit_report", "run_suite",
    ),
    "tensors": (
        "IDENTITY", "INVERSION", "ROT_X_90", "ROT_X_180", "ROT_Y_90",
        "ROT_Y_180", "ROT_Z_90", "ROT_Z_180", "as_tensor2", "as_vec3",
        "max_abs", "observer_stack", "random_observers", "random_orthogonal",
        "rotation_about",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# the public names; the submodules are attributes of the package too, but not
# part of its star-import surface
__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name):
    """Import the submodule that ``name`` is, or that defines it, and bind
    the name here, so the next access is a plain global lookup."""
    if name in _EXPORTS:
        value = _import_module(f"{__name__}.{name}")
    elif name in _MODULE_OF:
        value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
