"""Numerical checks separating frame indifference from isotropy in heat
conduction laws.

The library represents constitutive mappings for the heat flux in factored
form q = kappa(theta, grad theta) @ grad theta and checks three independent
properties numerically: invariance under a material symmetry group, frame
indifference of the component representation, and isotropy (symmetry under
the full orthogonal group).  A strongly anisotropic conductor passes the
frame indifference check and fails the isotropy check, which is the point.
"""

from types import ModuleType as _ModuleType

from .checks import (
    CheckConfig,
    CheckResult,
    LinearSymmetryClass,
    NotSymmetric,
    SchurResult,
    Witness,
    check_frame_indifference,
    check_isotropy,
    check_observer_independence,
    check_symmetry,
    check_zero_map,
    classify_linear_symmetry,
    schur_reduce,
)
from .config import (
    CHECK_NAMES,
    CheckRequest,
    GroupSpec,
    ModelSpec,
    ParseError,
    SuiteConfig,
    ValidationError,
    parse_config,
)
from .groups import (
    CATALOG_SUMMARY,
    DEFAULT_SAMPLE_COUNT,
    ClosureOverflow,
    GroupKind,
    SymmetryGroup,
    UnknownGroupName,
    adversarial_elements,
    catalog_lookup,
    generate_closure,
    group_elements_for_check,
    orthogonal_check_set,
)
from .models import (
    MODEL_FAMILIES,
    ComponentMap,
    ConstitutiveModel,
    LinearConstant,
    LinearTemperature,
    NonlinearAnisotropic,
    NonlinearIsotropic,
    StatePoint,
    evaluate,
    kappa_of,
)
from .report import (
    SuiteReport,
    build_group,
    build_model,
    build_observers,
    emit_report,
    run_suite,
)
from .tensors import (
    IDENTITY,
    INVERSION,
    ROT_X_90,
    ROT_X_180,
    ROT_Y_90,
    ROT_Y_180,
    ROT_Z_90,
    ROT_Z_180,
    as_tensor2,
    as_vec3,
    is_orthogonal,
    max_abs,
    observer_stack,
    random_observers,
    random_orthogonal,
    rotation_about,
)

__version__ = "0.1.0"

# every public name imported above; the submodules are attributes of the
# package too, but not part of its star-import surface
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
) + ["__version__"]
