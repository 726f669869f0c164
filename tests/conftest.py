import os
from pathlib import Path

import numpy as np
from hypothesis import settings

from framecheck import (
    LinearConstant,
    LinearTemperature,
    NonlinearAnisotropic,
    NonlinearIsotropic,
)

# reproducible CI: no wall-clock deadlines, no random example order
settings.register_profile("repo", deadline=None, derandomize=True)
settings.load_profile("repo")

# environment for `python -m framecheck` subprocesses: the package is found
# in src/ whether or not it is installed
SRC = str(Path(__file__).resolve().parent.parent / "src")
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p),
}

DIAG123 = np.diag([1.0, 2.0, 3.0])

# one representative per behavior class, used across the suite: spherical
# linear, orthotropic linear, temperature-scaled, gradient-dependent
# isotropic, gradient-dependent anisotropic
MODEL_ROSTER = (
    ("iso_constant", LinearConstant(2.5 * np.eye(3))),
    ("ortho_constant", LinearConstant(DIAG123)),
    ("temp_scaled", LinearTemperature(np.eye(3), (0.0, 1.0))),
    ("nl_isotropic", NonlinearIsotropic(1.0, 2.0)),
    ("nl_anisotropic", NonlinearAnisotropic(DIAG123, 0.5)),
)
