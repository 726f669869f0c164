import os
from pathlib import Path

import numpy as np
from hypothesis import settings

from framecheck import (
    LinearConstant,
    LinearTemperature,
    NonlinearAnisotropic,
    NonlinearIsotropic,
    checks,
    orthogonal_check_set,
)
from framecheck.tensors import matvec, row_norms

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


def check_elements(group, cfg):
    """The stack that symmetry rows run over for ``group``: a finite group's
    own, or, for the sampled full orthogonal group, the cfg.sample_count
    Haar draws and the adversarial set of orthogonal_check_set."""
    if group.stack is not None:
        return group.stack
    return orthogonal_check_set(cfg.seed, cfg.sample_count)


def symmetry_form_residuals(model, group, cfg):
    """Per-(element, state) relative residuals of the two symmetry forms on
    the unit-gradient states, from the rows the symmetry kernel reduces
    (checks._symmetry_rows) over check_elements(group, cfg): the flux form,
    and the conductivity form contracted with the gradient.  Each element's
    row covers every configured temperature, a temperature-independent law's
    first one repeated.

    The two arrays coincide to floating-point rounding because the flux
    deficit is the rotated contraction of the conductivity deficit;
    asserting their agreement cross-checks that both formulations are
    implemented against the same mapping.
    """
    elements = check_elements(group, cfg)
    batch = checks._sample_states(model, cfg)
    unit = np.abs(np.linalg.norm(batch.grads, axis=1) - 1.0) <= 1e-12
    flux, kappa = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for _, flux_raw, deficit in checks._symmetry_rows(model, elements, batch):
            contracted = row_norms(matvec(deficit.transpose(0, 3, 1, 2), batch.grads))
            for out, raw in ((flux, flux_raw), (kappa, contracted)):
                out.append(np.tile((raw / batch.denoms)[:, unit], batch.repeat).ravel())
    return np.concatenate(flux), np.concatenate(kappa)
