"""Constitutive models for rigid heat conductors.

Every model factors the heat flux through a conductivity tensor,

    q = kappa(theta, grad_theta) @ grad_theta

so the zero-gradient state maps to zero flux exactly, in floating point and
not merely to rounding.  Four families cover the cases the checkers need:
constant and temperature-scaled linear conductors, and two gradient-dependent
nonlinear ones (an isotropic scalar law and a rank-one anisotropic update).

A ComponentMap pairs a model with an observer change and evaluates the same
physical mapping in the observer's components: rotate the handed-in
components back to the canonical frame, evaluate there, rotate the result
forward.  Temperature is observer-invariant and passes through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np
from numpy.polynomial import polynomial as npp

from .tensors import ObserverChange, as_tensor2, as_vec3


@dataclass(frozen=True, eq=False)
class StatePoint:
    """State of a material point: absolute temperature and its gradient."""

    theta: float
    grad_theta: np.ndarray

    def __post_init__(self):
        t = float(self.theta)
        if not np.isfinite(t) or t <= 0.0:
            raise ValueError("theta must be a positive finite temperature")
        object.__setattr__(self, "theta", t)
        object.__setattr__(self, "grad_theta", as_vec3(self.grad_theta))


@dataclass(frozen=True, eq=False)
class LinearConstant:
    """kappa(theta, g) = kappa0."""

    kappa0: np.ndarray
    family: ClassVar[str] = "linear_constant"

    def __post_init__(self):
        object.__setattr__(self, "kappa0", as_tensor2(self.kappa0))


@dataclass(frozen=True, eq=False)
class LinearTemperature:
    """kappa(theta, g) = (sum_k c_k theta^k) * kappa0."""

    kappa0: np.ndarray
    theta_coeffs: tuple[float, ...]
    family: ClassVar[str] = "linear_temperature"

    def __post_init__(self):
        object.__setattr__(self, "kappa0", as_tensor2(self.kappa0))
        coeffs = tuple(float(c) for c in self.theta_coeffs)
        if not coeffs:
            raise ValueError("theta_coeffs needs at least one coefficient")
        if not all(np.isfinite(c) for c in coeffs):
            raise ValueError("theta_coeffs must be finite")
        object.__setattr__(self, "theta_coeffs", coeffs)


@dataclass(frozen=True, eq=False)
class NonlinearIsotropic:
    """kappa(theta, g) = (a + b * |g|^2) * identity."""

    a: float
    b: float
    family: ClassVar[str] = "nonlinear_isotropic"

    def __post_init__(self):
        for field in ("a", "b"):
            v = float(getattr(self, field))
            if not np.isfinite(v):
                raise ValueError(f"{field} must be finite")
            object.__setattr__(self, field, v)


@dataclass(frozen=True, eq=False)
class NonlinearAnisotropic:
    """kappa(theta, g) = a_tensor + c * outer(g, g).

    The rank-one update transforms covariantly under rotations, so this
    family is isotropy-compatible exactly when a_tensor is a multiple of the
    identity.
    """

    a_tensor: np.ndarray
    c: float
    family: ClassVar[str] = "nonlinear_anisotropic"

    def __post_init__(self):
        object.__setattr__(self, "a_tensor", as_tensor2(self.a_tensor))
        v = float(self.c)
        if not np.isfinite(v):
            raise ValueError("c must be finite")
        object.__setattr__(self, "c", v)


ConstitutiveModel = Union[
    LinearConstant, LinearTemperature, NonlinearIsotropic, NonlinearAnisotropic
]

MODEL_FAMILIES: dict[str, type] = {
    cls.family: cls
    for cls in (LinearConstant, LinearTemperature, NonlinearIsotropic, NonlinearAnisotropic)
}


def gradient_dependent_kappa(model: ConstitutiveModel) -> bool:
    """True when kappa varies with the gradient (checkers then sweep several
    gradient magnitudes instead of staying on the unit sphere)."""
    return isinstance(model, (NonlinearIsotropic, NonlinearAnisotropic))


def kappa_of(model: ConstitutiveModel, z: StatePoint) -> np.ndarray:
    """Conductivity tensor at a state, in the canonical frame."""
    if isinstance(model, LinearConstant):
        return model.kappa0
    if isinstance(model, LinearTemperature):
        scale = float(npp.polyval(z.theta, model.theta_coeffs))
        return scale * model.kappa0
    if isinstance(model, NonlinearIsotropic):
        g = z.grad_theta
        return (model.a + model.b * float(g @ g)) * np.eye(3)
    if isinstance(model, NonlinearAnisotropic):
        g = z.grad_theta
        return model.a_tensor + model.c * np.outer(g, g)
    raise TypeError(f"not a constitutive model: {model!r}")


def evaluate(model: ConstitutiveModel, z: StatePoint) -> np.ndarray:
    """Heat flux at a state.  By construction this is exactly
    kappa_of(model, z) @ z.grad_theta, bit for bit."""
    return kappa_of(model, z) @ z.grad_theta


@dataclass(frozen=True, eq=False)
class ComponentMap:
    """A constitutive model as seen by one observer."""

    model: ConstitutiveModel
    observer: ObserverChange


def _canonical_state(cm: ComponentMap, components) -> StatePoint:
    theta_star, grad_star = components
    # theta is observer-invariant; only the gradient components rotate back.
    return StatePoint(float(theta_star), cm.observer.q_matrix.T @ as_vec3(grad_star))


def evaluate_components(cm: ComponentMap, components) -> np.ndarray:
    """Flux components in the observer frame for observer-frame state
    components ``(theta, grad)``."""
    q = cm.observer.q_matrix
    return q @ evaluate(cm.model, _canonical_state(cm, components))


def kappa_components(cm: ComponentMap, components) -> np.ndarray:
    """Conductivity components in the observer frame: Q kappa Q^T at the
    rotated-back state."""
    q = cm.observer.q_matrix
    return q @ kappa_of(cm.model, _canonical_state(cm, components)) @ q.T
