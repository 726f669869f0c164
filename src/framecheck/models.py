"""Constitutive models for rigid heat conductors.

Every model factors the heat flux through a conductivity tensor,

    q = kappa(theta, grad_theta) @ grad_theta

so the zero-gradient state maps to zero flux exactly, in floating point and
not merely to rounding.  Four families cover the cases the checkers need:
constant and temperature-scaled linear conductors, and two gradient-dependent
nonlinear ones (an isotropic scalar law and a rank-one anisotropic update).

A ComponentMap is a model in one observer's components, q*(theta, g*) =
Q q(theta, Q^T g*): rotate g* back, evaluate, rotate the flux forward; the
temperature is observer-invariant.  Its batched flux and kappa are the only
code that applies this map; the observer checks run through them, so a wrong
rotation there (Q in place of Q^T) fails frame indifference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Union, get_args

import numpy as np

from .tensors import ObserverChange, as_tensor2, as_vec3, conjugate_stack, matvec


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


# Each family is one class: its config name, its law as the catalog prints
# it, its parameters (the dataclass fields) and its batched conductivity.
# kappa(thetas, grads) takes S states as a (S,) temperature array and a
# (S, 3) gradient array and returns the (S, 3, 3) conductivity stack as a
# view of a C-contiguous, or for a constant tensor broadcast, (3, 3, S)
# array: the checks work sample last (see checks.py, "Layout"), so the stack
# reaches them without a copy.  Each family builds its stack with products
# and sums of single entries, never a sum over components, so every entry
# has the bits of its sample-first construction.


@dataclass(frozen=True, eq=False)
class LinearConstant:
    """kappa(theta, g) = kappa0."""

    kappa0: np.ndarray
    family: ClassVar[str] = "linear_constant"
    law: ClassVar[str] = "q = kappa0 @ g with a constant tensor kappa0"
    gradient_dependent: ClassVar[bool] = False

    def __post_init__(self):
        object.__setattr__(self, "kappa0", as_tensor2(self.kappa0))

    def kappa(self, thetas: np.ndarray, grads: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.kappa0[:, :, None], (3, 3, grads.shape[0])).transpose(2, 0, 1)


@dataclass(frozen=True, eq=False)
class LinearTemperature:
    """kappa(theta, g) = (sum_k c_k theta^k) * kappa0."""

    kappa0: np.ndarray
    theta_coeffs: tuple[float, ...]
    family: ClassVar[str] = "linear_temperature"
    law: ClassVar[str] = "q = p(theta) * kappa0 @ g, p polynomial"
    gradient_dependent: ClassVar[bool] = False

    def __post_init__(self):
        object.__setattr__(self, "kappa0", as_tensor2(self.kappa0))
        coeffs = tuple(float(c) for c in self.theta_coeffs)
        if not coeffs:
            raise ValueError("theta_coeffs needs at least one coefficient")
        if not all(np.isfinite(c) for c in coeffs):
            raise ValueError("theta_coeffs must be finite")
        object.__setattr__(self, "theta_coeffs", coeffs)

    def kappa(self, thetas: np.ndarray, grads: np.ndarray) -> np.ndarray:
        # Horner's rule, written out as numpy.polynomial.polynomial.polyval
        # runs it, so the bits are its own
        coeffs = self.theta_coeffs
        scale = coeffs[-1] + thetas * 0
        for c in coeffs[-2::-1]:
            scale = c + scale * thetas
        return (self.kappa0[:, :, None] * scale).transpose(2, 0, 1)


@dataclass(frozen=True, eq=False)
class NonlinearIsotropic:
    """kappa(theta, g) = (a + b * |g|^2) * identity."""

    a: float
    b: float
    family: ClassVar[str] = "nonlinear_isotropic"
    law: ClassVar[str] = "q = (a + b*|g|^2) * g"
    gradient_dependent: ClassVar[bool] = True

    def __post_init__(self):
        for field in ("a", "b"):
            v = float(getattr(self, field))
            if not np.isfinite(v):
                raise ValueError(f"{field} must be finite")
            object.__setattr__(self, field, v)

    def kappa(self, thetas: np.ndarray, grads: np.ndarray) -> np.ndarray:
        scale = self.a + self.b * np.einsum("si,si->s", grads, grads)
        return (np.eye(3)[:, :, None] * scale).transpose(2, 0, 1)


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
    law: ClassVar[str] = "q = (a_tensor + c * outer(g, g)) @ g"
    gradient_dependent: ClassVar[bool] = True

    def __post_init__(self):
        object.__setattr__(self, "a_tensor", as_tensor2(self.a_tensor))
        v = float(self.c)
        if not np.isfinite(v):
            raise ValueError("c must be finite")
        object.__setattr__(self, "c", v)

    def kappa(self, thetas: np.ndarray, grads: np.ndarray) -> np.ndarray:
        # built in place; the bits of
        # a_tensor + c * einsum("si,sj->sij", grads, grads)
        g = np.ascontiguousarray(grads.T)
        out = g[:, None] * g[None, :]
        out *= self.c
        out += self.a_tensor[:, :, None]
        return out.transpose(2, 0, 1)


ConstitutiveModel = Union[
    LinearConstant, LinearTemperature, NonlinearIsotropic, NonlinearAnisotropic
]

MODEL_FAMILIES: dict[str, type] = {cls.family: cls for cls in get_args(ConstitutiveModel)}


def gradient_dependent_kappa(model: ConstitutiveModel) -> bool:
    """True when kappa varies with the gradient (checkers then sweep several
    gradient magnitudes instead of staying on the unit sphere)."""
    return model.gradient_dependent


def _one_row(z: StatePoint) -> tuple[np.ndarray, np.ndarray]:
    return np.array([z.theta]), z.grad_theta[None, :]


def kappa_of(model: ConstitutiveModel, z: StatePoint) -> np.ndarray:
    """Conductivity tensor at a state, in the canonical frame: the one-row
    case of model.kappa, so it matches the batched checks bit for bit."""
    return model.kappa(*_one_row(z))[0]


def evaluate(model: ConstitutiveModel, z: StatePoint) -> np.ndarray:
    """Heat flux at a state.  By construction this is exactly
    kappa_of(model, z) @ z.grad_theta, bit for bit."""
    return kappa_of(model, z) @ z.grad_theta


@dataclass(frozen=True, eq=False)
class ComponentMap:
    """A constitutive model as seen by one observer; flux and kappa take S
    observer-frame states, (S,) temperatures and (S, 3) components g*."""

    model: ConstitutiveModel
    observer: ObserverChange

    def _canonical(self, thetas: np.ndarray, grads_star: np.ndarray):
        grads = grads_star @ self.observer.q_matrix  # rows are Q^T g*
        return grads, self.model.kappa(thetas, grads)

    def flux(self, thetas: np.ndarray, grads_star: np.ndarray) -> np.ndarray:
        """Observer-frame flux rows Q q(theta, Q^T g*), (S, 3)."""
        grads, kappas = self._canonical(thetas, grads_star)
        # rows of flux @ Q^T are Q flux; with a transposed view of Q numpy's
        # one-row matmul takes another BLAS path and differs in the last bit
        q_t = np.ascontiguousarray(self.observer.q_matrix.T)
        return matvec(kappas, grads) @ q_t

    def kappa(self, thetas: np.ndarray, grads_star: np.ndarray) -> np.ndarray:
        """Observer-frame conductivities Q kappa(theta, Q^T g*) Q^T, (S, 3, 3)."""
        return conjugate_stack(self.observer.q_matrix, self._canonical(thetas, grads_star)[1])


def evaluate_components(cm: ComponentMap, components) -> np.ndarray:
    """Flux components in the observer frame for observer-frame state
    components ``(theta, grad)``: the one-row case of cm.flux."""
    return cm.flux(*_one_row(StatePoint(*components)))[0]


def kappa_components(cm: ComponentMap, components) -> np.ndarray:
    """Conductivity components in the observer frame, Q kappa Q^T at the
    rotated-back state: the one-row case of cm.kappa."""
    return cm.kappa(*_one_row(StatePoint(*components)))[0]
