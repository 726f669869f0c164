"""Constitutive models for rigid heat conductors.

Every model factors the heat flux through a conductivity tensor,

    q = kappa(theta, grad_theta) @ grad_theta

so the zero-gradient state maps to zero flux exactly, in floating point and
not merely to rounding.  Four families cover the cases the checkers need:
constant and temperature-scaled linear conductors, and two gradient-dependent
nonlinear ones (an isotropic scalar law and a rank-one anisotropic update).

A ComponentMap is a model in the components of a stack of observers,
q*(theta, g*) = Q q(theta, Q^T g*) for each observer Q: rotate g* back,
evaluate, rotate the flux forward; the temperature is observer-invariant.
The observers are an (O, 3, 3) observer_stack; one observer is the stack
of one.  Its canonical side, which its batched flux and kappa share, is
the only code that applies this map, and every check but zero_map reads a
law through it, a material symmetry H as the map of H^T (checks.py,
"Folding").  So a wrong rotation there (Q in place of Q^T) fails frame
indifference and observer independence, and reaches symmetry too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Union, get_args

import numpy as np

from .tensors import as_tensor2, as_vec3, conjugate_stack, matvec, transposes


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
# Two flags say which state variables the conductivity reads:
# gradient_dependent, and temperature_dependent, which a family sets False
# only when its kappa gives the same bits at every temperature (the checks
# then sample one temperature and count the whole sweep; see checks.py,
# "Folding").  In every family the gradient enters covariantly,
# kappa(theta, R g) - kappa(theta, 0) = R (kappa(theta, g) - kappa(theta, 0)) R^T
# for every orthogonal R: check_isotropy's certificate on the 24 cubic
# rotations rests on it (see its docstring).
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
    temperature_dependent: ClassVar[bool] = False

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
    temperature_dependent: ClassVar[bool] = True

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
    temperature_dependent: ClassVar[bool] = False

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
    temperature_dependent: ClassVar[bool] = False

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


def kappa_of(model: ConstitutiveModel, z: StatePoint) -> np.ndarray:
    """Conductivity tensor at a state, in the canonical frame: the one-row
    case of model.kappa, so it matches the batched checks bit for bit."""
    return model.kappa(np.array([z.theta]), z.grad_theta[None, :])[0]


def evaluate(model: ConstitutiveModel, z: StatePoint) -> np.ndarray:
    """Heat flux at a state.  By construction this is exactly
    kappa_of(model, z) @ z.grad_theta, bit for bit."""
    return kappa_of(model, z) @ z.grad_theta


@dataclass(frozen=True, eq=False)
class ComponentMap:
    """A constitutive model in the components of O observers at once.

    ``observers`` is an observer_stack (O, 3, 3), or a slice of one, held as
    given and not validated again; one observer is the case O = 1.  flux and
    kappa take T temperatures, (T,), and the observers' components g*,
    observer o's at [o]: kappa takes (O, T, 3), flux (O, ..., T, 3), whose
    batch axes before the states repeat the temperatures.  Observer o's rows are those of its
    own map, bit for bit (tests/test_layout.py).
    """

    model: ConstitutiveModel
    observers: np.ndarray

    def flux(self, thetas: np.ndarray, grads_star: np.ndarray) -> np.ndarray:
        """Observer-frame flux rows Q q(theta, Q^T g*), shaped as grads_star."""
        fluxes = self._canonical(thetas, grads_star)[2]
        # rows of flux @ Q^T are Q flux
        return (fluxes @ transposes(self.observers)).reshape(grads_star.shape)

    def kappa(self, thetas: np.ndarray, grads_star: np.ndarray) -> np.ndarray:
        """Observer-frame conductivities Q kappa(theta, Q^T g*) Q^T for
        (O, T, 3) components: an (O, T, 3, 3) view of a sample-last
        (3, 3, O, T) array."""
        if grads_star.shape[1:-1] != thetas.shape:
            raise ValueError(f"kappa takes (O, {thetas.size}, 3), not {grads_star.shape}")
        return conjugate_stack(self.observers, self._canonical(thetas, grads_star)[1])

    def _canonical(self, thetas: np.ndarray, grads_star: np.ndarray):
        """The canonical side of the map, the law evaluated once: the
        gradients Q^T g*, the conductivities at them and the fluxes
        q(theta, Q^T g*), (O, N, 3) for the N rows of each observer, N a
        multiple of T > 0.  For a gradient-dependent law the gradients and
        conductivities are per row, (O, N, 3) and (O, N, 3, 3).  A law that
        reads no gradient has the same bits at every observer and batch row
        of a state, so its kappa runs once, on the T states: its (T, 3, 3)
        stack is shared by the gradients, (O, N / T, T, 3).  This is the only
        place the checks share a gradient-free law's stack."""
        count, size, shape = len(self.observers), thetas.size, grads_star.shape
        if shape[0] != count or shape[-1] != 3 or size == 0 or grads_star.size // 3 // count % size:
            raise ValueError(f"{shape} do not fit {count} observers at {size} temperatures")
        grads = grads_star.reshape(count, -1, 3) @ self.observers  # rows are Q^T g*
        if not self.model.gradient_dependent:
            kappas = self.model.kappa(thetas, grads[0, :size])
            grads = grads.reshape(count, -1, size, 3)
        else:
            # np.tile copies even when it repeats once
            reps = grads.size // 3 // size
            tiled = thetas if reps == 1 else np.tile(thetas, reps)
            kappas = self.model.kappa(tiled, grads.reshape(-1, 3)).reshape(grads.shape + (3,))
        return grads, kappas, matvec(kappas, grads).reshape(count, -1, 3)
