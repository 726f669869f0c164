"""Invariance checkers for constitutive mappings.

Material symmetry, isotropy, frame indifference, observer independence of
components, the zero-gradient map, and the constant-map reduction are checked
numerically on a deterministic state sample.  The three headline properties
are deliberately independent checks: a mapping can be frame indifferent and
still anisotropic, and the checkers here make that distinction measurable.

Residual conventions
--------------------
Flux-level residuals use the Euclidean vector norm; conductivity-level
residuals use the max-norm (largest absolute entry).  Each (element, state)
residual is divided by ``1 + |q(state)|_2``, the flux at the untransformed
sampled state, so pass/fail thresholds carry across conductivity magnitudes
while zero-gradient states (where the flux vanishes but the conductivity
deficit is fully visible) stay undamped.  ``schur_reduce`` takes a bare
tensor with no associated state and reports absolute residuals.

State sampling
--------------
Per temperature sample: the zero gradient, the three coordinate axes, and
``gradient_samples`` uniform unit directions.  Families whose conductivity
depends on the gradient get each direction swept at magnitudes 0.1, 1 and 10;
magnitude effects are otherwise decoupled from the rotational checks by
staying on the unit sphere.  Everything is a pure function of the seed, so
check results are bit-reproducible.

Witness reporting returns the single (element, state) pair attaining the
maximal residual; ties break toward the earliest element, then the earliest
state in sample order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .groups import (
    DEFAULT_SAMPLE_COUNT,
    GroupKind,
    SymmetryGroup,
    catalog_lookup,
    group_elements_for_check,
    orthogonal_check_set,
)
from .models import (
    ComponentMap,
    ConstitutiveModel,
    StatePoint,
    evaluate,
    gradient_dependent_kappa,
)
from .models import kappa_of as _kappa_of_single
from .tensors import IDENTITY, ObserverChange, _require_seed, as_tensor2, max_abs

DEFAULT_THETA_SAMPLES = (0.5, 1.0, 300.0)
NONLINEAR_MAGNITUDES = (0.1, 1.0, 10.0)

_GRADIENT_STREAM = 2


class NotSymmetric(ValueError):
    """Raised when a conductivity handed to the classifier is not symmetric.

    No silent symmetrization: a non-symmetric tensor is the caller's bug."""


class LinearSymmetryClass(enum.Enum):
    ISOTROPIC = "isotropic"
    TRANSVERSELY_ISOTROPIC = "transversely_isotropic"
    ORTHOTROPIC = "orthotropic"
    # Reserved for completeness; non-symmetric inputs are rejected with
    # NotSymmetric before classification, so this value is never returned.
    TRICLINIC = "triclinic"


@dataclass(frozen=True)
class CheckConfig:
    """Shared knobs for all checkers.

    tol: residual threshold.  The default leaves about three orders of
    headroom over double-precision conjugation noise.
    theta_samples: temperatures to sweep; the spread covers sub-unit,
    unit and realistic-room-temperature scales.
    gradient_samples: random unit directions per temperature.
    seed: base seed; group sampling, gradient sampling and observer draws
    use disjoint derived streams.
    """

    tol: float = 1e-9
    theta_samples: tuple[float, ...] = DEFAULT_THETA_SAMPLES
    gradient_samples: int = 32
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.tol) or self.tol <= 0.0:
            raise ValueError("tol must be positive and finite")
        thetas = tuple(float(t) for t in self.theta_samples)
        if not thetas:
            raise ValueError("theta_samples must not be empty")
        if not all(np.isfinite(t) and t > 0.0 for t in thetas):
            raise ValueError("theta_samples must be positive finite temperatures")
        object.__setattr__(self, "theta_samples", thetas)
        if int(self.gradient_samples) < 1:
            raise ValueError("gradient_samples must be a positive integer")
        object.__setattr__(self, "gradient_samples", int(self.gradient_samples))
        object.__setattr__(self, "seed", _require_seed(self.seed))


@dataclass(frozen=True, eq=False)
class Witness:
    """The (element, state) pair attaining the maximal residual, plus the
    observer for the observer-dependent checks."""

    group_element: np.ndarray
    state: StatePoint
    observer: Optional[ObserverChange] = None


@dataclass(frozen=True, eq=False)
class CheckResult:
    passed: bool
    max_residual: float
    samples_used: int
    witness: Optional[Witness]
    note: str = ""


class SchurResult(NamedTuple):
    is_isotropic_invariant: bool
    alpha: Optional[float]
    residual: float


# ---------------------------------------------------------------------------
# state sampling and the batched kappa evaluator


@dataclass(eq=False)
class _StateBatch:
    thetas: np.ndarray        # (S,)
    grads: np.ndarray         # (S, 3)
    kappas: np.ndarray        # (S, 3, 3) conductivity at the raw states
    fluxes: np.ndarray        # (S, 3)
    denoms: np.ndarray        # (S,)  1 + |flux|_2
    unit_rows: np.ndarray     # (S,) bool, |grad|_2 == 1
    states: list[StatePoint]


def _kappa_batch(model: ConstitutiveModel, thetas: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Conductivity stacked over states; mirrors kappa_of row by row."""
    n = grads.shape[0]
    fam = model.family
    if fam == "linear_constant":
        return np.broadcast_to(model.kappa0, (n, 3, 3))
    if fam == "linear_temperature":
        from numpy.polynomial import polynomial as npp

        scale = npp.polyval(thetas, model.theta_coeffs)
        return scale[:, None, None] * model.kappa0
    if fam == "nonlinear_isotropic":
        scale = model.a + model.b * np.einsum("si,si->s", grads, grads)
        return scale[:, None, None] * np.eye(3)
    if fam == "nonlinear_anisotropic":
        return model.a_tensor + model.c * np.einsum("si,sj->sij", grads, grads)
    raise TypeError(f"not a constitutive model: {model!r}")


def _unit_directions(cfg: CheckConfig) -> np.ndarray:
    rng = np.random.default_rng([cfg.seed, _GRADIENT_STREAM])
    dirs = [np.eye(3)[i] for i in range(3)]
    while len(dirs) < 3 + cfg.gradient_samples:
        v = rng.standard_normal(3)
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            dirs.append(v / norm)
    return np.array(dirs)


def _sample_states(model: ConstitutiveModel, cfg: CheckConfig) -> _StateBatch:
    dirs = _unit_directions(cfg)
    mags = NONLINEAR_MAGNITUDES if gradient_dependent_kappa(model) else (1.0,)
    theta_rows: list[float] = []
    grad_rows: list[np.ndarray] = []
    for theta in cfg.theta_samples:
        theta_rows.append(theta)
        grad_rows.append(np.zeros(3))
        for mag in mags:
            for d in dirs:
                theta_rows.append(theta)
                grad_rows.append(mag * d)
    thetas = np.array(theta_rows)
    grads = np.array(grad_rows)
    kappas = _kappa_batch(model, thetas, grads)
    fluxes = np.einsum("sij,sj->si", kappas, grads)
    denoms = 1.0 + np.linalg.norm(fluxes, axis=1)
    unit_rows = np.abs(np.linalg.norm(grads, axis=1) - 1.0) <= 1e-12
    states = [StatePoint(t, g) for t, g in zip(theta_rows, grad_rows)]
    return _StateBatch(thetas, grads, kappas, fluxes, denoms, unit_rows, states)


def _symmetry_raw_rows(model, element, batch):
    """Raw residual rows for one group element.

    Returns (flux_raw, kappa_raw, kappa_contracted_raw):
      flux_raw[s]   = | H^T q(theta, H g) - q(theta, g) |_2
      kappa_raw[s]  = | H kappa(theta, g) - kappa(theta, H g) H |_max
      contracted[s] = | (H kappa(theta, g) - kappa(theta, H g) H) g |_2

    The flux-level deficit is exactly the conductivity-level deficit
    contracted with the gradient and rotated, so flux_raw and contracted
    agree to rounding for every state; the matrix form additionally probes
    directions the sampled gradient misses (the zero-gradient state most of
    all).
    """
    h = element
    hg = batch.grads @ h.T
    if gradient_dependent_kappa(model):
        kappas_h = _kappa_batch(model, batch.thetas, hg)
    else:
        kappas_h = batch.kappas
    flux_h = np.einsum("sij,sj->si", kappas_h, hg)
    flux_back = flux_h @ h  # rows are H^T @ flux_h
    flux_raw = np.linalg.norm(flux_back - batch.fluxes, axis=1)
    left = np.einsum("ij,sjk->sik", h, batch.kappas)
    right = np.einsum("sij,jk->sik", kappas_h, h)
    deficit = left - right
    kappa_raw = np.max(np.abs(deficit), axis=(1, 2))
    contracted = np.einsum("sij,sj->si", deficit, batch.grads)
    kappa_contracted_raw = np.linalg.norm(contracted, axis=1)
    return flux_raw, kappa_raw, kappa_contracted_raw


def _run_element_check(model, elements, batch, cfg, note=""):
    best = -1.0
    best_where: tuple[int, int] | None = None
    samples = 0
    for e_idx, h in enumerate(elements):
        flux_raw, kappa_raw, _ = _symmetry_raw_rows(model, h, batch)
        rel = np.maximum(flux_raw, kappa_raw) / batch.denoms
        samples += rel.size
        s_idx = int(np.argmax(rel))
        r = float(rel[s_idx])
        if r > best:
            best = r
            best_where = (e_idx, s_idx)
    passed = best <= cfg.tol
    witness = None
    if not passed:
        e_idx, s_idx = best_where
        witness = Witness(elements[e_idx], batch.states[s_idx])
    return CheckResult(passed, best, samples, witness, note)


# ---------------------------------------------------------------------------
# public checks


def check_symmetry(model: ConstitutiveModel, group: SymmetryGroup, cfg: CheckConfig) -> CheckResult:
    """Does every element H of the group satisfy the symmetry condition
    H^T q(theta, H g) = q(theta, g), equivalently
    H kappa(theta, g) = kappa(theta, H g) H, on the sampled states?

    Both the flux form and the conductivity form are evaluated and the larger
    deficit counts, so constant anisotropy is caught even at the zero-gradient
    state where the flux form is blind.
    """
    elements = group_elements_for_check(group, cfg.seed)
    batch = _sample_states(model, cfg)
    return _run_element_check(model, elements, batch, cfg)


def check_isotropy(
    model: ConstitutiveModel, cfg: CheckConfig, sample_count: int = DEFAULT_SAMPLE_COUNT
) -> CheckResult:
    """Material symmetry against the sampled full orthogonal group.

    Passing is evidence of isotropy (a sampled check cannot certify all of
    the orthogonal group); failing is a proof of anisotropy, and the witness
    element is the counterexample.
    """
    group = catalog_lookup("full_orthogonal", sample_count=sample_count)
    result = check_symmetry(model, group, cfg)
    return replace(
        result,
        note="sampled check: a pass is evidence of isotropy, a fail is a counterexample",
    )


def symmetry_form_residuals(
    model: ConstitutiveModel, group: SymmetryGroup, cfg: CheckConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per-(element, state) relative residuals of the two symmetry forms on
    the unit-gradient states: the flux form, and the conductivity form
    contracted with the gradient.

    The two arrays coincide to floating-point rounding because the flux
    deficit is the rotated contraction of the conductivity deficit; asserting
    their agreement cross-checks that both formulations are implemented
    against the same mapping.
    """
    elements = group_elements_for_check(group, cfg.seed)
    batch = _sample_states(model, cfg)
    mask = batch.unit_rows
    flux_parts = []
    kappa_parts = []
    for h in elements:
        flux_raw, _, contracted_raw = _symmetry_raw_rows(model, h, batch)
        flux_parts.append((flux_raw / batch.denoms)[mask])
        kappa_parts.append((contracted_raw / batch.denoms)[mask])
    return np.concatenate(flux_parts), np.concatenate(kappa_parts)


def check_frame_indifference(
    model: ConstitutiveModel,
    group: SymmetryGroup,
    observers: list[ObserverChange],
    cfg: CheckConfig,
) -> CheckResult:
    """Are the checks themselves observer-stable?

    For every observer Q, group element H and sampled state: the starred
    component map evaluated at Q-rotated components, rotated back with Q^T,
    must reproduce the canonical flux at the H-transformed state; and the
    conductivity components must satisfy kappa = Q^T kappa*(Q g) Q.

    Component maps in this package are all constructed from one tensorial
    mapping, so this holds identically whatever the material symmetry; a
    failure indicates a frame-handling bug, not material anisotropy.  In
    particular it passes for strongly anisotropic conductors, which is the
    point: frame indifference does not imply isotropy.
    """
    elements = group_elements_for_check(group, cfg.seed)
    batch = _sample_states(model, cfg)
    best = -1.0
    best_where: tuple[int, int, int] | None = None
    samples = 0
    for o_idx, obs in enumerate(observers):
        q = obs.q_matrix
        # conductivity form, element-independent: kappa(g) vs Q^T kappa*(Qg) Q
        arg = batch.grads @ q.T
        phys = arg @ q
        kappas_star_inner = _kappa_batch(model, batch.thetas, phys)
        kappa_star = np.einsum("ij,sjk,lk->sil", q, kappas_star_inner, q)
        back = np.einsum("ji,sjk,kl->sil", q, kappa_star, q)
        kappa_rel_rows = np.max(np.abs(batch.kappas - back), axis=(1, 2))
        for e_idx, h in enumerate(elements):
            hg = batch.grads @ h.T
            starred_arg = hg @ q.T
            phys_h = starred_arg @ q
            kappas_h = _kappa_batch(model, batch.thetas, phys_h)
            flux_phys = np.einsum("sij,sj->si", kappas_h, phys_h)
            starred = flux_phys @ q.T  # rows are Q @ flux
            flux_back = starred @ q    # rows are Q^T @ starred
            if gradient_dependent_kappa(model):
                kappas_ref = _kappa_batch(model, batch.thetas, hg)
            else:
                kappas_ref = batch.kappas
            flux_ref = np.einsum("sij,sj->si", kappas_ref, hg)
            flux_raw = np.linalg.norm(flux_back - flux_ref, axis=1)
            rel = np.maximum(flux_raw, kappa_rel_rows) / batch.denoms
            samples += rel.size
            s_idx = int(np.argmax(rel))
            r = float(rel[s_idx])
            if r > best:
                best = r
                best_where = (o_idx, e_idx, s_idx)
    passed = best <= cfg.tol
    witness = None
    if not passed:
        o_idx, e_idx, s_idx = best_where
        witness = Witness(elements[e_idx], batch.states[s_idx], observers[o_idx])
    note = (
        "holds identically for component maps derived from one tensorial "
        "mapping, anisotropic ones included; a failure indicates a "
        "frame-handling bug rather than material anisotropy"
    )
    return CheckResult(passed, best, samples, witness, note)


def check_observer_independence(
    model: ConstitutiveModel, observers: list[ObserverChange], cfg: CheckConfig
) -> CheckResult:
    """Do the canonical and starred component maps agree on identical numeric
    arguments?

    This is the hallmark of isotropy: only an isotropic mapping looks the
    same to every observer component-wise.  Anisotropic conductors fail for
    generic observers even though they are perfectly frame indifferent.
    """
    batch = _sample_states(model, cfg)
    best = -1.0
    best_where: tuple[int, int] | None = None
    samples = 0
    for o_idx, obs in enumerate(observers):
        q = obs.q_matrix
        phys = batch.grads @ q  # rows are Q^T @ g
        kappas_phys = _kappa_batch(model, batch.thetas, phys)
        flux_phys = np.einsum("sij,sj->si", kappas_phys, phys)
        starred = flux_phys @ q.T  # rows are Q @ flux
        flux_raw = np.linalg.norm(starred - batch.fluxes, axis=1)
        kappa_star = np.einsum("ij,sjk,lk->sil", q, kappas_phys, q)
        kappa_raw = np.max(np.abs(kappa_star - batch.kappas), axis=(1, 2))
        rel = np.maximum(flux_raw, kappa_raw) / batch.denoms
        samples += rel.size
        s_idx = int(np.argmax(rel))
        r = float(rel[s_idx])
        if r > best:
            best = r
            best_where = (o_idx, s_idx)
    passed = best <= cfg.tol
    witness = None
    if not passed:
        o_idx, s_idx = best_where
        witness = Witness(
            observers[o_idx].q_matrix, batch.states[s_idx], observers[o_idx]
        )
    return CheckResult(passed, best, samples, witness)


def check_zero_map(model: ConstitutiveModel, cfg: CheckConfig) -> CheckResult:
    """The zero-gradient state must map to zero flux at every sampled
    temperature.  Because every family factors through a conductivity tensor,
    the residual is exactly zero, not merely small."""
    best = -1.0
    best_state = None
    for theta in cfg.theta_samples:
        state = StatePoint(theta, np.zeros(3))
        r = float(np.linalg.norm(evaluate(model, state)))
        if r > best:
            best = r
            best_state = state
    passed = best <= cfg.tol
    witness = None if passed else Witness(IDENTITY, best_state)
    return CheckResult(passed, best, len(cfg.theta_samples), witness)


def schur_reduce(
    l, cfg: CheckConfig, sample_count: int = DEFAULT_SAMPLE_COUNT
) -> SchurResult:
    """Is a constant tensor invariant under orthogonal conjugation?

    Tests R^T L R = L over the sampled-plus-adversarial orthogonal set.  The
    only tensors commuting with the whole orthogonal group are the multiples
    of the identity, so on a pass the scalar is recovered as trace(L) / 3 and
    the reconstruction |L - alpha 1| is verified against the same tolerance.
    Residuals here are absolute: there is no state to normalize against.
    """
    m = as_tensor2(l)
    rots = np.stack(orthogonal_check_set(cfg.seed, sample_count))
    conj = np.einsum("rji,jk,rkl->ril", rots, m, rots)
    residual = float(np.max(np.abs(conj - m)))
    if residual > cfg.tol:
        return SchurResult(False, None, residual)
    alpha = float(np.trace(m)) / 3.0
    deviation = max_abs(m - alpha * np.eye(3))
    if deviation > cfg.tol:
        return SchurResult(False, None, max(residual, deviation))
    return SchurResult(True, alpha, residual)


def classify_linear_symmetry(kappa0, cfg: CheckConfig) -> LinearSymmetryClass:
    """Classify a constant symmetric conductivity by eigenvalue multiplicity:
    {3} isotropic, {2,1} transversely isotropic, {1,1,1} orthotropic.

    The result is cross-validated by rotating the tensor into its eigenframe
    and running check_symmetry against the matching catalog group.
    """
    k = as_tensor2(kappa0)
    skew = max_abs(k - k.T)
    if skew > 1e-9:
        raise NotSymmetric(
            f"conductivity must be symmetric within 1e-9 (skew part {skew:.3g})"
        )
    eigvals, _ = np.linalg.eigh(k)
    gap_tol = 1e-8 * (1.0 + float(np.max(np.abs(eigvals))))
    low_pair = eigvals[1] - eigvals[0] <= gap_tol
    high_pair = eigvals[2] - eigvals[1] <= gap_tol
    if low_pair and high_pair:
        label = LinearSymmetryClass.ISOTROPIC
        aligned = np.diag(eigvals)
        group = catalog_lookup("full_orthogonal")
    elif low_pair or high_pair:
        label = LinearSymmetryClass.TRANSVERSELY_ISOTROPIC
        # put the unpaired eigenvalue on the z axis
        if low_pair:
            order = [0, 1, 2]
        else:
            order = [1, 2, 0]
        aligned = np.diag(eigvals[order])
        group = catalog_lookup("transverse_z_8")
    else:
        label = LinearSymmetryClass.ORTHOTROPIC
        aligned = np.diag(eigvals)
        group = catalog_lookup("orthotropic")
    from .models import LinearConstant

    verdict = check_symmetry(LinearConstant(aligned), group, cfg)
    if not verdict.passed:
        raise RuntimeError(
            f"classification cross-check failed for {label.value}: "
            f"residual {verdict.max_residual:.3g}"
        )
    return label
