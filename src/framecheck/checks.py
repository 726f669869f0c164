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
sampled state, so zero-gradient states (where the flux vanishes but the
conductivity deficit is fully visible) stay undamped.  The threshold is
relative only for fluxes well above unit size: below it the denominator is
about 1 and the test is absolute, so a small enough anisotropic
conductivity passes (``LinearConstant(1e-10 * diag(1, 2, 3))`` passes
isotropy; ROADMAP item 4).  ``schur_reduce`` takes a bare tensor with no
associated state and reports absolute residuals.

State sampling
--------------
Per temperature sample: the zero gradient, the three coordinate axes, and
``gradient_samples`` uniform unit directions.  Families whose conductivity
depends on the gradient get each direction swept at magnitudes 0.1, 1 and 10;
magnitude effects are otherwise decoupled from the rotational checks by
staying on the unit sphere.  Everything is a pure function of the seed, so
check results are bit-reproducible.

Every check turns its residuals into a verdict through one reducer,
``_worst``: the witness is the single (observer, element, state) sample
attaining the maximal residual, ties breaking toward the earliest observer or
element, then the earliest state in sample order.  A non-finite residual
counts as infinite, so it always fails the check and becomes the witness.
Only the witness's StatePoint is ever built.

Folding
-------
A law that does not depend on the temperature (``temperature_dependent``
False: every family but LinearTemperature) gives every configured temperature
the first one's rows, bit for bit.  Its states are sampled at the first
temperature only, and ``_worst`` counts each row once per configured
temperature, so ``samples_used`` still counts the whole sweep.  The first
temperature's rows come first in the sweep and ties break toward the
earliest sample, so the maximum and witness are the sweep's.  zero_map
still evaluates every temperature.

The symmetry and frame-indifference checks take the group elements in blocks
of about ``_FOLD_STATES`` states and do each block's arithmetic in one array
operation, not one per element.  When the conductivity depends on the
temperature alone, the symmetry check's conductivity deficit
``H kappa - kappa H`` depends only on the element and the temperature, so it
is computed once per (element, sampled temperature) and expanded to the
states.

The two observer checks stack their observers the same way: they build one
ComponentMap per run of consecutive observers, of at most ``_FOLD_STATES``
states, and apply it to the whole run at once.  Observer independence runs
both of its forms that way, frame indifference its conductivity form.  Frame
indifference's flux form takes one observer's map at a time against blocks
of consecutive group elements, of at most ``_FOLD_STATES`` states.  A law
whose conductivity does not depend on the gradient (``gradient_dependent``
False) has the same conductivity at every rotated gradient Q^T g*, bit for
bit, so ComponentMap evaluates it once, on the S sampled states, and
broadcasts that stack over the observers and elements.

Each (observer, element) row is still reduced on its own, with one
``np.argmax``, so the folds change no residual, witness or sample count.

Layout
------
Conductivity stacks stay sample last, (3, 3, S), from the law to the
residual, so numpy's inner loop spans the samples instead of a 3-long
component axis.  ``model.kappa`` builds its stack that way and hands it out
as an (S, 3, 3) view; the checks read it through a transposed view, with no
copy between the law and the conjugation Q kappa Q^T
(``tensors.conjugate_stack``), the matvec kappa g (``tensors.matvec``), the
symmetry deficit ``H kappa - kappa H`` (``_deficit``), the flux-residual
norms (``tensors.row_norms``) and the max-norm of conductivity residuals.
A stack of O observers' conductivities is (3, 3, O, S) in memory, handed out
as an (O, S, 3, 3) view; a law's (S, 3, 3) stack that every observer shares
is broadcast, not copied.  Vector rows are (O, ..., S, 3): observer first,
then any batch axis (the group elements), then the states.
The rule is that a layout change moves no sum: each kernel gives the bits of
its sample-first einsum, and a stacked kernel gives each observer the bits
of its own one-observer call.  An einsum keeps its operands and summed
indices, only permuted or given an observer axis.  A written-out
contraction is allowed only where a layout test holds it to the einsum bit
for bit, as ``tests/test_layout.py`` does for the matvec, whose sum
``tensors.matvec`` spells out in einsum's order, for the row norms, for
the stacked ComponentMap against a per-observer map written with einsums,
and for ``schur_reduce``'s conjugation on ``conjugate_stack``;
``np.add.reduce`` over the nine products of a conjugation, for one, adds in
another order and is not used.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .groups import (
    DEFAULT_SAMPLE_COUNT,
    SymmetryGroup,
    catalog_lookup,
    group_elements_for_check,
    orthogonal_check_set,
)
from .models import (
    ComponentMap,
    ConstitutiveModel,
    LinearConstant,
    StatePoint,
    evaluate,
)
from .tensors import (
    IDENTITY,
    ObserverChange,
    _require_seed,
    as_tensor2,
    conjugate_stack,
    matvec,
    max_abs,
    row_norms,
    sample_last,
    transposes,
)

DEFAULT_THETA_SAMPLES = (0.5, 1.0, 300.0)
NONLINEAR_MAGNITUDES = (0.1, 1.0, 10.0)

_GRADIENT_STREAM = 2

# states per block when the symmetry and frame-indifference checks fold group
# elements into the state axis: enough to spread numpy's per-call cost, few
# enough that a block's temporaries stay near 100 kB
_FOLD_STATES = 2048

# the public checks run under this: overflow and invalid values are residuals
# that _worst fails, not warnings
_nonfinite_fails = np.errstate(over="ignore", invalid="ignore")


class NotSymmetric(ValueError):
    """Raised when a conductivity handed to the classifier is not symmetric.

    No silent symmetrization: a non-symmetric tensor is the caller's bug."""


class LinearSymmetryClass(enum.Enum):
    ISOTROPIC = "isotropic"
    TRANSVERSELY_ISOTROPIC = "transversely_isotropic"
    ORTHOTROPIC = "orthotropic"


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
# state sampling


@dataclass(eq=False)
class _StateBatch:
    thetas: np.ndarray        # (S,)
    grads: np.ndarray         # (S, 3)
    kappas: np.ndarray        # (S, 3, 3) conductivity at the raw states, a sample-last view
    fluxes: np.ndarray        # (S, 3)
    denoms: np.ndarray        # (S,)  1 + |flux|_2
    unit_rows: np.ndarray     # (S,) bool, |grad|_2 == 1
    theta_index: np.ndarray   # (S,) position of the state's temperature in theta_samples
    theta_rows: np.ndarray    # (T,) each temperature's first state, its zero gradient
    repeat: int               # configured temperatures each sampled state stands for

    def __getitem__(self, s: int) -> StatePoint:
        """State s as a StatePoint, built on demand: only a witness needs one."""
        return StatePoint(self.thetas[s], self.grads[s])


def _unit_directions(cfg: CheckConfig) -> np.ndarray:
    """The coordinate axes, then gradient_samples normal draws over their
    norms; a draw of norm at most 1e-12 gives way to the next.  The stacked
    matmul is np.linalg.norm's ddot of each draw, bit for bit."""
    rng = np.random.default_rng([cfg.seed, _GRADIENT_STREAM])
    dirs = [np.eye(3)]
    need = cfg.gradient_samples
    while need:
        v = rng.standard_normal((need, 3))
        norms = np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0]
        kept = norms[:, 0] > 1e-12
        dirs.append(v[kept] / norms[kept])
        need -= int(np.count_nonzero(kept))
    return np.concatenate(dirs)


def _sample_states(model: ConstitutiveModel, cfg: CheckConfig) -> _StateBatch:
    """The sampled states, temperature by temperature in cfg's order.  A law
    that ignores the temperature gets only the first temperature's states,
    standing for all of them: its rows at the others repeat them bit for bit."""
    dirs = _unit_directions(cfg)
    mags = NONLINEAR_MAGNITUDES if model.gradient_dependent else (1.0,)
    # per temperature: the zero gradient, then every magnitude times every direction
    per_theta = np.concatenate([np.zeros((1, 3))] + [mag * dirs for mag in mags])
    sampled = cfg.theta_samples if model.temperature_dependent else cfg.theta_samples[:1]
    count = len(sampled)
    thetas = np.repeat(sampled, per_theta.shape[0])
    grads = np.tile(per_theta, (count, 1))
    kappas = model.kappa(thetas, grads)
    fluxes = matvec(kappas, grads)
    denoms = 1.0 + np.linalg.norm(fluxes, axis=1)
    unit_rows = np.abs(np.linalg.norm(grads, axis=1) - 1.0) <= 1e-12
    theta_index = np.repeat(np.arange(count), per_theta.shape[0])
    theta_rows = np.arange(count) * per_theta.shape[0]
    return _StateBatch(
        thetas, grads, kappas, fluxes, denoms, unit_rows, theta_index, theta_rows,
        len(cfg.theta_samples) // count,
    )


def _element_blocks(model, batch: _StateBatch, elements):
    """The checks' observer-independent arrays, for consecutive blocks of the
    (n, 3, 3) stack ``elements`` of at most _FOLD_STATES states (one element
    at least).

    Each block is (hs, hgs, kappas, refs) for the E elements hs, a slice of
    the stack (E, 3, 3): hgs (E, S, 3) holds the rotated gradients
    H g, kappas (3, 3, E, S) the conductivities kappa(theta, H g) of a
    gradient-dependent law, sample last, from one model evaluation (None for
    the others, whose kappa(theta, H g) is batch.kappas) and refs (E, S, 3)
    the canonical fluxes q(theta, H g).  Each element's slice equals its own
    per-element product bit for bit: kappa works row by row.
    """
    per_block = max(1, _FOLD_STATES // batch.thetas.size)
    for start in range(0, len(elements), per_block):
        hs = elements[start:start + per_block]
        # rows of grads @ H^T are H g
        hgs = batch.grads @ hs.transpose(0, 2, 1)
        if model.gradient_dependent:
            kappas = model.kappa(np.tile(batch.thetas, len(hs)), hgs.reshape(-1, 3))
            refs = matvec(kappas.reshape(hgs.shape + (3,)), hgs)
            kappas = sample_last(kappas).reshape(3, 3, len(hs), -1)
        else:
            kappas = None
            refs = matvec(batch.kappas, hgs)
        yield hs, hgs, kappas, refs


def _symmetry_rows(model, elements, batch):
    """Raw residuals of the symmetry condition, one tuple
    (hs, flux_raw, deficit, at) per block of _element_blocks:

      flux_raw[e, s]          = | H^T q(theta, H g) - q(theta, g) |_2
      deficit[e, :, :, at[s]] = H kappa(theta, g) - kappa(theta, H g) H

    for the element H = hs[e] and the state s; the deficit is sample last.
    When kappa does not depend on the gradient, kappa(theta, H g) =
    kappa(theta, g) and the deficit depends only on the element and the
    temperature: it is computed once per sampled temperature, (E, 3, 3, T),
    and ``at`` is each state's temperature index.  Otherwise it is computed at
    every state, (E, 3, 3, S), and ``at`` selects every state.  Each deficit
    equals the per-state product bit for bit.

    The flux-level deficit is exactly the conductivity-level deficit
    contracted with the gradient and rotated, so flux_raw and
    |deficit g|_2 agree to rounding for every state; the matrix form
    additionally probes directions the sampled gradient misses (the
    zero-gradient state most of all).
    """
    kappas_at = np.transpose(batch.kappas, (1, 2, 0))[:, :, batch.theta_rows]
    for hs, _, kappas_h, refs in _element_blocks(model, batch, elements):
        # rows of flux_h @ H are H^T flux_h
        flux_raw = row_norms(refs @ hs - batch.fluxes)
        if kappas_h is None:
            # kappa(theta, H g) is kappa(theta, g), the same for every element
            kappas_h = np.broadcast_to(kappas_at[:, :, None], (3, 3, len(hs), kappas_at.shape[2]))
            yield hs, flux_raw, _deficit(hs, kappas_at, kappas_h), batch.theta_index
        else:
            yield hs, flux_raw, _deficit(hs, sample_last(batch.kappas), kappas_h), slice(None)


def _deficit(stack, kappas, kappas_h):
    """Sample-last conductivity deficits H kappa - kappa_h H, (E, 3, 3, N),
    for the E elements H of ``stack`` (E, 3, 3), kappas (3, 3, N) and
    kappas_h (3, 3, E, N).  Element e's deficit is, moved sample last,
    einsum("ij,sjk->sik", H, kappa) - einsum("sij,jk->sik", kappa_h, H)
    bit for bit."""
    deficit = np.einsum("eij,jks->eiks", stack, kappas)
    deficit -= np.einsum("ijes,ejk->eiks", kappas_h, stack)
    return deficit


def _worst(rows, tol: float, note: str = "", repeat: int = 1) -> CheckResult:
    """Reduce a check's residual rows to its verdict, maximum and witness.

    ``rows`` yields ``(rel, element, observer, states)``: the relative
    residuals of one pass over (observer, element), with ``rel[s]`` measured
    at ``states[s]``.  Each row stands for ``repeat`` rows that repeat it bit
    for bit and come after it, so it counts ``repeat * rel.size`` samples and
    its maximum and witness are theirs.  The maximum is taken with one
    ``np.argmax`` per row;
    ties break toward the earliest row, then the earliest state.  A
    non-finite residual counts as inf: the earliest one fails the check and
    becomes the witness, so NaN can never pass and max_residual is never
    negative.  ``states[s]`` is looked up once, for the witness, at the end,
    so a _StateBatch builds one StatePoint per failing check and none per
    passing one.
    """
    best = -1.0
    best_at = None
    samples = 0
    for rel, element, observer, states in rows:
        samples += rel.size * repeat
        # a one-sample row (zero_map's per-temperature flux) needs no search
        s_idx = int(np.argmax(rel)) if rel.size > 1 else 0
        r = float(rel[s_idx])
        if not math.isfinite(r):
            # argmax stops at the first NaN, which may follow an inf
            s_idx = int(np.flatnonzero(~np.isfinite(rel))[0])
            r = math.inf
        if r > best:
            best = r
            best_at = (element, states, s_idx, observer)
    passed = best <= tol
    witness = None
    if not passed:
        element, states, s_idx, observer = best_at
        witness = Witness(element, states[s_idx], observer)
    return CheckResult(passed, max(best, 0.0), samples, witness, note)


# ---------------------------------------------------------------------------
# public checks


@_nonfinite_fails
def check_symmetry(model: ConstitutiveModel, group: SymmetryGroup, cfg: CheckConfig) -> CheckResult:
    """Does every element H of the group satisfy the symmetry condition
    H^T q(theta, H g) = q(theta, g), equivalently
    H kappa(theta, g) = kappa(theta, H g) H, on the sampled states?

    Both the flux form and the conductivity form are evaluated and the larger
    deficit counts, so constant anisotropy is caught even at the zero-gradient
    state where the flux form is blind.

    The elements are folded in blocks of about _FOLD_STATES states; the flux
    form is evaluated per state.  For a law whose conductivity depends on the
    temperature alone, the conductivity deficit is computed once per
    (element, sampled temperature) and expanded to the states.  Rows,
    samples_used and witnesses are those of a per-element loop, bit for bit.
    """
    elements = group_elements_for_check(group, cfg.seed)
    batch = _sample_states(model, cfg)

    def rows():
        for hs, flux_raw, deficit, at in _symmetry_rows(model, elements, batch):
            kappa_raw = np.max(np.abs(deficit), axis=(1, 2))[:, at]
            rel = np.maximum(flux_raw, kappa_raw) / batch.denoms
            for h, row in zip(hs, rel):
                yield row, h, None, batch

    return _worst(rows(), cfg.tol, repeat=batch.repeat)


def check_isotropy(
    model: ConstitutiveModel, cfg: CheckConfig, sample_count: int = DEFAULT_SAMPLE_COUNT
) -> CheckResult:
    """Material symmetry against the sampled full orthogonal group.

    Passing is evidence of isotropy (a sampled check cannot certify all of
    the orthogonal group); failing is a proof of anisotropy, and the witness
    element is the counterexample.
    """
    group = catalog_lookup("full_orthogonal", sample_count=sample_count)
    note = "sampled check: a pass is evidence of isotropy, a fail is a counterexample"
    return replace(check_symmetry(model, group, cfg), note=note)


@_nonfinite_fails
def symmetry_form_residuals(
    model: ConstitutiveModel, group: SymmetryGroup, cfg: CheckConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per-(element, state) relative residuals of the two symmetry forms on
    the unit-gradient states: the flux form, and the conductivity form
    contracted with the gradient.  Each element's row covers every configured
    temperature, a temperature-independent law's first one repeated.

    The two arrays coincide to floating-point rounding because the flux
    deficit is the rotated contraction of the conductivity deficit; asserting
    their agreement cross-checks that both formulations are implemented
    against the same mapping.
    """
    elements = group_elements_for_check(group, cfg.seed)
    batch = _sample_states(model, cfg)
    flux, kappa = [], []
    for _, flux_raw, deficit, at in _symmetry_rows(model, elements, batch):
        contracted = row_norms(matvec(deficit.transpose(0, 3, 1, 2)[:, at], batch.grads))
        for out, raw in ((flux, flux_raw), (kappa, contracted)):
            out.append(np.tile((raw / batch.denoms)[:, batch.unit_rows], batch.repeat).ravel())
    return np.concatenate(flux), np.concatenate(kappa)


def _observer_maps(model, observers, size: int):
    """(start, map): the ComponentMaps of ``model`` over consecutive runs of
    at most _FOLD_STATES // size observers (one at least), in order, each
    with the position of its first observer."""
    per_map = max(1, _FOLD_STATES // size)
    for start in range(0, len(observers), per_map):
        yield start, ComponentMap(model, observers[start:start + per_map])


@_nonfinite_fails
def check_frame_indifference(
    model: ConstitutiveModel,
    group: SymmetryGroup,
    observers: list[ObserverChange],
    cfg: CheckConfig,
) -> CheckResult:
    """Does every observer's ComponentMap obey the transformation law?

    For every observer Q, group element H and sampled state, the flux of
    ComponentMap.flux at the observer's components Q H g, rotated back with
    Q^T, must reproduce the canonical flux q(theta, H g); and
    ComponentMap.kappa must satisfy kappa = Q^T kappa*(Q g) Q.  The check
    applies the law itself, so a ComponentMap that rotates with Q in place
    of Q^T fails it, isotropic conductors included.

    A correct ComponentMap passes whatever the material symmetry; a failure
    is a frame-handling bug, not anisotropy.  It passes for strongly
    anisotropic conductors, which is the point: frame indifference does not
    imply isotropy.

    The conductivity form runs on stacked ComponentMaps over runs of
    consecutive observers, and the flux form on each observer's map against
    blocks of consecutive group elements, each of at most _FOLD_STATES
    states.  Every (observer, element) row keeps its arithmetic, so rows,
    samples_used and witnesses are those of the unfolded loop, bit for bit.
    """
    elements = group_elements_for_check(group, cfg.seed)
    batch = _sample_states(model, cfg)

    def rows():
        # H g and the canonical flux q(theta, H g) do not depend on the
        # observer.  A gradient-dependent law's map is handed the temperature
        # of every row; a gradient-free one's map evaluates it on the S states.
        blocks = [
            (
                hs,
                np.tile(batch.thetas, len(hs)) if model.gradient_dependent else batch.thetas,
                hgs.reshape(1, -1, 3),
                refs.reshape(-1, 3),
            )
            for hs, hgs, _, refs in _element_blocks(model, batch, elements)
        ]
        # conductivity form, element-independent: kappa(g) vs Q^T kappa*(Q g) Q
        kappas = np.transpose(batch.kappas, (1, 2, 0))[:, :, None]
        kappa_raw = np.empty((len(observers), batch.thetas.size))
        for start, cm in _observer_maps(model, observers, batch.thetas.size):
            q_t = transposes(cm.q_stack)
            # rows of grads @ Q^T are Q g
            back = conjugate_stack(q_t, cm.kappa(batch.thetas, batch.grads @ q_t))
            raw = np.max(np.abs(kappas - sample_last(back)), axis=(0, 1))
            kappa_raw[start:start + len(raw)] = raw
        # flux form: each observer against blocks of consecutive elements
        for obs, obs_kappa_raw in zip(observers, kappa_raw):
            cm = ComponentMap(model, [obs])
            q_t = transposes(cm.q_stack)
            for hs, thetas, hgs, refs in blocks:
                # rows of H g @ Q^T are Q H g
                starred = cm.flux(thetas, hgs @ q_t)
                # rows of starred @ Q are Q^T starred
                flux_raw = row_norms(starred[0] @ obs.q_matrix - refs).reshape(len(hs), -1)
                rel = np.maximum(flux_raw, obs_kappa_raw) / batch.denoms
                for h, row in zip(hs, rel):
                    yield row, h, obs, batch

    note = (
        "holds identically for component maps derived from one tensorial "
        "mapping, anisotropic ones included; a failure indicates a "
        "frame-handling bug rather than material anisotropy"
    )
    return _worst(rows(), cfg.tol, note, batch.repeat)


@_nonfinite_fails
def check_observer_independence(
    model: ConstitutiveModel, observers: list[ObserverChange], cfg: CheckConfig
) -> CheckResult:
    """Do the canonical and starred component maps agree on identical numeric
    arguments?

    This is the hallmark of isotropy: only an isotropic mapping looks the
    same to every observer component-wise.  Anisotropic conductors fail for
    generic observers even though they are perfectly frame indifferent.
    The witness reports the observer matrix as its group element.

    Both forms run on stacked ComponentMaps over runs of consecutive
    observers, at most _FOLD_STATES states each; every observer's row is
    that of its own ComponentMap, bit for bit.
    """
    batch = _sample_states(model, cfg)
    kappas = np.transpose(batch.kappas, (1, 2, 0))[:, :, None]

    def rows():
        for _, cm in _observer_maps(model, observers, batch.thetas.size):
            # every observer's map at the canonical components' numeric values
            grads = np.broadcast_to(batch.grads, (len(cm.q_stack),) + batch.grads.shape)
            flux_raw = row_norms(cm.flux(batch.thetas, grads) - batch.fluxes)
            kappa_star = sample_last(cm.kappa(batch.thetas, grads))
            kappa_raw = np.max(np.abs(kappa_star - kappas), axis=(0, 1))
            rel = np.maximum(flux_raw, kappa_raw) / batch.denoms
            for obs, row in zip(cm.observers, rel):
                yield row, obs.q_matrix, obs, batch

    return _worst(rows(), cfg.tol, repeat=batch.repeat)


@_nonfinite_fails
def check_zero_map(model: ConstitutiveModel, cfg: CheckConfig) -> CheckResult:
    """The zero-gradient state must map to zero flux at every sampled
    temperature.  Because every family factors through a conductivity tensor,
    the residual is exactly zero, not merely small."""

    def rows():
        for theta in cfg.theta_samples:
            state = StatePoint(theta, np.zeros(3))
            r = np.linalg.norm(evaluate(model, state))
            yield np.array([r]), IDENTITY, None, (state,)

    return _worst(rows(), cfg.tol)


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
    rots = orthogonal_check_set(cfg.seed, sample_count)
    # R^T L R for each R is Q L Q^T for Q = R^T
    conj = conjugate_stack(transposes(rots), m[None])[:, 0]
    residual = float(np.max(np.abs(conj - m)))
    if residual > cfg.tol:
        return SchurResult(False, None, residual)
    alpha = float(np.trace(m)) / 3.0
    deviation = max_abs(m - alpha * np.eye(3))
    if deviation > cfg.tol:
        return SchurResult(False, None, max(residual, deviation))
    return SchurResult(True, alpha, residual)


@lru_cache(maxsize=1)
def _classifier_groups() -> tuple[SymmetryGroup, SymmetryGroup, SymmetryGroup]:
    """The groups classify_linear_symmetry cross-checks isotropic,
    transversely isotropic and orthotropic tensors against, made once."""
    return tuple(map(catalog_lookup, ("full_orthogonal", "transverse_z_8", "orthotropic")))


def classify_linear_symmetry(kappa0, cfg: CheckConfig) -> LinearSymmetryClass:
    """Classify a constant symmetric conductivity by eigenvalue multiplicity:
    {3} isotropic, {2,1} transversely isotropic, {1,1,1} orthotropic.

    The tensor must be symmetric within 1e-9 times its largest entry, so
    the test, like the label, does not depend on its scale; NotSymmetric is
    raised otherwise.

    Eigenvalues count as equal when they differ by at most 1e-8 times the
    largest eigenvalue magnitude, so the label does not depend on the
    tensor's scale; the zero tensor is isotropic.  The result is
    cross-validated by rotating the tensor into its eigenframe and running
    check_symmetry against the matching catalog group, on the tensor scaled
    to a largest eigenvalue magnitude of 1.
    """
    k = as_tensor2(kappa0)
    skew = max_abs(k - k.T)
    if skew > 1e-9 * max_abs(k):
        raise NotSymmetric(
            f"conductivity must be symmetric within 1e-9 of its largest entry "
            f"(skew part {skew:.3g})"
        )
    isotropic, transverse, orthotropic = _classifier_groups()
    eigvals, _ = np.linalg.eigh(k)
    # multiplicity does not depend on scale: the gap tolerance is relative,
    # and the zero tensor (every gap 0 <= 0) is isotropic
    scale = float(np.max(np.abs(eigvals)))
    gap_tol = 1e-8 * scale
    low_pair = eigvals[1] - eigvals[0] <= gap_tol
    high_pair = eigvals[2] - eigvals[1] <= gap_tol
    if low_pair and high_pair:
        label = LinearSymmetryClass.ISOTROPIC
        aligned = np.diag(eigvals)
        group = isotropic
    elif low_pair or high_pair:
        label = LinearSymmetryClass.TRANSVERSELY_ISOTROPIC
        # put the unpaired eigenvalue on the z axis
        if low_pair:
            order = [0, 1, 2]
        else:
            order = [1, 2, 0]
        aligned = np.diag(eigvals[order])
        group = transverse
    else:
        label = LinearSymmetryClass.ORTHOTROPIC
        aligned = np.diag(eigvals)
        group = orthotropic
    # cross-check at max |eigenvalue| 1: |q|^2 cannot overflow near the float
    # limit, and the absolute tol is not vacuous for a small tensor
    verdict = check_symmetry(LinearConstant(aligned / (scale or 1.0)), group, cfg)
    if not verdict.passed:
        raise RuntimeError(
            f"classification cross-check failed for {label.value}: "
            f"residual {verdict.max_residual:.3g}"
        )
    return label
