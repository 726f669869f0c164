"""Invariance checkers for constitutive mappings.

Material symmetry, isotropy, frame indifference, observer independence of
components, the zero-gradient map, and the constant-map reduction are checked
numerically on a deterministic state sample.  The three headline properties
are deliberately independent checks: a mapping can be frame indifferent and
still anisotropic, and the checkers here make that distinction measurable.

Isotropy is decided on the 24 cubic rotations, since in every family the
gradient enters covariantly (models.py): by Schur's lemma, their maximum
residual times a constant bounds every orthogonal element's, so a small
one certifies a pass and a large one is a counterexample (check_isotropy).
The sampled full orthogonal group decides only between the two; symmetry
under it is isotropy, so check_symmetry returns that one decision.

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
isotropy; ROADMAP item 4).  ``schur_reduce`` and the classifier take a bare
tensor with no associated state; their residual is relative to its largest
entry, so their verdicts do not depend on its scale.

State sampling
--------------
Per temperature sample: the zero gradient, the three coordinate axes, and
``gradient_samples`` uniform unit directions.  Families whose conductivity
depends on the gradient get each direction swept at magnitudes 0.1, 1 and 10;
magnitude effects are otherwise decoupled from the rotational checks by
staying on the unit sphere.  The directions are points of the cube
[-1, 1)^3 from the seed's gradient stream, kept inside the unit ball and
normalized (``tensors._sphere``); the sampled orthogonal group's elements
come from its own stream.  Each draw is random()'s values put through +, -,
*, / and sqrt, so everything is a pure function of the seed, the same bits
on any CPU, libm, BLAS or LAPACK, and check results are bit-reproducible.

Every check turns its residuals into a verdict through one reducer,
``_worst``, which each check hands whole blocks of (observer, element) rows:
the witness is the single (observer, element, state) sample attaining the
maximal residual, ties breaking toward the earliest row, then the earliest
state in sample order.  Rows come element by element, observer by observer,
or, in frame indifference, element block, then observer, then element (see
Folding).  A non-finite residual counts as infinite, so it always fails the
check and becomes the witness.  Only the witness's StatePoint is ever built.

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

Past the sampled states, every check but zero_map evaluates the law through
one pass over a stack M of observers or transposed elements (_map_pass), the
one place that builds a ComponentMap.  Given N gradient rows g, it takes M
in runs of _FOLD_STATES // N maps and evaluates each run's canonical side
once at the components g* (g, or M g), giving M^T g*, kappa(theta, M^T g*)
and q(theta, M^T g*): a call holds at most ``_FOLD_STATES`` states whatever
the group's order and the observer count.  An observer change and a
material symmetry act on a law through that one map: symmetry reads it with
M = H^T, which evaluates the law at H g, observer independence with M = Q,
and frame indifference with both, its element pass at M = H^T and its two
forms at M = Q, at the components g* = Q g or, in the flux form, Q H g for
a block of elements.  So observer independence's flux rows
|Q q(theta, Q^T g) - q(theta, g)| are symmetry's under H = Q^T, bit for
bit.  The conductivity deficits stay apart: Q kappa(theta, Q^T g) Q^T -
kappa is -Q times symmetry's H kappa - kappa(theta, H g) H, and the
max-norm, unlike a rotation-invariant norm, sees that factor.  A law that
reads no gradient (``gradient_dependent`` False) has the same conductivity
at every rotated gradient, bit for bit, so ComponentMap evaluates it once a
call, on the S sampled states, and shares that stack.

_worst still reduces each (observer, element) row of a block on its own,
so the folds change no residual, witness or sample count.
A block's (3, 3, N) float64 temporaries take 72 N bytes, and N is at most
``_FOLD_STATES`` = 1792, so they stay under glibc's 128 KiB mmap threshold
(72 * 1792 = 129,024 < 131,072) and are not mapped afresh on every call.
The block size moves no residual; it sets only frame indifference's row
order (block, observer, element), so only exactly tied failing rows of that
check can trade places as the witness when it changes.

Layout
------
Conductivity stacks stay sample last, (3, 3, S), from the law to the
residual, so numpy's inner loop spans the samples instead of a 3-long
component axis.  ``model.kappa`` builds its stack that way and hands it out
as an (S, 3, 3) view; _StateBatch.kappas is that view turned back, with no
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
``tensors.matvec`` spells out in einsum's order, for the row norms and
for the stacked ComponentMap against a per-observer map written with
einsums; ``np.add.reduce`` over the nine products of a conjugation, for
one, adds in another order and is not used.  ``_cubic_test``'s conjugation
by the cubic rotations is exact: they are signed permutations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .groups import SymmetryGroup, catalog_lookup, orthogonal_check_set
from .models import ComponentMap, ConstitutiveModel, StatePoint, evaluate
from .tensors import (
    IDENTITY,
    _require_seed,
    _sphere,
    _stream,
    as_tensor2,
    conjugate_stack,
    matvec,
    max_abs,
    observer_stack,
    row_norms,
    sample_last,
    transposes,
)

DEFAULT_THETA_SAMPLES = (0.5, 1.0, 300.0)
DEFAULT_SAMPLE_COUNT = 256
NONLINEAR_MAGNITUDES = (0.1, 1.0, 10.0)

# states per block when the symmetry and frame-indifference checks fold group
# elements into the state axis (see Folding): enough to spread numpy's
# per-call cost, few enough for glibc's 128 KiB mmap threshold
_FOLD_STATES = 1792

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


def _is_number(value) -> bool:
    """A real number, numpy's included; bool is not one.  CheckConfig and
    config's [model] rules share it."""
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))


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
    sample_count: Haar draws of the sampled full orthogonal group, which the
    isotropy check takes when the 24 cubic rotations do not decide it (see
    check_isotropy), and frame indifference under full_orthogonal.

    Each field is judged when the config is built.  tol is a number,
    theta_samples a sequence of numbers and each count an int of at least
    1, numpy's included, str and bool not; any other form is a TypeError.
    Every message begins with the field's name.
    """

    tol: float = 1e-9
    theta_samples: tuple[float, ...] = DEFAULT_THETA_SAMPLES
    gradient_samples: int = 32
    seed: int = 0
    sample_count: int = DEFAULT_SAMPLE_COUNT

    def __post_init__(self):
        tol = self.tol
        if not _is_number(tol):
            raise TypeError("tol must be a number")
        if not np.isfinite(tol) or tol <= 0.0:
            raise ValueError("tol must be positive and finite")
        thetas = self.theta_samples
        sequence = np.iterable(thetas) and not isinstance(thetas, (str, bytes))
        thetas = tuple(thetas) if sequence else ()
        if not sequence or not all(map(_is_number, thetas)):
            raise TypeError("theta_samples must be a sequence of numbers")
        thetas = tuple(map(float, thetas))
        if not thetas:
            raise ValueError("theta_samples must not be empty")
        if not all(np.isfinite(t) and t > 0.0 for t in thetas):
            raise ValueError("theta_samples must be positive finite temperatures")
        object.__setattr__(self, "theta_samples", thetas)
        # one rule for both counts, each in its own words
        for name, rule in (("gradient_samples", "a positive integer"),
                           ("sample_count", "at least 1")):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
                raise TypeError(f"{name} must be an integer")
            if count < 1:
                raise ValueError(f"{name} must be {rule}")
            object.__setattr__(self, name, int(count))
        object.__setattr__(self, "seed", _require_seed(self.seed))


@dataclass(frozen=True, eq=False)
class Witness:
    """The (element, state) pair attaining the maximal residual, plus the
    observer's (3, 3) matrix for the observer-dependent checks."""

    group_element: np.ndarray
    state: StatePoint
    observer: Optional[np.ndarray] = None


@dataclass(frozen=True, eq=False)
class CheckResult:
    passed: bool
    max_residual: Optional[float]  # None only for a check that could not run
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
    kappas: np.ndarray        # (3, 3, S) conductivity at the raw states, sample last
    fluxes: np.ndarray        # (S, 3)
    denoms: np.ndarray        # (S,)  1 + |flux|_2
    repeat: int               # configured temperatures each sampled state stands for

    def __getitem__(self, s: int) -> StatePoint:
        """State s as a StatePoint, built on demand: only a witness needs one."""
        return StatePoint(self.thetas[s], self.grads[s])


def _magnitudes(model: ConstitutiveModel) -> tuple[float, ...]:
    """The gradient magnitudes sampled for a law: three for one whose
    conductivity reads the gradient, the unit sphere alone otherwise."""
    return NONLINEAR_MAGNITUDES if model.gradient_dependent else (1.0,)


def _unit_directions(cfg: CheckConfig) -> np.ndarray:
    """The coordinate axes, then gradient_samples uniform unit directions
    from the seed's gradient stream (tensors._sphere), (3 + n, 3)."""
    drawn = _sphere(_stream(cfg.seed, "gradient"), cfg.gradient_samples, 3)
    return np.concatenate((np.eye(3), drawn.T))


def _sample_states(model: ConstitutiveModel, cfg: CheckConfig) -> _StateBatch:
    """The sampled states, temperature by temperature in cfg's order.  A law
    that ignores the temperature gets only the first temperature's states,
    standing for all of them: its rows at the others repeat them bit for bit."""
    dirs = _unit_directions(cfg)
    # per temperature: the zero gradient, then every magnitude times every direction
    per_theta = np.concatenate([np.zeros((1, 3))] + [mag * dirs for mag in _magnitudes(model)])
    sampled = cfg.theta_samples if model.temperature_dependent else cfg.theta_samples[:1]
    count = len(sampled)
    thetas = np.repeat(sampled, per_theta.shape[0])
    grads = np.tile(per_theta, (count, 1))
    kappas = model.kappa(thetas, grads)
    fluxes = matvec(kappas, grads)
    denoms = 1.0 + row_norms(fluxes)
    repeat = len(cfg.theta_samples) // count
    return _StateBatch(thetas, grads, sample_last(kappas), fluxes, denoms, repeat)


def _map_pass(model, stack, thetas, grads, turned=False):
    """The one component-map pass over a stack M (see Folding), at the N
    gradient rows g of ``grads`` (N, 3), N a multiple of the T temperatures
    ``thetas``.  Per run of _FOLD_STATES // N maps (one at least) it yields
    (start, run, M^T g*, kappa(theta, M^T g*), q(theta, M^T g*)): the
    canonical side of ComponentMap(model, run), evaluated once at the
    components g* = g, or M g when turned.  A run's arrays are yielded, not
    held, so a reader may drop one while it works."""
    per_run = max(1, _FOLD_STATES // len(grads))
    for start in range(0, len(stack), per_run):
        run = stack[start:start + per_run]
        comps = (grads @ transposes(run) if turned  # rows are M g
                 else np.broadcast_to(grads, (len(run),) + grads.shape))
        yield (start, run, *ComponentMap(model, run)._canonical(thetas, comps))


def _symmetry_rows(model, elements, batch):
    """Raw residuals of the symmetry condition, one tuple
    (hs, flux_raw, deficit) per block of elements hs:

      flux_raw[e, s]      = | H^T q(theta, H g) - q(theta, g) |_2
      deficit[e, :, :, s] = H kappa(theta, g) - kappa(theta, H g) H

    for the element H = hs[e] and the state s; the deficit is sample last,
    (E, 3, 3, S), computed at every state, and equals the per-state product
    bit for bit.  The blocks are the runs of _map_pass over M = H^T, whose
    map evaluates the law at H g: the flux rows are those of observer
    independence under the observers H^T, bit for bit.

    The flux-level deficit is exactly the conductivity-level deficit
    contracted with the gradient and rotated, so flux_raw and
    |deficit g|_2 agree to rounding for every state; the matrix form
    additionally probes directions the sampled gradient misses (the
    zero-gradient state most of all).
    """
    for start, run, _, kappas_h, fluxes in _map_pass(
            model, transposes(elements), batch.thetas, batch.grads):
        hs = elements[start:start + len(run)]
        # rows of fluxes @ H are H^T q(theta, H g)
        flux_raw = row_norms(fluxes @ hs - batch.fluxes)
        # a law that reads no gradient has one stack for the block, made
        # contiguous: einsum is slower on a stride-0 sample axis
        kappas_h = sample_last(kappas_h).reshape(3, 3, -1, batch.thetas.size)
        kappas_h = np.broadcast_to(kappas_h, (3, 3) + fluxes.shape[:2])
        yield hs, flux_raw, _deficit(hs, batch.kappas, kappas_h)


def _deficit(stack, kappas, kappas_h):
    """Sample-last conductivity deficits H kappa - kappa_h H, (E, 3, 3, N),
    for the E elements H of ``stack`` (E, 3, 3), kappas (3, 3, N) and
    kappas_h (3, 3, E, N).  Element e's deficit is, moved sample last,
    einsum("ij,sjk->sik", H, kappa) - einsum("sij,jk->sik", kappa_h, H)
    bit for bit."""
    deficit = np.einsum("eij,jks->eiks", stack, kappas)
    deficit -= np.einsum("ijes,ejk->eiks", kappas_h, stack)
    return deficit


def _worst(blocks, tol: float, note: str = "", repeat: int = 1) -> CheckResult:
    """Reduce a check's residual blocks to its verdict, maximum and witness.

    ``blocks`` yields ``(rel, elements, observers, states)`` per pass: row r
    of ``rel`` (R, S) was measured under ``elements[r]`` and ``observers[r]``
    (None for a check without), ``rel[r, s]`` at ``states[s]``.  Each row
    stands for ``repeat`` rows that repeat it bit for bit and come after it,
    so a block counts ``repeat * rel.size`` samples.  Ties break toward the
    earliest row, then the earliest state.  A non-finite residual counts as
    inf, so the earliest one fails the check as its witness.  The witness is
    looked up once, at the end: a _StateBatch builds one StatePoint per
    failing check, none per passing one.  No rows (an observer check given
    no observers) is a ValueError: a check of nothing would pass vacuously.
    """
    best = -1.0
    best_at = None
    samples = 0
    for rel, elements, observers, states in blocks:
        samples += rel.size * repeat
        for r, row in enumerate(rel):
            # one np.argmax per row: perfbench's tracer counts each call as a
            # trip and pins them at the rows (ROADMAP item 1); zero_map's
            # one-sample rows skip it, as its trips are its evaluate calls
            s_idx = int(np.argmax(row)) if row.size > 1 else 0
            value = float(row[s_idx])
            if not math.isfinite(value):
                # argmax stops at the first NaN, which may follow an inf
                s_idx = int(np.flatnonzero(~np.isfinite(row))[0])
                value = math.inf
            if value > best:
                best, best_at = value, (elements, observers, r, states, s_idx)
    if best_at is None:
        raise ValueError("no residuals to check: a check needs at least one observer")
    passed = best <= tol
    witness = None
    if not passed:
        elements, observers, r, states, s_idx = best_at
        witness = Witness(elements[r], states[s_idx], None if observers is None else observers[r])
    return CheckResult(passed, best, samples, witness, note)


# ---------------------------------------------------------------------------
# public checks


def check_symmetry(model: ConstitutiveModel, group: SymmetryGroup, cfg: CheckConfig) -> CheckResult:
    """Does every element H of the group satisfy the symmetry condition
    H^T q(theta, H g) = q(theta, g), equivalently
    H kappa(theta, g) = kappa(theta, H g) H, on the sampled states?

    Both the flux form and the conductivity form are evaluated and the larger
    deficit counts, so constant anisotropy is caught even at the zero-gradient
    state where the flux form is blind.  Under the sampled full orthogonal
    group the condition is isotropy, and the record is check_isotropy's.
    """
    if group.stack is None:
        return check_isotropy(model, cfg)
    return _symmetry_check(model, group.stack, cfg)


@_nonfinite_fails
def _symmetry_check(model, elements, cfg: CheckConfig) -> CheckResult:
    """check_symmetry on a stack of elements (n, 3, 3), folded in blocks of
    about _FOLD_STATES states, both forms evaluated at every state.  Rows,
    samples_used and witnesses are those of a per-element loop, bit for bit."""
    batch = _sample_states(model, cfg)

    def blocks():
        for hs, flux_raw, deficit in _symmetry_rows(model, elements, batch):
            kappa_raw = np.max(np.abs(deficit), axis=(1, 2))
            rel = np.maximum(flux_raw, kappa_raw) / batch.denoms
            yield rel, hs, None, batch

    return _worst(blocks(), cfg.tol, repeat=batch.repeat)


def check_isotropy(model: ConstitutiveModel, cfg: CheckConfig) -> CheckResult:
    """Material symmetry against the whole orthogonal group.

    Symmetry is checked on the 24 cubic rotations first.  Let eps be that
    check's maximum and c = 4 max(1, |g|), |g| the largest sampled
    gradient: 4 for a law that reads no gradient, 40 for one that does.
    Then

    - c eps <= tol is a certified pass: no orthogonal element scores more
      than c eps at any sampled state (below);
    - eps > tol is a fail, and the cubic witness is an exact counterexample;
    - otherwise _symmetry_check runs on orthogonal_check_set(cfg.seed,
      cfg.sample_count), the sampled full orthogonal group's Haar draws and
      adversarial set: a pass is evidence, a fail a counterexample.

    The note says which decided; the rest of the result is that symmetry
    check's, but for the last case's max_residual, the larger of the two
    checks' maxima.

    The bound, at each sampled temperature theta.  Let K = kappa(theta, 0)
    and A = K - tr K / 3 I.  Every family's covariant gradient,
    kappa(theta, R g) = K + R (kappa(theta, g) - K) R^T, makes the
    deficits of any orthogonal R

      R kappa(theta, g) - kappa(theta, R g) R = R A - A R,
      R^T q(theta, R g) - q(theta, g) = R^T (A R - R A) g,

    the first the same at every gradient.  The zero gradient is sampled at
    every temperature, with denominator 1, so eps >= M = max_H |H A - A H|_max
    over the cubic rotations H, and _cubic_test's argument, linear in the
    tensor, gives |A|_max <= (2/3) M.  So
    |R A - A R|_max <= |R A - A R|_2 <= 2 |A|_2 <= 6 |A|_max <= 4 M, and R's
    residual at any sampled state, whose denominator is at least 1, is at
    most 4 max(1, |g|) M <= c eps, up to the sampled check's rounding.
    """
    cubic = check_symmetry(model, _cubic_group(), cfg)
    c = 4.0 * max(1.0, *_magnitudes(model))
    if c * cubic.max_residual <= cfg.tol:
        note = (f"certified on the 24 cubic rotations: {c:g} * max_residual <= tol "
                "bounds every orthogonal element")
        return replace(cubic, note=note)
    if not cubic.passed:
        note = "fails on the 24 cubic rotations: the witness is a counterexample"
        return replace(cubic, note=note)
    sampled = _symmetry_check(model, orthogonal_check_set(cfg.seed, cfg.sample_count), cfg)
    note = "sampled check: a pass is evidence of isotropy, a fail is a counterexample"
    # the cubic rotations are orthogonal elements too: report the larger maximum
    return replace(sampled, max_residual=max(sampled.max_residual, cubic.max_residual), note=note)


@_nonfinite_fails
def check_frame_indifference(
    model: ConstitutiveModel,
    group: SymmetryGroup,
    observers,
    cfg: CheckConfig,
) -> CheckResult:
    """Does every observer's ComponentMap obey the transformation law?

    For every observer Q, group element H and sampled state, the observer's
    flux Q q(theta, Q^T g*) at its components g* = Q H g, rotated back with
    Q^T, must reproduce q(theta, H g); and its conductivity
    kappa* = Q kappa(theta, Q^T g*) Q^T at g* = Q g must satisfy
    kappa = Q^T kappa* Q.  The check applies the law itself, so a
    ComponentMap that rotates with Q in place of Q^T fails it, isotropic
    conductors included.

    A correct ComponentMap passes whatever the material symmetry; a failure
    is a frame-handling bug, not anisotropy.  It passes for strongly
    anisotropic conductors, which is the point: frame indifference does not
    imply isotropy.

    Both forms read the law through _map_pass (see Folding), at most
    _FOLD_STATES states a call; each row, samples_used and max_residual are
    those of the unfolded loop, bit for bit.  _worst gets a block per
    observer of an element block, a row per element: among exactly tied
    failing rows, the earliest in that order (element block, observer,
    element) is the witness.  ``observers`` is anything observer_stack takes.
    """
    observers = observer_stack(observers)
    elements = (orthogonal_check_set(cfg.seed, cfg.sample_count)
                if group.stack is None else group.stack)
    batch = _sample_states(model, cfg)

    def blocks():
        thetas, grads = batch.thetas, batch.grads
        # conductivity form, element-independent: kappa(g) vs Q^T kappa*(Q g) Q
        kappas = batch.kappas[:, :, None]
        kappa_raw = np.empty((len(observers), thetas.size))
        for start, run, _, kappas_c, _ in _map_pass(model, observers, thetas, grads, turned=True):
            back = sample_last(conjugate_stack(transposes(run), conjugate_stack(run, kappas_c)))
            kappa_raw[start:start + len(run)] = np.max(np.abs(kappas - back), axis=(0, 1))
        # flux form: per block of elements, H g and q(theta, H g) from the pass
        # over H^T, then the pass over the observers at the components Q H g
        element_runs = _map_pass(model, transposes(elements), thetas, grads)
        observer_rows = np.broadcast_to(observers[:, None], (len(observers),) + elements.shape)
        for first, hts, hgs, kappas_h, refs in element_runs:
            # held while the rows are reduced, kappa(theta, H g) and each
            # observer run's kappa made the allocator map fresh pages call after call
            del kappas_h
            hs = elements[first:first + len(hts)]
            refs = refs.reshape(-1, 3)
            observer_runs = _map_pass(model, observers, thetas, hgs.reshape(-1, 3), turned=True)
            for start, run, _, kappas_c, fluxes in observer_runs:
                del kappas_c
                # rows of fluxes @ Q^T are the observer's flux, and @ Q turns it back
                flux_raw = row_norms(fluxes @ transposes(run) @ run - refs)
                flux_raw = flux_raw.reshape(len(run), len(hs), -1)
                obs_kappa_raw = kappa_raw[start:start + len(flux_raw), None]
                rel = np.maximum(flux_raw, obs_kappa_raw) / batch.denoms
                for obs_rel, obs_rows in zip(rel, observer_rows[start:, :len(hs)]):
                    yield obs_rel, hs, obs_rows, batch

    note = (
        "holds identically for component maps derived from one tensorial "
        "mapping, anisotropic ones included; a failure indicates a "
        "frame-handling bug rather than material anisotropy"
    )
    return _worst(blocks(), cfg.tol, note, batch.repeat)


@_nonfinite_fails
def check_observer_independence(
    model: ConstitutiveModel, observers, cfg: CheckConfig
) -> CheckResult:
    """Do the canonical and starred component maps agree on identical numeric
    arguments?

    This is the hallmark of isotropy: only an isotropic mapping looks the
    same to every observer component-wise.  Anisotropic conductors fail for
    generic observers even though they are perfectly frame indifferent.
    The witness reports the observer matrix as its group element.

    Both forms read _map_pass over M = Q, the law evaluated once a run of
    observers.  Asking every observer for the same component law is asking
    for symmetry under every Q^T: the flux rows are the symmetry check's
    under H = Q^T, bit for bit.  The conductivity deficit Q kappa_c Q^T -
    kappa is -Q times that check's, with another max-norm (see Folding).
    ``observers`` is anything observer_stack takes.
    """
    observers = observer_stack(observers)
    batch = _sample_states(model, cfg)
    kappas = batch.kappas[:, :, None]

    def blocks():
        for _, run, _, kappas_c, fluxes in _map_pass(model, observers, batch.thetas, batch.grads):
            # rows of fluxes @ Q^T are Q q(theta, Q^T g): symmetry's flux rows under H = Q^T
            flux_raw = row_norms(fluxes @ transposes(run) - batch.fluxes)
            kappa_star = sample_last(conjugate_stack(run, kappas_c))
            kappa_raw = np.max(np.abs(kappa_star - kappas), axis=(0, 1))
            rel = np.maximum(flux_raw, kappa_raw) / batch.denoms
            yield rel, run, run, batch

    return _worst(blocks(), cfg.tol, repeat=batch.repeat)


@_nonfinite_fails
def check_zero_map(model: ConstitutiveModel, cfg: CheckConfig) -> CheckResult:
    """The zero-gradient state must map to zero flux at every sampled
    temperature.  Because every family factors through a conductivity tensor,
    the residual is exactly zero, not merely small."""

    def blocks():
        for theta in cfg.theta_samples:
            state = StatePoint(theta, np.zeros(3))
            r = np.linalg.norm(evaluate(model, state))
            yield np.array([[r]]), (IDENTITY,), None, (state,)

    return _worst(blocks(), cfg.tol)


@lru_cache(maxsize=1)
def _cubic_group() -> SymmetryGroup:
    """The 24 cubic rotations, closed once per process: check_isotropy
    checks on them and _cubic_test conjugates by their stack."""
    return catalog_lookup("cubic_rotations")


def _cubic_test(l, cfg: CheckConfig) -> tuple[bool, float, np.ndarray]:
    """(passed, residual, m): is a constant tensor L a multiple of I?

    m = L / max|L| (the zero tensor is its own m), and the residual is
    max |H m H^T - m| over the 24 cubic rotations H, so neither the verdict
    nor the residual depends on L's scale.  L passes when the residual is at
    most cfg.tol, and a pass certifies L itself, by Schur's lemma: the 24
    elements act irreducibly on R^3, so only the multiples of I commute with
    all of them.  The residual is M = max_H |H m - m H|_max, since
    H m H^T - m = (H m - m H) H^T and a signed permutation, which every
    cubic rotation is, keeps the max-norm.  Quantitatively:

    - Rz90 has commutator entry (1, 2) equal to m11 - m22, and its
      conjugates by the other cubic rotations give m22 - m33 and m11 - m33,
      so every diagonal difference is at most M;
    - a half-turn such as diag(-1, -1, 1) has commutator entry (1, 3) equal
      to -2 m13, and the three axis half-turns reach every off-diagonal pair,
      so every |m_ij|, i != j, is at most M / 2;
    - m_ii - tr m / 3 is the mean of two diagonal differences times 2/3, so
      |m - tr m / 3 I|_max <= (2/3) M.

    So a pass puts L within (2/3) cfg.tol max|L| of tr L / 3 I.  The
    elements only permute and negate components, so the conjugation is
    exact and c I gives a residual of exactly 0.
    """
    k = as_tensor2(l)
    m = k / (max_abs(k) or 1.0)
    residual = max_abs(conjugate_stack(_cubic_group().stack, m[None]) - m)
    return residual <= cfg.tol, residual, m


def schur_reduce(l, cfg: CheckConfig) -> SchurResult:
    """Is a constant tensor invariant under orthogonal conjugation?

    The only tensors that commute with the whole orthogonal group are the
    multiples of the identity, and the 24 cubic rotations already force
    that (_cubic_test, whose verdict and residual are returned).  On a pass
    the scalar is recovered as trace(L) / 3.  The residual is relative to
    L's largest entry: there is no state to normalize against.
    """
    passed, residual, _ = _cubic_test(l, cfg)
    alpha = float(np.trace(as_tensor2(l))) / 3.0 if passed else None
    return SchurResult(passed, alpha, residual)


def classify_linear_symmetry(kappa0, cfg: CheckConfig) -> LinearSymmetryClass:
    """Classify a constant symmetric conductivity: isotropic,
    transversely isotropic (two equal eigenvalues) or orthotropic.

    The tensor must be symmetric within 1e-9 times its largest entry, so
    the test, like the label, does not depend on its scale; NotSymmetric is
    raised otherwise.

    The isotropic label is _cubic_test's verdict, which schur_reduce
    returns too, so it certifies the tensor itself; the zero tensor is
    isotropic.  Any other tensor is transversely isotropic when the smaller
    gap between the eigenvalues of m = L / max|L| is at most cfg.tol times
    their largest magnitude, and orthotropic otherwise: one tolerance for
    both steps, and no dependence on scale.
    """
    k = as_tensor2(kappa0)
    skew = max_abs(k - k.T)
    if skew > 1e-9 * max_abs(k):
        raise NotSymmetric(
            f"conductivity must be symmetric within 1e-9 of its largest entry "
            f"(skew part {skew:.3g})"
        )
    isotropic, _, m = _cubic_test(k, cfg)
    if isotropic:
        return LinearSymmetryClass.ISOTROPIC
    eigvals = np.linalg.eigvalsh(m)
    gap = min(eigvals[1] - eigvals[0], eigvals[2] - eigvals[1])
    if gap <= cfg.tol * max_abs(eigvals):
        return LinearSymmetryClass.TRANSVERSELY_ISOTROPIC
    return LinearSymmetryClass.ORTHOTROPIC
