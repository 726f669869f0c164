import ast
import tracemalloc
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framecheck as fc
from conftest import DIAG123, MODEL_ROSTER, check_elements, symmetry_form_residuals
from framecheck.tensors import transposes

CFG = fc.CheckConfig()
# 64 Haar draws of the sampled orthogonal group, not 256
CFG64 = fc.CheckConfig(sample_count=64)
ROOT = Path(__file__).resolve().parent.parent


def _linear_sample_total(group_order, thetas=3, dirs=35):
    # per theta: one zero-gradient state plus the unit directions
    return group_order * thetas * (1 + dirs)


def test_check_config_validation():
    with pytest.raises(ValueError):
        fc.CheckConfig(tol=0.0)
    with pytest.raises(ValueError):
        fc.CheckConfig(tol=-1e-9)
    with pytest.raises(ValueError):
        fc.CheckConfig(theta_samples=())
    with pytest.raises(ValueError):
        fc.CheckConfig(theta_samples=(1.0, -2.0))
    with pytest.raises(ValueError):
        fc.CheckConfig(gradient_samples=0)
    with pytest.raises(TypeError):
        fc.CheckConfig(seed=True)
    with pytest.raises(ValueError):
        fc.CheckConfig(seed=-4)


def test_symmetry_quarter_turn_breaks_unequal_principal_conductivities():
    """diag(1,2,3) is not z4-symmetric; the worst state is a zero-gradient
    one, where the conductivity deficit has max entry 1 and the flux norm in
    the denominator vanishes, so the relative residual is exactly 1."""
    result = fc.check_symmetry(fc.LinearConstant(DIAG123), fc.catalog_lookup("z4"), CFG)
    assert not result.passed
    assert result.max_residual == 1.0
    assert result.witness is not None
    assert np.array_equal(result.witness.group_element, fc.ROT_Z_90)
    assert np.all(result.witness.state.grad_theta == 0.0)
    assert result.witness.state.theta == CFG.theta_samples[0]
    assert result.samples_used == _linear_sample_total(4)


def test_symmetry_passes_for_matching_group():
    # diag(1,2,3) commutes with every axis half-turn
    result = fc.check_symmetry(
        fc.LinearConstant(DIAG123), fc.catalog_lookup("orthotropic"), CFG
    )
    assert result.passed
    assert result.max_residual == 0.0
    assert result.witness is None


def test_transversely_isotropic_conductor_passes_z_rotations():
    model = fc.LinearConstant(np.diag([2.0, 2.0, 5.0]))
    result = fc.check_symmetry(model, fc.catalog_lookup("transverse_z_8"), CFG)
    assert result.passed
    assert result.max_residual <= 1e-12


def test_trivial_group_symmetry_is_exact_for_every_model():
    trivial = fc.catalog_lookup("trivial")
    for _, model in MODEL_ROSTER:
        result = fc.check_symmetry(model, trivial, CFG)
        assert result.passed
        assert result.max_residual == 0.0


def test_isotropy_anchor_residual_and_witness():
    """For diag(1,2,3) the worst orthogonal element moves the z axis onto
    the x axis, residual exactly (3-1)=2 at a zero-gradient state.  The
    cubic rotations hold such elements, so the check fails on them, and the
    witness is the first in the group's order: the three-fold turn
    x -> y -> z -> x, whatever the seed."""
    result = fc.check_isotropy(fc.LinearConstant(DIAG123), CFG64)
    assert not result.passed
    assert result.max_residual == 2.0
    three_fold = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.array_equal(result.witness.group_element, three_fold)
    assert result.note.startswith("fails on the 24 cubic rotations")
    assert "counterexample" in result.note


def test_isotropy_accepts_spherical_models():
    assert fc.check_isotropy(fc.LinearConstant(2.5 * np.eye(3)), CFG64).passed
    assert fc.check_isotropy(fc.NonlinearIsotropic(1.0, 2.0), CFG64).passed


def test_rank_one_update_is_isotropy_compatible_exactly_when_spherical():
    # the outer-product term transforms covariantly; only a_tensor decides
    assert fc.check_isotropy(fc.NonlinearAnisotropic(2.0 * np.eye(3), 0.7), CFG64).passed
    result = fc.check_isotropy(fc.NonlinearAnisotropic(DIAG123, 0.7), CFG64)
    assert not result.passed
    assert result.max_residual >= 0.5


def test_isotropy_seed_invariance_of_the_verdict():
    for seed in (0, 1, 99):
        cfg = fc.CheckConfig(seed=seed, sample_count=64)
        assert not fc.check_isotropy(fc.LinearConstant(DIAG123), cfg).passed
        assert fc.check_isotropy(fc.LinearConstant(np.eye(3)), cfg).passed


def _certificate(model):
    """check_isotropy's certificate constant c = 4 max(1, |g|), |g| the
    largest sampled gradient: 4 without a gradient, 40 with one."""
    return 40.0 if model.gradient_dependent else 4.0


# the sampled check's own rounding, on top of the certificate's bound: at
# most 2.2e-15 over MODEL_ROSTER x seeds 0-99
ROUNDING = 1e-14


def _sampled(model, cfg):
    """The symmetry rows on the sampled full orthogonal group's stack, run
    through the kernel: check_symmetry's record for that group is
    check_isotropy's, so it cannot be the certificate's reference."""
    return fc.checks._symmetry_check(model, fc.orthogonal_check_set(cfg.seed, cfg.sample_count), cfg)


def test_isotropy_decides_as_the_sampled_group_within_its_certificate():
    """Over MODEL_ROSTER x seeds 0-99, check_isotropy decides on the cubic
    rotations alone, and its verdict is that of the symmetry rows on the
    sampled full orthogonal group, 256 Haar draws and the adversarial set;
    that group's maximum is at most c times the cubic one, plus rounding."""
    cubic = fc.checks._cubic_group()
    for seed in range(100):
        cfg = fc.CheckConfig(seed=seed)
        for name, model in MODEL_ROSTER:
            decided = fc.check_isotropy(model, cfg)
            sampled = _sampled(model, cfg)
            eps = fc.check_symmetry(model, cubic, cfg).max_residual
            assert "cubic rotations" in decided.note, (seed, name)
            assert decided.passed is sampled.passed, (seed, name)
            assert sampled.max_residual <= _certificate(model) * eps + ROUNDING, (seed, name)


def test_the_certificate_needs_its_constant():
    """A near-scalar conductivity whose sampled maximum is 1.56 times its
    cubic one: between tol = eps and tol = c eps the cubic rotations
    decide nothing, and the sampled group fails a law that certifying at
    eps <= tol would pass.  Where the sampled maximum is the smaller, the
    record reports eps."""
    k = fc.random_orthogonal(294) @ np.diag([0.0, 0.5e-6, 1e-6]) @ fc.random_orthogonal(294).T
    model = fc.LinearConstant(np.eye(3) + 0.5 * (k + k.T))
    eps = fc.check_symmetry(model, fc.checks._cubic_group(), CFG).max_residual
    sampled = _sampled(model, CFG).max_residual
    assert 1.5 * eps < sampled <= _certificate(model) * eps + ROUNDING
    between_cfg = replace(CFG, tol=0.5 * (eps + sampled))
    between = fc.check_isotropy(model, between_cfg)
    assert not between.passed and between.max_residual == sampled
    assert between.note.startswith("sampled check")
    # the configured sampled group's symmetry record is this decision
    configured = fc.check_symmetry(model, fc.catalog_lookup("full_orthogonal"), between_cfg)
    _assert_same_result(configured, between)
    assert configured.note == between.note
    certified = fc.check_isotropy(model, replace(CFG, tol=_certificate(model) * eps))
    assert certified.passed and certified.max_residual == eps
    assert certified.note.startswith("certified on the 24 cubic rotations: 4 *")
    below = fc.check_isotropy(model, replace(CFG, tol=float(np.nextafter(eps, 0.0))))
    assert not below.passed and below.note.startswith("fails on the 24 cubic rotations")
    # one Haar draw and the adversarial set miss this law's worst cubic
    # rotation: the record keeps the largest residual known, the cubic one
    one_draw = replace(CFG, sample_count=1)
    k = fc.random_orthogonal(77) @ np.diag([0.0, 0.5e-6, 1e-6]) @ fc.random_orthogonal(77).T
    model = fc.LinearConstant(1e-6 * np.eye(3) + 0.5 * (k + k.T))
    eps = fc.check_symmetry(model, fc.checks._cubic_group(), one_draw).max_residual
    sampled = _sampled(model, one_draw)
    assert sampled.max_residual < 0.95 * eps
    between = fc.check_isotropy(model, replace(one_draw, tol=eps))
    assert between.passed and between.max_residual == eps
    assert between.samples_used == sampled.samples_used
    assert between.note.startswith("sampled check")


@settings(max_examples=40)
@given(
    orientation=st.integers(0, 2**32 - 1),
    spread=st.floats(1e-9, 1.0),
    middle=st.floats(0.0, 1.0),
    c=st.none() | st.floats(-1.0, 1.0),
)
def test_no_orthogonal_element_beats_the_certificate(orientation, spread, middle, c):
    """A linear or rank-one-updated law of conductivity I + spread m in any
    orientation: the sampled group's maximum is at most c times the cubic
    rotations' one, plus rounding."""
    r = fc.random_orthogonal(orientation)
    k = np.eye(3) + r @ np.diag([0.0, middle * spread, spread]) @ r.T
    k = 0.5 * (k + k.T)
    model = fc.LinearConstant(k) if c is None else fc.NonlinearAnisotropic(k, c)
    eps = fc.check_symmetry(model, fc.checks._cubic_group(), CFG64).max_residual
    sampled = _sampled(model, CFG64)
    assert sampled.max_residual <= _certificate(model) * eps + ROUNDING


def test_symmetry_on_the_sampled_group_is_the_isotropy_record():
    """Symmetry under the full orthogonal group is isotropy, one decision:
    over MODEL_ROSTER x seeds 0-99, at the default tol and at 1e-300, the
    symmetry record on the sampled group is check_isotropy's field for
    field, witness arrays included."""
    full = fc.catalog_lookup("full_orthogonal")
    for tol in (CFG.tol, 1e-300):
        for seed in range(100):
            cfg = fc.CheckConfig(tol=tol, seed=seed)
            for name, model in MODEL_ROSTER:
                symmetry = fc.check_symmetry(model, full, cfg)
                isotropy = fc.check_isotropy(model, cfg)
                _assert_same_result(symmetry, isotropy)
                assert symmetry.note == isotropy.note, (tol, seed, name)


def test_symmetry_forms_agree_pointwise():
    """The flux-form deficit equals the conductivity-form deficit contracted
    with the gradient, so on unit gradients the two residual families agree
    to rounding for every (element, state) pair."""
    groups = [fc.catalog_lookup("z4"), fc.catalog_lookup("cubic_rotations")]
    for _, model in MODEL_ROSTER:
        for group in groups:
            q_form, k_form = symmetry_form_residuals(model, group, CFG)
            assert q_form.shape == k_form.shape
            # only the magnitude-1 rows have unit gradients: 35 per theta
            assert q_form.size == group.order * 3 * 35
            assert np.max(np.abs(q_form - k_form)) <= 1e-9


def test_monotone_group_refinement():
    # z4 is a subgroup of the cubic rotations: enlarging the group can only
    # raise the max residual
    for model in (fc.LinearConstant(DIAG123), fc.NonlinearAnisotropic(DIAG123, 0.5)):
        small = fc.check_symmetry(model, fc.catalog_lookup("z4"), CFG)
        big = fc.check_symmetry(model, fc.catalog_lookup("cubic_rotations"), CFG)
        assert small.max_residual <= big.max_residual + 1e-12


def test_frame_indifference_holds_for_anisotropic_models():
    observers = fc.random_observers(100, 0)
    group = fc.catalog_lookup("z4")
    for _, model in MODEL_ROSTER:
        result = fc.check_frame_indifference(model, group, observers, CFG)
        assert result.passed
        assert result.max_residual <= 1e-10
        assert result.note != ""
        assert result.witness is None


def _observer_map(model, q, thetas, grads_star, rotate_back_with_q=False):
    """One observer's component map written out, without ComponentMap: the
    flux rows Q q(theta, Q^T g*) and the conductivities Q kappa Q^T at
    Q^T g*, for S states.  With ``rotate_back_with_q`` it takes g* back to
    the canonical frame with Q instead of Q^T, a frame-handling bug."""
    q_t = np.ascontiguousarray(q.T)
    grads = grads_star @ (q_t if rotate_back_with_q else q)
    kappas = np.ascontiguousarray(model.kappa(thetas, grads))
    flux = np.einsum("sij,sj->si", kappas, grads) @ q_t
    return flux, np.einsum("ij,sjk,lk->sil", q, kappas, q)


def _rotate_back_with_q(monkeypatch):
    """Make ComponentMap take observer components back to the canonical
    frame with Q instead of Q^T.  The fault is put in its canonical side,
    which its flux and kappa share and which every check reads, as the map
    of each Q^T, so the element pass of H^T evaluates the law at H^T g."""
    canonical = fc.ComponentMap._canonical

    def rotated_with_q(cm, thetas, grads_star):
        return canonical(fc.ComponentMap(cm.model, transposes(cm.observers)), thetas, grads_star)

    monkeypatch.setattr(fc.ComponentMap, "_canonical", rotated_with_q)


def test_frame_indifference_fails_for_a_wrongly_rotated_component_map(monkeypatch):
    """A ComponentMap that takes observer components back to the canonical
    frame with Q instead of Q^T breaks the transformation law, and the check
    sees it even for a spherical conductor, whose conductivity form is blind
    to the rotation.  Observer independence fails too: the spherical law no
    longer looks the same to every observer."""
    _rotate_back_with_q(monkeypatch)
    model = fc.LinearConstant(2.5 * np.eye(3))
    observers = fc.random_observers(25, 0)
    result = fc.check_frame_indifference(model, fc.catalog_lookup("z4"), observers, CFG)
    assert not result.passed
    assert result.max_residual > 0.1
    assert result.witness is not None and result.witness.observer is not None
    assert not fc.check_observer_independence(model, observers, CFG).passed


class _Sweep:
    """The checks' states at every configured temperature, in order, built
    without checks._sample_states (which samples a temperature-independent
    law at the first temperature only)."""

    def __init__(self, model, cfg):
        dirs = fc.checks._unit_directions(cfg)
        mags = fc.checks.NONLINEAR_MAGNITUDES if model.gradient_dependent else (1.0,)
        per_theta = [np.zeros(3)] + [mag * d for mag in mags for d in dirs]
        self.thetas = np.array([t for t in cfg.theta_samples for _ in per_theta])
        self.grads = np.array(per_theta * len(cfg.theta_samples))
        self.kappas = np.ascontiguousarray(model.kappa(self.thetas, self.grads))
        self.fluxes = np.einsum("sij,sj->si", self.kappas, self.grads)
        self.denoms = 1.0 + np.linalg.norm(self.fluxes, axis=1)
        self.unit_rows = np.abs(np.linalg.norm(self.grads, axis=1) - 1.0) <= 1e-12

    def __getitem__(self, s):
        return fc.StatePoint(self.thetas[s], self.grads[s])


def _per_block(model, cfg):
    """Elements per fold block: _FOLD_STATES over the sampled state count."""
    states = fc.checks._sample_states(model, cfg).thetas.size
    return max(1, fc.checks._FOLD_STATES // states)


def _unfolded_frame_indifference(model, group, observers, cfg, rotate_back_with_q=False):
    """check_frame_indifference as a plain loop: one _observer_map call per
    (observer, element), every state at every configured temperature, in
    the check's row order: each block of consecutive elements as the fold
    takes them, every observer against it, then each of its elements.
    _worst gets each row as a one-row block."""

    def rows():
        elements = group.stack
        batch = _Sweep(model, cfg)
        kappa_raws = []
        for q in observers:
            q_t = np.ascontiguousarray(q.T)
            _, starred = _observer_map(model, q, batch.thetas, batch.grads @ q_t, rotate_back_with_q)
            back = np.einsum("ji,sjk,kl->sil", q, starred, q)
            kappa_raws.append(np.max(np.abs(batch.kappas - back), axis=(1, 2)))
        per_block = _per_block(model, cfg)
        for start in range(0, len(elements), per_block):
            for q, kappa_raw in zip(observers, kappa_raws):
                q_t = np.ascontiguousarray(q.T)
                for h in elements[start:start + per_block]:
                    # the map of H^T takes g to H g, or to H^T g under the fault
                    hg = batch.grads @ (h if rotate_back_with_q else h.T)
                    kappas_h = np.ascontiguousarray(model.kappa(batch.thetas, hg))
                    ref = np.einsum("sij,sj->si", kappas_h, hg)
                    starred, _ = _observer_map(model, q, batch.thetas, hg @ q_t, rotate_back_with_q)
                    flux_raw = np.linalg.norm(starred @ q - ref, axis=1)
                    rel = np.maximum(flux_raw, kappa_raw) / batch.denoms
                    yield rel[None], h[None], q[None], batch

    # the generator runs inside _worst, so inside this errstate
    with np.errstate(over="ignore", invalid="ignore"):
        return fc.checks._worst(rows(), cfg.tol)


def _assert_same_result(folded, unfolded):
    assert folded.passed == unfolded.passed
    assert folded.max_residual == unfolded.max_residual
    assert folded.samples_used == unfolded.samples_used
    assert (folded.witness is None) == (unfolded.witness is None)
    if folded.witness is not None:
        a, b = folded.witness, unfolded.witness
        assert np.array_equal(a.group_element, b.group_element)
        assert a.state.theta == b.state.theta
        assert np.array_equal(a.state.grad_theta, b.state.grad_theta)
        assert (a.observer is None) == (b.observer is None)
        assert a.observer is None or np.array_equal(a.observer, b.observer)


# a tolerance no rounding residual meets, so every check that is not exact
# fails and its witness pins the location of the maximum
STRICT = fc.CheckConfig(tol=1e-300)


def _ends_in_a_partial_block(model, group, cfg):
    """Does the fold split the group's elements into several blocks, the last
    one short?"""
    per_block = _per_block(model, cfg)
    return group.order > per_block and group.order % per_block != 0


@pytest.mark.parametrize("cfg", [CFG, STRICT], ids=["default_tol", "strict_tol"])
def test_folded_frame_indifference_matches_the_unfolded_loop(cfg):
    observers = fc.random_observers(4, 3)
    # the last block is partial for every family: transverse_z_20 spans
    # 16 + 4 elements for the gradient-dependent ones, transverse_z_190
    # 3 x 49 + 43 for the constant one and 11 x 16 + 14 for the
    # temperature-scaled one
    small, big = fc.catalog_lookup("transverse_z_20"), fc.catalog_lookup("transverse_z_190")
    for _, model in MODEL_ROSTER:
        groups = [small] if model.gradient_dependent else [small, big]
        for group in groups:
            folded = fc.check_frame_indifference(model, group, observers, cfg)
            _assert_same_result(
                folded, _unfolded_frame_indifference(model, group, observers, cfg)
            )
        assert _ends_in_a_partial_block(model, groups[-1], cfg), model


def test_folded_frame_indifference_matches_the_unfolded_loop_on_failures(monkeypatch):
    observers = fc.random_observers(25, 0)
    group = fc.catalog_lookup("transverse_z_7")
    # non-finite at the earliest sample: the witness is the first NaN
    overflow = fc.LinearTemperature(DIAG123, (0.0, 0.0, 1e308))
    folded = fc.check_frame_indifference(overflow, group, observers, CFG)
    assert folded.max_residual == np.inf
    _assert_same_result(folded, _unfolded_frame_indifference(overflow, group, observers, CFG))

    # a wrongly rotated ComponentMap gives a finite failing witness, the
    # plain loop's under the same wrong map
    _rotate_back_with_q(monkeypatch)
    for model in (fc.LinearConstant(2.5 * np.eye(3)), fc.NonlinearAnisotropic(DIAG123, 0.5)):
        folded = fc.check_frame_indifference(model, group, observers, CFG)
        assert not folded.passed and 0.1 < folded.max_residual < np.inf
        unfolded = _unfolded_frame_indifference(model, group, observers, CFG, rotate_back_with_q=True)
        _assert_same_result(folded, unfolded)


def _index_of(stack, m):
    return int(np.flatnonzero((stack == m).all(axis=(1, 2)))[0])


def test_frame_indifference_rows_come_block_then_observer_then_element(monkeypatch):
    """Ties among exactly equal failing rows break toward the earliest row,
    and the rows come element block by element block, every observer
    against a block, then the block's elements in order."""
    observers = fc.random_observers(3, 0)
    group = fc.catalog_lookup("transverse_z_192")
    model = fc.LinearTemperature(DIAG123, (1.0, 0.01))
    per_block = _per_block(model, CFG)
    assert group.order > per_block
    seen = []
    worst = fc.checks._worst

    def recorded(blocks, *args):
        def tagged():
            for block in blocks:
                rel, hs, qs, _ = block
                assert len(hs) == len(qs) == len(rel)
                for h, q in zip(hs, qs):
                    seen.append((_index_of(group.stack, h), _index_of(observers, q)))
                yield block

        return worst(tagged(), *args)

    monkeypatch.setattr(fc.checks, "_worst", recorded)
    fc.check_frame_indifference(model, group, observers, CFG)
    want = [
        (e, o)
        for start in range(0, group.order, per_block)
        for o in range(len(observers))
        for e in range(start, min(start + per_block, group.order))
    ]
    assert seen == want


def test_frame_indifference_holds_one_element_block_at_a_time():
    """H g and q(theta, H g) are made one block of at most _FOLD_STATES
    states at a time and dropped, so the check's memory does not grow with
    the group's order: 2,000 elements against 2 observers peak near 0.55 MB
    under tracemalloc, where holding every block took 10.9 MB."""
    model = fc.LinearTemperature(np.diag([1.0, 1.0, 3.0]), (1.0, 0.01))
    group = fc.catalog_lookup("transverse_z_2000")
    observers = fc.random_observers(2, 0)
    tracemalloc.start()
    try:
        result = fc.check_frame_indifference(model, group, observers, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed and result.samples_used == 2 * 2000 * 108
    assert peak < 1_000_000, peak


@pytest.mark.parametrize(
    "config, calls",
    [("configs/anisotropic.ini", 3), ("tests/golden/heavy.ini", 150),
     ("tests/golden/big_group.ini", 300)],
)
def test_frame_indifference_stacks_observers_in_its_flux_form(monkeypatch, config, calls):
    """The flux form runs _map_pass over runs of consecutive observers
    against each element block, at most _FOLD_STATES states a call: the
    canned anisotropic config's 25 observers against one block of 4
    elements of 36 states make 3 calls, not 25.  heavy's 100 observers take
    one call each against its first block of 16 elements of 106 states,
    and two each against its last block of 8.  big_group's blocks of 16
    elements of 108 states leave room for one observer a call, so it makes
    one call per observer and block.  The conductivity form makes the first
    turned pass, over the S sampled states; every later one is the flux
    form's, over a block's rows."""
    cfg = fc.parse_config((ROOT / config).read_bytes())
    passes = []
    map_pass = fc.checks._map_pass

    def recorded(model, stack, thetas, grads, turned=False):
        runs = []
        if turned:
            passes.append((len(grads), runs))
        for out in map_pass(model, stack, thetas, grads, turned):
            runs.append(len(out[1]) * len(grads))
            yield out

    monkeypatch.setattr(fc.checks, "_map_pass", recorded)
    group = fc.build_group(cfg.group)
    model, observers = fc.build_model(cfg.model), fc.build_observers(cfg)
    fc.check_frame_indifference(model, group, observers, cfg.run)
    assert passes[0][0] == fc.checks._sample_states(model, cfg.run).thetas.size
    states = [rows for _, runs in passes[1:] for rows in runs]
    assert len(states) == calls
    assert max(states) <= fc.checks._FOLD_STATES


@pytest.mark.parametrize("label", [label for label, _ in MODEL_ROSTER])
def test_frame_indifference_hands_every_map_the_sampled_temperatures(monkeypatch, label):
    """Every map of frame indifference, the flux form's over an element
    block's rows included, gets the S sampled temperatures, whatever the law
    reads: the map repeats them over its rows itself."""
    model = dict(MODEL_ROSTER)[label]
    sizes = []
    canonical = fc.ComponentMap._canonical

    def recorded(cm, thetas, grads_star):
        sizes.append(thetas.size)
        return canonical(cm, thetas, grads_star)

    monkeypatch.setattr(fc.ComponentMap, "_canonical", recorded)
    states = fc.checks._sample_states(model, CFG).thetas.size
    observers = fc.random_observers(4, 0)
    fc.check_frame_indifference(model, fc.catalog_lookup("transverse_z_7"), observers, CFG)
    assert sizes and set(sizes) == {states}, (set(sizes), states)


def _per_element_symmetry(model, group, cfg):
    """The symmetry kernel and symmetry_form_residuals as a plain loop over
    check_elements(group, cfg), every deficit computed at every state and
    every configured temperature."""
    elements = check_elements(group, cfg)
    batch = _Sweep(model, cfg)
    kappas = batch.kappas
    rels, flux, kappa = [], [], []
    for h in elements:
        hg = batch.grads @ h.T
        kappas_h = kappas
        if model.gradient_dependent:
            kappas_h = np.ascontiguousarray(model.kappa(batch.thetas, hg))
        flux_h = np.einsum("sij,sj->si", kappas_h, hg)
        flux_raw = np.linalg.norm(flux_h @ h - batch.fluxes, axis=1)
        deficit = np.einsum("ij,sjk->sik", h, kappas) - np.einsum("sij,jk->sik", kappas_h, h)
        rel = np.maximum(flux_raw, np.max(np.abs(deficit), axis=(1, 2))) / batch.denoms
        rels.append((rel[None], h[None], None, batch))
        contracted = np.linalg.norm(np.einsum("sij,sj->si", deficit, batch.grads), axis=1)
        flux.append((flux_raw / batch.denoms)[batch.unit_rows])
        kappa.append((contracted / batch.denoms)[batch.unit_rows])
    result = fc.checks._worst(iter(rels), cfg.tol)
    return result, np.concatenate(flux), np.concatenate(kappa)


def _kernel_symmetry(model, group, cfg):
    """check_symmetry on a finite group; on the sampled full orthogonal
    group, whose check_symmetry record is check_isotropy's, the same kernel
    on that group's sampled stack."""
    if group.stack is not None:
        return fc.check_symmetry(model, group, cfg)
    return _sampled(model, cfg)


@pytest.mark.parametrize("cfg", [CFG, STRICT], ids=["default_tol", "strict_tol"])
def test_folded_symmetry_matches_the_per_element_loop(cfg):
    # the last block is partial on transverse_z_190 for every family
    # (11 x 16 + 14 elements for the gradient-dependent and the
    # temperature-scaled ones, 3 x 49 + 43 for the constant one)
    names = ("transverse_z_7", "transverse_z_190", "full_orthogonal")
    groups = [fc.catalog_lookup(name) for name in names]
    models = [model for _, model in MODEL_ROSTER] + [OVERFLOW]
    with np.errstate(over="ignore", invalid="ignore"):
        for model in models:
            for group in groups:
                expected, flux, kappa = _per_element_symmetry(model, group, cfg)
                _assert_same_result(_kernel_symmetry(model, group, cfg), expected)
                got_flux, got_kappa = symmetry_form_residuals(model, group, cfg)
                assert np.array_equal(got_flux, flux, equal_nan=True)
                assert np.array_equal(got_kappa, kappa, equal_nan=True)
            assert _ends_in_a_partial_block(model, groups[1], cfg), model
    # the overflow model's witness is its earliest non-finite sample: the
    # zero gradient at theta = 1, where kappa first overflows
    result = fc.check_symmetry(OVERFLOW, groups[0], cfg)
    assert result.max_residual == np.inf
    assert result.witness.state.theta == 1.0
    assert not np.any(result.witness.state.grad_theta)


@pytest.mark.parametrize("name", ["cubic_rotations", "transverse_z_7"])
def test_symmetry_under_h_is_the_component_map_of_h_transpose(name):
    """The map of observer H^T is H^T q(theta, H g) at g, so the symmetry
    check's flux rows are that map's residuals against q(theta, g), bit for
    bit."""
    elements = fc.catalog_lookup(name).stack
    for label, model in MODEL_ROSTER:
        batch = fc.checks._sample_states(model, CFG)
        rows = [flux for _, flux, _ in fc.checks._symmetry_rows(model, elements, batch)]
        grads = np.broadcast_to(batch.grads, (len(elements),) + batch.grads.shape)
        mapped = fc.ComponentMap(model, transposes(elements)).flux(batch.thetas, grads)
        expected = np.linalg.norm(mapped - batch.fluxes, axis=-1)
        assert np.array_equal(np.concatenate(rows), expected), label


def test_the_checks_read_each_law_flag_in_one_place():
    """No residual code in checks.py branches on a law flag: the gradient
    flag sets the sampled magnitudes and the temperature flag the sampled
    temperatures, and ComponentMap alone shares a gradient-free law's
    stack."""
    flags = {"gradient_dependent", "temperature_dependent"}
    readers = {}
    for top in ast.parse(Path(fc.checks.__file__).read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in flags:
                readers.setdefault(node.attr, set()).add(getattr(top, "name", None))
    assert readers == {
        "gradient_dependent": {"_magnitudes"},
        "temperature_dependent": {"_sample_states"},
    }


def test_the_checks_build_a_component_map_in_one_place():
    """Every check reads its law through _map_pass: no other code in
    checks.py constructs a ComponentMap."""
    builders = set()
    for top in ast.parse(Path(fc.checks.__file__).read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ComponentMap":
                builders.add(getattr(top, "name", None))
    assert builders == {"_map_pass"}


def _plain_observer_independence(model, observers, cfg):
    """check_observer_independence as a plain loop over the observers, one
    _observer_map call each, every state at every configured temperature,
    each row handed to _worst as a one-row block."""
    batch = _Sweep(model, cfg)

    def rows():
        for q in observers:
            flux_star, kappa_star = _observer_map(model, q, batch.thetas, batch.grads)
            flux_raw = np.linalg.norm(flux_star - batch.fluxes, axis=1)
            kappa_raw = np.max(np.abs(kappa_star - batch.kappas), axis=(1, 2))
            rel = np.maximum(flux_raw, kappa_raw) / batch.denoms
            yield rel[None], q[None], q[None], batch

    with np.errstate(over="ignore", invalid="ignore"):
        return fc.checks._worst(rows(), cfg.tol)


# one temperature, a repeated unsorted set and a descending set: a law that
# ignores the temperature is sampled at the first one and counts them all
OTHER_THETAS = {
    "one": (1.0,),
    "repeated": (300.0, 0.5, 300.0),
    "descending": (300.0, 1.0, 0.5),
}


@pytest.mark.parametrize("thetas", sorted(OTHER_THETAS))
@pytest.mark.parametrize("cfg", [CFG, STRICT], ids=["default_tol", "strict_tol"])
def test_checks_match_the_reference_loops_at_other_temperatures(cfg, thetas):
    cfg = replace(cfg, theta_samples=OTHER_THETAS[thetas], sample_count=8)
    observers = fc.random_observers(4, 3)
    groups = [fc.catalog_lookup("transverse_z_7"), fc.catalog_lookup("full_orthogonal")]
    for _, model in MODEL_ROSTER:
        _assert_same_result(
            fc.check_observer_independence(model, observers, cfg),
            _plain_observer_independence(model, observers, cfg),
        )
        _assert_same_result(
            fc.check_frame_indifference(model, groups[0], observers, cfg),
            _unfolded_frame_indifference(model, groups[0], observers, cfg),
        )
        for group in groups:
            expected, flux, kappa = _per_element_symmetry(model, group, cfg)
            _assert_same_result(_kernel_symmetry(model, group, cfg), expected)
            got_flux, got_kappa = symmetry_form_residuals(model, group, cfg)
            assert np.array_equal(got_flux, flux)
            assert np.array_equal(got_kappa, kappa)


def _kappa_call_sizes(monkeypatch, model):
    """Record the number of rows each call of model.kappa is handed."""
    sizes = []
    kappa = type(model).kappa

    def counted(self, thetas, grads):
        sizes.append(len(grads))
        return kappa(self, thetas, grads)

    monkeypatch.setattr(type(model), "kappa", counted)
    return sizes


@pytest.mark.parametrize("label", [label for label, _ in MODEL_ROSTER])
def test_observer_checks_evaluate_a_law_in_bounded_calls(monkeypatch, label):
    """Neither observer check hands a gradient-free law more than the S
    sampled states in one call: its conductivity is evaluated once per state
    and shared by every observer and element.  A gradient-dependent law gets
    at most _FOLD_STATES rows a call (one observer's states when those are
    more)."""
    model = dict(MODEL_ROSTER)[label]
    observers = fc.random_observers(25, 0)
    states = fc.checks._sample_states(model, CFG).thetas.size
    bound = max(fc.checks._FOLD_STATES, states) if model.gradient_dependent else states
    sizes = _kappa_call_sizes(monkeypatch, model)
    fc.check_frame_indifference(model, fc.catalog_lookup("transverse_z_192"), observers, CFG)
    fc.check_observer_independence(model, observers, CFG)
    assert sizes and max(sizes) <= bound, (max(sizes), bound)


@pytest.mark.parametrize("label", [label for label, _ in MODEL_ROSTER])
def test_observer_independence_evaluates_a_law_once_a_run(monkeypatch, label):
    """One model.kappa call samples the states, and one per run of
    observers reads both forms: the flux and the conductivity come from one
    canonical side."""
    model = dict(MODEL_ROSTER)[label]
    observers = fc.random_observers(25, 0)
    states = fc.checks._sample_states(model, CFG).thetas.size
    # runs of _FOLD_STATES // S observers (one at least), the last one short
    runs = -(-len(observers) // max(1, fc.checks._FOLD_STATES // states))
    sizes = _kappa_call_sizes(monkeypatch, model)
    fc.check_observer_independence(model, observers, CFG)
    assert len(sizes) == 1 + runs, (len(sizes), runs)


@pytest.mark.parametrize("name", ["cubic_rotations", "transverse_z_7"])
def test_observer_independence_under_h_transpose_is_symmetry_under_h(monkeypatch, name):
    """Observer independence under the observers H^T has the flux rows of
    the symmetry check under H, bit for bit: |Q q(theta, Q^T g) - q(theta, g)|
    with Q = H^T is |H^T q(theta, H g) - q(theta, g)|."""
    elements = fc.catalog_lookup(name).stack
    norms = fc.checks.row_norms
    flux_rows = []

    def recorded(vectors):
        out = norms(vectors)
        if vectors.ndim == 3:  # the observer runs' flux rows, not the sampled fluxes
            flux_rows.append(out)
        return out

    monkeypatch.setattr(fc.checks, "row_norms", recorded)
    for label, model in MODEL_ROSTER:
        batch = fc.checks._sample_states(model, CFG)
        symmetry = [flux for _, flux, _ in fc.checks._symmetry_rows(model, elements, batch)]
        flux_rows.clear()
        fc.check_observer_independence(model, transposes(elements), CFG)
        assert np.array_equal(np.concatenate(flux_rows), np.concatenate(symmetry)), label


def _count_state_points(monkeypatch):
    built = []
    post_init = fc.StatePoint.__post_init__

    def counted(state):
        built.append(state)
        post_init(state)

    monkeypatch.setattr(fc.StatePoint, "__post_init__", counted)
    return built


def test_only_a_witness_builds_a_state_point(monkeypatch):
    built = _count_state_points(monkeypatch)
    observers = fc.random_observers(5, 0)
    z4 = fc.catalog_lookup("z4")
    spherical, diagonal = fc.LinearConstant(2.5 * np.eye(3)), fc.LinearConstant(DIAG123)
    passing = [
        fc.check_symmetry(diagonal, fc.catalog_lookup("orthotropic"), CFG),
        fc.check_frame_indifference(diagonal, z4, observers, CFG),
        fc.check_observer_independence(spherical, observers, CFG),
    ]
    assert all(r.passed for r in passing) and built == []

    def failing():
        yield fc.check_symmetry(diagonal, z4, CFG)
        yield fc.check_observer_independence(diagonal, observers, CFG)
        _rotate_back_with_q(monkeypatch)
        yield fc.check_frame_indifference(spherical, z4, observers, CFG)

    for result in failing():
        assert not result.passed
        assert built == [result.witness.state]
        built.clear()


def test_observer_independence_anchor():
    """A quarter-z observer sees diag(1,2,3) as diag(2,1,3): component
    mismatch 1 at the zero-gradient state, so the residual is exactly 1."""
    result = fc.check_observer_independence(fc.LinearConstant(DIAG123), [fc.ROT_Z_90], CFG)
    assert not result.passed
    assert result.max_residual == 1.0
    assert result.witness is not None
    assert np.array_equal(result.witness.observer, fc.ROT_Z_90)


def test_observer_independence_verdicts():
    observers = fc.random_observers(50, 0)
    assert fc.check_observer_independence(
        fc.LinearConstant(2.5 * np.eye(3)), observers, CFG
    ).passed
    assert not fc.check_observer_independence(
        fc.LinearConstant(DIAG123), observers, CFG
    ).passed


def test_isotropy_implies_observer_independence_at_looser_tol():
    """Models that pass the isotropy check also look identical to observers
    built from the sampled orthogonal group's elements, at ten times the
    tolerance."""
    elements = fc.orthogonal_check_set(CFG64.seed, CFG64.sample_count)
    observers = fc.observer_stack(elements)
    loose = fc.CheckConfig(tol=10.0 * CFG.tol)
    for _, model in MODEL_ROSTER:
        if fc.check_isotropy(model, CFG64).passed:
            assert fc.check_observer_independence(model, observers, loose).passed


def test_zero_map_is_exact():
    for _, model in MODEL_ROSTER:
        result = fc.check_zero_map(model, CFG)
        assert result.passed
        assert result.max_residual == 0.0
        assert result.samples_used == len(CFG.theta_samples)
        assert result.witness is None


def test_schur_reduce_recovers_scalar():
    ok, alpha, residual = fc.schur_reduce(2.5 * np.eye(3), CFG)
    assert ok
    assert alpha == 2.5
    assert residual <= 1e-12


def test_schur_reduce_rejects_non_scalar():
    """The residual is relative to the largest entry: diag(1, 2, 3) / 3
    differs from its Rz90 conjugate by 1 - 1/3 on the diagonal."""
    ok, alpha, residual = fc.schur_reduce(DIAG123, CFG)
    assert not ok
    assert alpha is None
    assert residual == 1.0 - 1.0 / 3.0


def test_schur_reduce_tolerates_rounding_noise():
    skew = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    ok, alpha, residual = fc.schur_reduce(2.0 * np.eye(3) + 1e-15 * skew, CFG)
    assert ok
    assert abs(alpha - 2.0) <= 1e-12
    assert residual <= 1e-12


def test_schur_reduce_catches_small_but_real_anisotropy():
    ok, alpha, _ = fc.schur_reduce(np.eye(3) + 1e-6 * np.diag([0.0, 0.0, 1.0]), CFG)
    assert not ok
    assert alpha is None


def test_schur_reduce_rejects_a_tiny_anisotropic_tensor():
    """1e-10 diag(1, 2, 3) is as anisotropic as diag(1, 2, 3): its absolute
    conjugation residual, 2e-10, used to pass tol, while the classifier
    called it orthotropic."""
    ok, alpha, residual = fc.schur_reduce(1e-10 * DIAG123, CFG)
    assert not ok
    assert alpha is None
    assert residual >= 0.5
    assert fc.classify_linear_symmetry(1e-10 * DIAG123, CFG) is fc.LinearSymmetryClass.ORTHOTROPIC


def test_schur_reduce_recovers_a_large_scalar():
    """2e6 I is a multiple of I: the rounding of 268 sampled conjugations,
    about 4e-10 times 2e6, used to fail it, while the classifier called it
    isotropic.  The cubic rotations conjugate it exactly."""
    assert fc.schur_reduce(2e6 * np.eye(3), CFG) == (True, 2e6, 0.0)
    assert fc.classify_linear_symmetry(2e6 * np.eye(3), CFG) is fc.LinearSymmetryClass.ISOTROPIC


def test_a_tensor_off_scalar_by_more_than_tol_is_not_isotropic():
    """diag(1, 1 + 5e-9, 1 + 7.5e-9) sits 4.2e-9 off scalar.  Its eigenvalue
    gaps were merged at 1e-8 and it was labelled isotropic, though
    check_isotropy fails it at the same tol of 1e-9; now all three say no."""
    k = np.diag([1.0, 1.0 + 5e-9, 1.0 + 7.5e-9])
    assert fc.classify_linear_symmetry(k, CFG) is not fc.LinearSymmetryClass.ISOTROPIC
    assert not fc.schur_reduce(k, CFG).is_isotropic_invariant
    assert not fc.check_isotropy(fc.LinearConstant(k), CFG).passed


@settings(max_examples=150)
@given(
    orientation=st.integers(0, 2**32 - 1),
    spread=st.just(0.0) | st.floats(1e-7, 1.0),
    middle=st.floats(0.0, 1.0),
)
def test_one_isotropy_decision(orientation, spread, middle):
    """The classifier's isotropic label, schur_reduce's verdict and
    check_isotropy agree on a tensor of largest entry 1 in any
    orientation, isotropic (spread 0) or with eigenvalues 1, 1 + middle
    spread and 1 + spread at a spread of 1e-7 to 1; and the label,
    verdict and residual do not change when the tensor is scaled by 2**k."""
    r = fc.random_orthogonal(orientation)
    k = r @ np.diag([1.0, 1.0 + middle * spread, 1.0 + spread]) @ r.T
    k = 0.5 * (k + k.T)
    k /= fc.max_abs(k)
    label = fc.classify_linear_symmetry(k, CFG)
    reduced = fc.schur_reduce(k, CFG)
    checked = fc.check_isotropy(fc.LinearConstant(k), CFG).passed
    isotropic = spread == 0.0
    assert (label is fc.LinearSymmetryClass.ISOTROPIC) is isotropic
    assert reduced.is_isotropic_invariant is isotropic
    assert checked is isotropic
    for exponent in (-900, -1, 1, 900):
        scaled = np.ldexp(k, exponent)
        assert fc.classify_linear_symmetry(scaled, CFG) is label
        again = fc.schur_reduce(scaled, CFG)
        assert again.is_isotropic_invariant is reduced.is_isotropic_invariant
        assert again.residual == reduced.residual
        if isotropic:
            assert again.alpha == np.ldexp(reduced.alpha, exponent)


def test_classify_linear_symmetry():
    assert (
        fc.classify_linear_symmetry(4.0 * np.eye(3), CFG)
        is fc.LinearSymmetryClass.ISOTROPIC
    )
    assert (
        fc.classify_linear_symmetry(np.diag([2.0, 2.0, 5.0]), CFG)
        is fc.LinearSymmetryClass.TRANSVERSELY_ISOTROPIC
    )
    assert (
        fc.classify_linear_symmetry(np.diag([5.0, 2.0, 2.0]), CFG)
        is fc.LinearSymmetryClass.TRANSVERSELY_ISOTROPIC
    )
    assert (
        fc.classify_linear_symmetry(DIAG123, CFG) is fc.LinearSymmetryClass.ORTHOTROPIC
    )


def test_classify_cross_checks_the_tensor_its_label_describes():
    """One tol decides both steps, on the tensor itself.  A pair of
    eigenvalues counts as equal when their gap is at most tol times the
    largest magnitude, half of that here, and not at one and a half times
    it; a triple within 0.75 tol of the largest entry is isotropic, and one
    5e-9 apart, whose smaller gap is within tol, is transversely isotropic.
    In the eigenframe and in a rotated one, for a low pair, a high pair and
    a triple."""
    T = fc.LinearSymmetryClass
    r = fc.random_orthogonal(5, proper_only=True)
    for diagonal, label in (
        ((1.0, 1.0 + 1.5e-9, 3.0), T.TRANSVERSELY_ISOTROPIC),
        ((1.0, 3.0, 3.0 + 1.5e-9), T.TRANSVERSELY_ISOTROPIC),
        ((1.0, 1.0 + 4.5e-9, 3.0), T.ORTHOTROPIC),
        ((1.0, 3.0, 3.0 + 4.5e-9), T.ORTHOTROPIC),
        ((1.0, 1.0 + 5e-10, 1.0 + 7.5e-10), T.ISOTROPIC),
        ((1.0, 1.0 + 5e-10, 1.0 + 5e-9), T.TRANSVERSELY_ISOTROPIC),
    ):
        k = np.diag(diagonal)
        assert fc.classify_linear_symmetry(k, CFG) is label, diagonal
        assert fc.classify_linear_symmetry(r @ k @ r.T, CFG) is label, diagonal


def test_isotropic_cross_check_rejects_every_off_scalar_direction():
    """The one isotropy test sees a 1e-6 step off I on each diagonal entry
    and each symmetric off-diagonal pair, at its full size relative to the
    largest entry, so neither the label nor schur_reduce passes it; a group
    of rotations about one axis, such as transverse_z_8, is blind to a step
    along that axis and would certify diag(1, 1, 1 + 1e-6)."""
    for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)):
        k = np.eye(3)
        k[i, j] = k[j, i] = k[i, j] + 1e-6
        passed, residual, _ = fc.checks._cubic_test(k, CFG)
        assert not passed, (i, j)
        assert residual >= 1e-6 / fc.max_abs(k) * (1 - 1e-9), (i, j)
        assert not fc.schur_reduce(k, CFG).is_isotropic_invariant, (i, j)
        assert fc.classify_linear_symmetry(k, CFG) is not fc.LinearSymmetryClass.ISOTROPIC
    z_axis_step = fc.LinearConstant(np.diag([1.0, 1.0, 1.0 + 1e-6]))
    assert fc.check_symmetry(z_axis_step, fc.catalog_lookup("transverse_z_8"), CFG).passed


def test_classify_makes_its_groups_once(monkeypatch):
    """The cubic group that the classifier, schur_reduce and check_isotropy
    share is looked up on the first call only, and it is the 24 exact cubic
    rotations, not a sample: signed permutation matrices, each proper."""
    calls = []
    lookup = fc.checks.catalog_lookup
    monkeypatch.setattr(fc.checks, "catalog_lookup", lambda name: calls.append(name) or lookup(name))
    fc.checks._cubic_group.cache_clear()
    try:
        for _ in range(2):
            for k in (4.0 * np.eye(3), np.diag([2.0, 2.0, 5.0]), DIAG123):
                fc.classify_linear_symmetry(k, CFG)
                fc.schur_reduce(k, CFG)
                fc.check_isotropy(fc.LinearConstant(k), CFG64)
        stack = fc.checks._cubic_group().stack
    finally:
        fc.checks._cubic_group.cache_clear()
    assert calls == ["cubic_rotations"]
    assert stack.shape == (24, 3, 3)
    assert np.array_equal(np.abs(stack).sum(axis=1), np.ones((24, 3)))
    assert np.array_equal(np.abs(stack).sum(axis=2), np.ones((24, 3)))
    assert np.all(np.linalg.det(stack) > 0)


_TWO_THIRDS_CFG = fc.CheckConfig(theta_samples=(1.0,), gradient_samples=1)


@given(
    entries=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
    offset=st.floats(-1e3, 1e3),
    exponent=st.integers(-5, 5),
    symmetric=st.booleans(),
)
def test_cubic_commutators_bound_the_distance_to_the_scalars(entries, offset, exponent, symmetric):
    """|kappa - tr kappa / 3 I|_max <= (2/3) M, where M is the largest
    commutator |H kappa - kappa H|_max over cubic_rotations, which
    check_symmetry's residual is at least (the zero-gradient state has
    denominator 1).  Symmetric or not, near-scalar or not, at scales 1e-5 to
    1e5.  Rounding allowance: the commutators of signed permutations are
    single differences, and tr / 3 and the deviation add three roundings, so
    4 eps max|kappa| covers them."""
    k = np.array(entries).reshape(3, 3) + offset * np.eye(3)
    if symmetric:
        k = 0.5 * (k + k.T)
    k *= 10.0**exponent
    cubic = fc.catalog_lookup("cubic_rotations")
    residual = fc.check_symmetry(fc.LinearConstant(k), cubic, _TWO_THIRDS_CFG).max_residual
    commutator = max(np.max(np.abs(h @ k - k @ h)) for h in cubic.elements)
    assert residual >= commutator
    deviation = np.max(np.abs(k - np.trace(k) / 3.0 * np.eye(3)))
    allowance = 4 * np.finfo(float).eps * np.max(np.abs(k))
    assert deviation <= 2.0 / 3.0 * commutator + allowance


def test_classify_survives_conductivities_near_the_float_limit():
    """Eigenvalue multiplicity does not depend on scale; at 1e200 the
    cross-check's |q|^2 used to overflow and raise."""
    for scale in (1e200, 1e308):
        assert (
            fc.classify_linear_symmetry(scale * np.diag([1.0, 1.7, 1.7]), CFG)
            is fc.LinearSymmetryClass.TRANSVERSELY_ISOTROPIC
        )


def test_classify_does_not_depend_on_scale_below_unity():
    """The eigenvalue gap tolerance is relative: a small orthotropic tensor
    is not lumped into the isotropic class (whose cross-check then failed),
    and a tiny transversely isotropic one is not called isotropic."""
    assert (
        fc.classify_linear_symmetry(1e-9 * DIAG123, CFG)
        is fc.LinearSymmetryClass.ORTHOTROPIC
    )
    assert (
        fc.classify_linear_symmetry(1e-300 * np.diag([1.0, 1.7, 1.7]), CFG)
        is fc.LinearSymmetryClass.TRANSVERSELY_ISOTROPIC
    )
    assert (
        fc.classify_linear_symmetry(np.zeros((3, 3)), CFG)
        is fc.LinearSymmetryClass.ISOTROPIC
    )


SPECTRA = {
    fc.LinearSymmetryClass.ISOTROPIC: (2.0, 2.0, 2.0),
    fc.LinearSymmetryClass.TRANSVERSELY_ISOTROPIC: (1.0, 1.0, 4.0),
    fc.LinearSymmetryClass.ORTHOTROPIC: (1.0, 2.0, 3.0),
}


@given(orientation=st.integers(0, 2**32 - 1), exponent=st.integers(-1000, 1000))
def test_classify_label_survives_scaling_by_powers_of_two(orientation, exponent):
    r = fc.random_orthogonal(orientation, proper_only=True)
    for label, spectrum in SPECTRA.items():
        k = r @ np.diag(spectrum) @ r.T
        k = 0.5 * (k + k.T)
        assert fc.classify_linear_symmetry(np.ldexp(k, exponent), CFG) is label


def test_classify_is_orientation_independent():
    r = fc.random_orthogonal(17, proper_only=True)
    k = r @ np.diag([1.0, 1.0, 4.0]) @ r.T
    k = 0.5 * (k + k.T)
    assert (
        fc.classify_linear_symmetry(k, CFG)
        is fc.LinearSymmetryClass.TRANSVERSELY_ISOTROPIC
    )


def test_classify_rejects_non_symmetric():
    skewed = DIAG123 + 1e-3 * np.array(
        [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    )
    with pytest.raises(fc.NotSymmetric):
        fc.classify_linear_symmetry(skewed, CFG)


def test_classify_skew_test_is_relative_to_the_tensor():
    """The skew part is measured against the tensor's largest entry: a tiny
    tensor whose skew part is a third of its scale is rejected, and a huge
    symmetric one carrying only the rounding of its rotation is accepted."""
    tiny_skewed = 1e-300 * np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
    with pytest.raises(fc.NotSymmetric):
        fc.classify_linear_symmetry(tiny_skewed, CFG)
    r = fc.random_orthogonal(0, proper_only=True)
    huge = r @ (1e300 * DIAG123) @ r.T  # not scrubbed with 0.5 * (k + k.T)
    assert fc.max_abs(huge - huge.T) > 1e-9
    assert fc.classify_linear_symmetry(huge, CFG) is fc.LinearSymmetryClass.ORTHOTROPIC


def test_check_results_are_bit_reproducible():
    model = fc.LinearConstant(DIAG123)
    first = fc.check_isotropy(model, fc.CheckConfig(seed=5, sample_count=64))
    second = fc.check_isotropy(model, fc.CheckConfig(seed=5, sample_count=64))
    assert first.max_residual == second.max_residual
    assert first.samples_used == second.samples_used
    assert np.array_equal(first.witness.group_element, second.witness.group_element)
    assert np.array_equal(first.witness.state.grad_theta, second.witness.state.grad_theta)
    obs = fc.random_observers(10, 5)
    a = fc.check_observer_independence(model, obs, fc.CheckConfig(seed=5))
    b = fc.check_observer_independence(model, obs, fc.CheckConfig(seed=5))
    assert a.max_residual == b.max_residual


def test_witness_present_iff_failed():
    passing = fc.check_symmetry(
        fc.LinearConstant(np.eye(3)), fc.catalog_lookup("z4"), CFG
    )
    failing = fc.check_symmetry(fc.LinearConstant(DIAG123), fc.catalog_lookup("z4"), CFG)
    assert passing.passed and passing.witness is None
    assert not failing.passed and failing.witness is not None


def test_nonlinear_gradient_states_are_probed():
    # gradient-dependent families sweep three magnitudes, tripling the
    # directional states
    model = fc.NonlinearAnisotropic(DIAG123, 0.5)
    result = fc.check_symmetry(model, fc.catalog_lookup("z4"), CFG)
    assert result.samples_used == 4 * 3 * (1 + 3 * 35)


# kappa = p(theta) * diag(1,2,3) with p(theta) = 1e308 * theta**2: finite at
# theta = 0.5, overflows to inf at theta = 1 and 300, and the zero-gradient
# flux there is inf * 0 = NaN
OVERFLOW = fc.LinearTemperature(DIAG123, (0.0, 0.0, 1e308))


def test_non_finite_residual_never_passes():
    observers = fc.random_observers(5, 0)
    trivial = fc.catalog_lookup("trivial")
    results = {
        "symmetry": fc.check_symmetry(OVERFLOW, trivial, CFG),
        "frame_indifference": fc.check_frame_indifference(OVERFLOW, trivial, observers, CFG),
        "observer_independence": fc.check_observer_independence(OVERFLOW, observers, CFG),
        "isotropy": fc.check_isotropy(OVERFLOW, replace(CFG, sample_count=8)),
        "zero_map": fc.check_zero_map(OVERFLOW, CFG),
    }
    for name, result in results.items():
        assert not result.passed, name
        assert result.max_residual == np.inf, name
        assert result.witness is not None, name
    # the zero-gradient flux is NaN first at theta = 1
    assert results["zero_map"].witness.state.theta == 1.0


def test_reducer_takes_the_earliest_non_finite_sample():
    states = [fc.StatePoint(1.0 + i, np.zeros(3)) for i in range(4)]
    # the non-finite sample in the second row of a block
    blocks = [
        (
            np.array([[0.5, 2.0, 0.0, 0.0],
                      # argmax alone would pick the NaN at index 3, after the inf at 1
                      [0.0, np.inf, 7.0, np.nan]]),
            np.stack([fc.ROT_X_90, fc.ROT_Y_90]), None, states,
        ),
        (np.array([[np.nan, 0.0, 0.0, 0.0]]), fc.ROT_Z_90[None], None, states),
    ]
    result = fc.checks._worst(iter(blocks), tol=1.0)
    assert not result.passed
    assert result.max_residual == np.inf
    assert result.samples_used == 12
    assert np.array_equal(result.witness.group_element, fc.ROT_Y_90)
    assert result.witness.state is states[1]
    assert result.witness.observer is None

    # the non-finite sample in a later block, behind a finite maximum; the
    # witness's observer is its row's
    observers = np.stack([fc.ROT_X_180, fc.ROT_Y_180])
    blocks = [
        (np.array([[0.5, 2.0, 0.0, 0.0], [0.0, 7.0, 0.0, 0.0]]),
         np.stack([fc.ROT_X_90, fc.ROT_Y_90]), observers, states),
        (np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 3.0, np.nan, np.inf]]),
         np.stack([fc.ROT_Z_90, fc.ROT_X_90]), observers, states),
        (np.array([[np.inf, 0.0, 0.0, 0.0]]), fc.ROT_Z_90[None], observers[:1], states),
    ]
    result = fc.checks._worst(iter(blocks), tol=1.0, repeat=2)
    assert not result.passed
    assert result.max_residual == np.inf
    assert result.samples_used == 40
    assert np.array_equal(result.witness.group_element, fc.ROT_X_90)
    assert np.array_equal(result.witness.observer, fc.ROT_Y_180)
    assert result.witness.state is states[2]


def test_reducer_never_reports_a_negative_residual():
    # an all-zero row reports +0.0; no rows at all is an error, not a pass
    states = [fc.StatePoint(1.0, np.zeros(3))]
    block = (np.zeros((1, 2)), fc.IDENTITY[None], None, states * 2)
    result = fc.checks._worst(iter([block]), tol=1e-9)
    assert result.passed and result.max_residual == 0.0 and result.samples_used == 2
    assert not np.signbit(result.max_residual)
    with pytest.raises(ValueError, match="^no residuals to check"):
        fc.checks._worst(iter(()), tol=1e-9)
    # nor is a block of no rows
    with pytest.raises(ValueError, match="^no residuals to check"):
        fc.checks._worst(iter([(np.empty((0, 2)), np.empty((0, 3, 3)), None, states)]), tol=1e-9)


def _argmax_calls(monkeypatch):
    """Give checks.py its own copy of the numpy namespace whose argmax counts
    its calls, as perfbench's tracer does; the one-item list holds the count."""
    real = fc.checks.np
    counted = types.ModuleType(real.__name__)
    counted.__dict__.update(real.__dict__)
    calls = [0]

    def argmax(*args, **kwargs):
        calls[0] += 1
        return real.argmax(*args, **kwargs)

    counted.argmax = argmax
    monkeypatch.setattr(fc.checks, "np", counted)
    return calls


def _trips(calls, check, *args):
    """check(*args) and the argmax calls it made."""
    before = calls[0]
    result = check(*args)
    return result, calls[0] - before


@pytest.mark.parametrize(
    "name", ["trivial", "z4", "cubic_rotations", "transverse_z_20", "transverse_z_190"]
)
def test_each_check_calls_argmax_once_a_row(monkeypatch, name):
    """perfbench's tracer counts a check's trips as its calls of
    checks.np.argmax and pins them at the rows: the group's order for
    symmetry, observers x order for frame indifference, the observers for
    observer independence, and none for zero_map, whose trips are its
    evaluate calls.  _worst makes those calls, one per row, whatever the
    blocks it is handed; changing that rule is a benchmark change (ROADMAP
    item 1)."""
    calls = _argmax_calls(monkeypatch)
    group = fc.catalog_lookup(name)
    for label, model in MODEL_ROSTER:
        assert _trips(calls, fc.check_symmetry, model, group, CFG)[1] == group.order, label
        for count in (1, 4):
            observers = fc.random_observers(count, 0)
            _, trips = _trips(calls, fc.check_frame_indifference, model, group, observers, CFG)
            assert trips == count * group.order, (label, count)
            _, trips = _trips(calls, fc.check_observer_independence, model, observers, CFG)
            assert trips == count, (label, count)
        assert _trips(calls, fc.check_zero_map, model, CFG)[1] == 0, label


def test_isotropy_calls_argmax_once_a_cubic_rotation_when_they_decide(monkeypatch):
    """Every law of the roster is decided on the 24 cubic rotations, certified
    or failed, and isotropy's trips are their rows."""
    calls = _argmax_calls(monkeypatch)
    for label, model in MODEL_ROSTER:
        result, trips = _trips(calls, fc.check_isotropy, model, CFG)
        assert not result.note.startswith("sampled check"), label
        assert trips == 24, label


def test_observer_checks_refuse_no_observers():
    """With no observer there is nothing to compare: both observer checks
    raise rather than pass with max_residual 0 and samples_used 0."""
    model = fc.LinearConstant(DIAG123)
    with pytest.raises(ValueError, match="at least one observer"):
        fc.check_observer_independence(model, [], CFG)
    with pytest.raises(ValueError, match="at least one observer"):
        fc.check_frame_indifference(model, fc.catalog_lookup("trivial"), [], CFG)


@given(
    diagonal=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3),
    low=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=2),
    top=st.floats(1.0, 1.7) | st.floats(-1.7, -1.0),
    bad_theta=st.floats(2.0, 300.0),
    other_thetas=st.lists(st.floats(0.1, 1000.0), max_size=2),
)
def test_non_finite_conductivity_never_passes(diagonal, low, top, bad_theta, other_thetas):
    """p(theta) = ... + top * 1e308 * theta^d overflows at every theta >= 2,
    so the conductivity is non-finite at bad_theta (inf, or inf * 0 = NaN
    off the diagonal); every check that samples bad_theta fails with an
    infinite max_residual."""
    model = fc.LinearTemperature(np.diag(diagonal), (*low, top * 1e308))
    thetas = (*other_thetas, bad_theta)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.all(np.isfinite(model.kappa(np.array([bad_theta]), np.zeros((1, 3)))))
    cfg = fc.CheckConfig(theta_samples=thetas, gradient_samples=2)
    observers = fc.random_observers(2, 0)
    z4 = fc.catalog_lookup("z4")
    results = {
        "symmetry": fc.check_symmetry(model, z4, cfg),
        "frame_indifference": fc.check_frame_indifference(model, z4, observers, cfg),
        "observer_independence": fc.check_observer_independence(model, observers, cfg),
        "isotropy": fc.check_isotropy(model, replace(cfg, sample_count=4)),
        "zero_map": fc.check_zero_map(model, cfg),
    }
    for name, result in results.items():
        assert not result.passed, name
        assert result.max_residual == np.inf, name
        assert result.witness is not None, name
