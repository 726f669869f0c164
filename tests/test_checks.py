from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import framecheck as fc
from conftest import DIAG123, MODEL_ROSTER

CFG = fc.CheckConfig()


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
    """For diag(1,2,3) the worst orthogonal element swaps the extreme
    principal axes: a quarter turn about y, residual exactly (3-1)=2 at a
    zero-gradient state.  Haar draws cannot beat it, so the witness is the
    adversarial element deterministically, independent of seed."""
    result = fc.check_isotropy(fc.LinearConstant(DIAG123), CFG, sample_count=64)
    assert not result.passed
    assert result.max_residual == 2.0
    assert np.array_equal(result.witness.group_element, fc.ROT_Y_90)
    assert "counterexample" in result.note


def test_isotropy_accepts_spherical_models():
    assert fc.check_isotropy(fc.LinearConstant(2.5 * np.eye(3)), CFG, 64).passed
    assert fc.check_isotropy(fc.NonlinearIsotropic(1.0, 2.0), CFG, 64).passed


def test_rank_one_update_is_isotropy_compatible_exactly_when_spherical():
    # the outer-product term transforms covariantly; only a_tensor decides
    assert fc.check_isotropy(fc.NonlinearAnisotropic(2.0 * np.eye(3), 0.7), CFG, 64).passed
    result = fc.check_isotropy(fc.NonlinearAnisotropic(DIAG123, 0.7), CFG, 64)
    assert not result.passed
    assert result.max_residual >= 0.5


def test_isotropy_seed_invariance_of_the_verdict():
    for seed in (0, 1, 99):
        cfg = fc.CheckConfig(seed=seed)
        assert not fc.check_isotropy(fc.LinearConstant(DIAG123), cfg, 64).passed
        assert fc.check_isotropy(fc.LinearConstant(np.eye(3)), cfg, 64).passed


def test_symmetry_forms_agree_pointwise():
    """The flux-form deficit equals the conductivity-form deficit contracted
    with the gradient, so on unit gradients the two residual families agree
    to rounding for every (element, state) pair."""
    groups = [fc.catalog_lookup("z4"), fc.catalog_lookup("cubic_rotations")]
    for _, model in MODEL_ROSTER:
        for group in groups:
            q_form, k_form = fc.symmetry_form_residuals(model, group, CFG)
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
    frame with Q instead of Q^T, on its stacked interface: (O, ..., S, 3)
    components, each observer's rows at the S temperatures."""

    def per_observer(cm, thetas, grads_star):
        rows = grads_star.reshape(len(cm.q_stack), -1, 3)
        tiled = np.tile(thetas, rows.shape[1] // thetas.size)
        return [_observer_map(cm.model, q, tiled, g, True) for q, g in zip(cm.q_stack, rows)]

    def flux(cm, thetas, grads_star):
        fluxes = [f for f, _ in per_observer(cm, thetas, grads_star)]
        return np.stack(fluxes).reshape(grads_star.shape)

    def kappa(cm, thetas, grads_star):
        kappas = [k for _, k in per_observer(cm, thetas, grads_star)]
        return np.stack(kappas).reshape(grads_star.shape + (3,))

    monkeypatch.setattr(fc.ComponentMap, "flux", flux)
    monkeypatch.setattr(fc.ComponentMap, "kappa", kappa)


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


def _unfolded_frame_indifference(model, group, observers, cfg, rotate_back_with_q=False):
    """check_frame_indifference as a plain loop: one _observer_map call per
    (observer, element), observer outer, element inner, every state at every
    configured temperature."""

    def rows():
        elements = fc.group_elements_for_check(group, cfg.seed)
        batch = _Sweep(model, cfg)
        for obs in observers:
            q = obs.q_matrix
            q_t = np.ascontiguousarray(q.T)
            _, starred = _observer_map(model, q, batch.thetas, batch.grads @ q_t, rotate_back_with_q)
            back = np.einsum("ji,sjk,kl->sil", q, starred, q)
            kappa_raw = np.max(np.abs(batch.kappas - back), axis=(1, 2))
            for h in elements:
                hg = batch.grads @ h.T
                kappas_h = np.ascontiguousarray(model.kappa(batch.thetas, hg))
                ref = np.einsum("sij,sj->si", kappas_h, hg)
                starred, _ = _observer_map(model, q, batch.thetas, hg @ q_t, rotate_back_with_q)
                flux_raw = np.linalg.norm(starred @ q - ref, axis=1)
                yield np.maximum(flux_raw, kappa_raw) / batch.denoms, h, obs, batch

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
        assert a.observer is b.observer


# a tolerance no rounding residual meets, so every check that is not exact
# fails and its witness pins the location of the maximum
STRICT = fc.CheckConfig(tol=1e-300)


def _ends_in_a_partial_block(model, group, cfg):
    """Does the fold split the group's elements into several blocks, the last
    one short?"""
    states = fc.checks._sample_states(model, cfg).thetas.size
    per_block = max(1, fc.checks._FOLD_STATES // states)
    return group.order > per_block and group.order % per_block != 0


@pytest.mark.parametrize("cfg", [CFG, STRICT], ids=["default_tol", "strict_tol"])
def test_folded_frame_indifference_matches_the_unfolded_loop(cfg):
    observers = fc.random_observers(4, 3)
    # the last block is partial for every family: transverse_z_20 spans
    # 19 + 1 elements for the gradient-dependent ones, transverse_z_192
    # 3 x 56 + 24 for the constant one and 10 x 18 + 12 for the
    # temperature-scaled one
    small, big = fc.catalog_lookup("transverse_z_20"), fc.catalog_lookup("transverse_z_192")
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


def _per_element_symmetry(model, group, cfg):
    """check_symmetry and symmetry_form_residuals as a plain loop over the
    elements, every deficit computed at every state and every configured
    temperature."""
    elements = fc.group_elements_for_check(group, cfg.seed)
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
        rels.append((rel, h, None, batch))
        contracted = np.linalg.norm(np.einsum("sij,sj->si", deficit, batch.grads), axis=1)
        flux.append((flux_raw / batch.denoms)[batch.unit_rows])
        kappa.append((contracted / batch.denoms)[batch.unit_rows])
    result = fc.checks._worst(iter(rels), cfg.tol)
    return result, np.concatenate(flux), np.concatenate(kappa)


@pytest.mark.parametrize("cfg", [CFG, STRICT], ids=["default_tol", "strict_tol"])
def test_folded_symmetry_matches_the_per_element_loop(cfg):
    # the last block is partial on transverse_z_192 for every family
    # (10 x 19 + 2 elements for the gradient-dependent ones, 3 x 56 + 24 for
    # the constant one, 10 x 18 + 12 for the temperature-scaled ones)
    names = ("transverse_z_7", "transverse_z_192", "full_orthogonal")
    groups = [fc.catalog_lookup(name) for name in names]
    models = [model for _, model in MODEL_ROSTER] + [OVERFLOW]
    with np.errstate(over="ignore", invalid="ignore"):
        for model in models:
            for group in groups:
                expected, flux, kappa = _per_element_symmetry(model, group, cfg)
                _assert_same_result(fc.check_symmetry(model, group, cfg), expected)
                got_flux, got_kappa = fc.symmetry_form_residuals(model, group, cfg)
                assert np.array_equal(got_flux, flux, equal_nan=True)
                assert np.array_equal(got_kappa, kappa, equal_nan=True)
            assert _ends_in_a_partial_block(model, groups[1], cfg), model
    # the overflow model's witness is its earliest non-finite sample: the
    # zero gradient at theta = 1, where kappa first overflows
    result = fc.check_symmetry(OVERFLOW, groups[0], cfg)
    assert result.max_residual == np.inf
    assert result.witness.state.theta == 1.0
    assert not np.any(result.witness.state.grad_theta)


def _plain_observer_independence(model, observers, cfg):
    """check_observer_independence as a plain loop over the observers, one
    _observer_map call each, every state at every configured temperature."""
    batch = _Sweep(model, cfg)

    def rows():
        for obs in observers:
            flux_star, kappa_star = _observer_map(model, obs.q_matrix, batch.thetas, batch.grads)
            flux_raw = np.linalg.norm(flux_star - batch.fluxes, axis=1)
            kappa_raw = np.max(np.abs(kappa_star - batch.kappas), axis=(1, 2))
            yield np.maximum(flux_raw, kappa_raw) / batch.denoms, obs.q_matrix, obs, batch

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
    cfg = replace(cfg, theta_samples=OTHER_THETAS[thetas])
    observers = fc.random_observers(4, 3)
    groups = [fc.catalog_lookup("transverse_z_7"), fc.catalog_lookup("full_orthogonal", 8)]
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
            _assert_same_result(fc.check_symmetry(model, group, cfg), expected)
            got_flux, got_kappa = fc.symmetry_form_residuals(model, group, cfg)
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
    rz = fc.ObserverChange(fc.ROT_Z_90)
    result = fc.check_observer_independence(fc.LinearConstant(DIAG123), [rz], CFG)
    assert not result.passed
    assert result.max_residual == 1.0
    assert result.witness is not None
    assert result.witness.observer is rz


def test_observer_independence_verdicts():
    observers = fc.random_observers(50, 0)
    assert fc.check_observer_independence(
        fc.LinearConstant(2.5 * np.eye(3)), observers, CFG
    ).passed
    assert not fc.check_observer_independence(
        fc.LinearConstant(DIAG123), observers, CFG
    ).passed


def test_isotropy_implies_observer_independence_at_looser_tol():
    """Models that pass the sampled isotropy check also look identical to
    observers built from the same element set, at ten times the tolerance."""
    elements = fc.orthogonal_check_set(CFG.seed, 64)
    observers = [fc.ObserverChange(np.asarray(e), orth_tol=1e-12) for e in elements]
    loose = fc.CheckConfig(tol=10.0 * CFG.tol)
    for _, model in MODEL_ROSTER:
        if fc.check_isotropy(model, CFG, 64).passed:
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
    ok, alpha, residual = fc.schur_reduce(DIAG123, CFG)
    assert not ok
    assert alpha is None
    assert residual == 2.0


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


def test_classify_makes_its_groups_once(monkeypatch):
    """The three cross-check groups are looked up on the first call only."""
    calls = []
    lookup = fc.checks.catalog_lookup
    monkeypatch.setattr(fc.checks, "catalog_lookup", lambda name: calls.append(name) or lookup(name))
    fc.checks._classifier_groups.cache_clear()
    try:
        for _ in range(2):
            for k in (4.0 * np.eye(3), np.diag([2.0, 2.0, 5.0]), DIAG123):
                fc.classify_linear_symmetry(k, CFG)
    finally:
        fc.checks._classifier_groups.cache_clear()
    assert calls == ["full_orthogonal", "transverse_z_8", "orthotropic"]


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
    first = fc.check_isotropy(model, fc.CheckConfig(seed=5), 64)
    second = fc.check_isotropy(model, fc.CheckConfig(seed=5), 64)
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
        "isotropy": fc.check_isotropy(OVERFLOW, CFG, sample_count=8),
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
    rows = [
        (np.array([0.5, 2.0, 0.0, 0.0]), fc.ROT_X_90, None, states),
        # argmax alone would pick the NaN at index 3, after the inf at 1
        (np.array([0.0, np.inf, 7.0, np.nan]), fc.ROT_Y_90, None, states),
        (np.array([np.nan, 0.0, 0.0, 0.0]), fc.ROT_Z_90, None, states),
    ]
    result = fc.checks._worst(iter(rows), tol=1.0)
    assert not result.passed
    assert result.max_residual == np.inf
    assert result.samples_used == 12
    assert np.array_equal(result.witness.group_element, fc.ROT_Y_90)
    assert result.witness.state is states[1]


def test_reducer_never_reports_a_negative_residual():
    result = fc.checks._worst(iter(()), tol=1e-9)
    assert result.passed and result.max_residual == 0.0 and result.samples_used == 0


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
        "isotropy": fc.check_isotropy(model, cfg, sample_count=4),
        "zero_map": fc.check_zero_map(model, cfg),
    }
    for name, result in results.items():
        assert not result.passed, name
        assert result.max_residual == np.inf, name
        assert result.witness is not None, name
