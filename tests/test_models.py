import dataclasses
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npp

import framecheck as fc
from conftest import DIAG123, MODEL_ROSTER, SUBPROCESS_ENV

bounded = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
grads = st.tuples(bounded, bounded, bounded)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random_states(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        fc.StatePoint(float(rng.uniform(0.1, 400.0)), rng.standard_normal(3))
        for _ in range(n)
    ]


def _flux_row(cm, theta, g):
    """ComponentMap.flux of a one-observer map at one state."""
    return cm.flux(np.array([float(theta)]), np.asarray(g, dtype=float)[None, None])[0, 0]


def _kappa_row(cm, theta, g):
    """ComponentMap.kappa of a one-observer map at one state."""
    return cm.kappa(np.array([float(theta)]), np.asarray(g, dtype=float)[None, None])[0, 0]


def test_state_point_validation():
    z = fc.StatePoint(300.0, [1, 0, 0])
    assert z.theta == 300.0
    assert z.grad_theta.dtype == np.float64
    with pytest.raises(ValueError):
        fc.StatePoint(0.0, [1, 0, 0])
    with pytest.raises(ValueError):
        fc.StatePoint(-1.0, [1, 0, 0])
    with pytest.raises(ValueError):
        fc.StatePoint(np.nan, [1, 0, 0])
    with pytest.raises(ValueError):
        fc.StatePoint(1.0, [np.inf, 0, 0])


def test_model_parameter_validation():
    with pytest.raises(ValueError):
        fc.LinearConstant(np.full((3, 3), np.nan))
    with pytest.raises(ValueError):
        fc.LinearTemperature(np.eye(3), ())
    with pytest.raises(ValueError):
        fc.LinearTemperature(np.eye(3), (1.0, np.inf))
    with pytest.raises(ValueError):
        fc.NonlinearIsotropic(np.nan, 1.0)
    with pytest.raises(ValueError):
        fc.NonlinearAnisotropic(np.eye(3), np.inf)


def test_model_families_registry():
    assert set(fc.MODEL_FAMILIES) == {
        "linear_constant",
        "linear_temperature",
        "nonlinear_isotropic",
        "nonlinear_anisotropic",
    }
    for name, cls in fc.MODEL_FAMILIES.items():
        assert cls.family == name


def test_gradient_dependence_flags():
    flags = {label: m.gradient_dependent for label, m in MODEL_ROSTER}
    assert flags == {
        "iso_constant": False,
        "ortho_constant": False,
        "temp_scaled": False,
        "nl_isotropic": True,
        "nl_anisotropic": True,
    }


def _drawn_law(family, data):
    """An instance of ``family`` with parameters drawn by hypothesis: a 3x3
    tensor for an array field, one to three coefficients for a tuple, a
    number otherwise."""
    params = {}
    for field in dataclasses.fields(family):
        if field.type == "np.ndarray":
            params[field.name] = np.reshape(data.draw(st.lists(bounded, min_size=9, max_size=9)), (3, 3))
        elif field.type.startswith("tuple"):
            params[field.name] = tuple(data.draw(st.lists(bounded, min_size=1, max_size=3)))
        else:
            params[field.name] = data.draw(bounded)
    return family(**params)


@settings(max_examples=200)
@given(data=st.data(), family=st.sampled_from(sorted(fc.MODEL_FAMILIES)), seed=seeds,
       theta=st.floats(0.1, 1000.0), g=grads)
def test_every_family_has_a_covariant_gradient(data, family, seed, theta, g):
    """The contract check_isotropy's certificate rests on:
    kappa(theta, R g) - kappa(theta, 0) = R (kappa(theta, g) - kappa(theta, 0)) R^T
    at a random orthogonal R, proper or not, temperature and gradient, for
    a law with drawn parameters of every family."""
    model = _drawn_law(fc.MODEL_FAMILIES[family], data)
    r = fc.random_orthogonal(seed)
    g = np.asarray(g)
    k0, k, k_rg = model.kappa(np.full(3, theta), np.stack((np.zeros(3), g, r @ g)))
    scale = 1.0 + max(fc.max_abs(k0), fc.max_abs(k), fc.max_abs(k_rg))
    assert fc.max_abs((k_rg - k0) - r @ (k - k0) @ r.T) <= 1e-12 * scale


def test_kappa_oracles():
    z = fc.StatePoint(1.0, [1.0, 0.0, 0.0])
    assert np.array_equal(fc.kappa_of(fc.LinearConstant(DIAG123), z), DIAG123)
    # a + b|g|^2 with a=1, b=2, |g|=1 gives 3
    assert np.array_equal(
        fc.kappa_of(fc.NonlinearIsotropic(1.0, 2.0), z), 3.0 * np.eye(3)
    )
    z300 = fc.StatePoint(300.0, [0.0, 0.0, 0.0])
    model = fc.LinearTemperature(np.eye(3), (0.0, 1.0))
    assert np.array_equal(fc.kappa_of(model, z300), 300.0 * np.eye(3))
    aniso = fc.NonlinearAnisotropic(DIAG123, 0.5)
    z2 = fc.StatePoint(1.0, [0.0, 2.0, 0.0])
    want = DIAG123 + 0.5 * np.outer([0.0, 2.0, 0.0], [0.0, 2.0, 0.0])
    assert np.array_equal(fc.kappa_of(aniso, z2), want)


def test_evaluate_oracles():
    q = fc.evaluate(fc.LinearConstant(DIAG123), fc.StatePoint(1.0, [1.0, 1.0, 1.0]))
    assert np.array_equal(q, [1.0, 2.0, 3.0])
    q = fc.evaluate(fc.NonlinearIsotropic(1.0, 1.0), fc.StatePoint(1.0, [2.0, 0.0, 0.0]))
    assert np.array_equal(q, [10.0, 0.0, 0.0])


def test_zero_gradient_gives_exactly_zero_flux():
    for theta in (0.5, 1.0, 300.0):
        z = fc.StatePoint(theta, [0.0, 0.0, 0.0])
        for _, model in MODEL_ROSTER:
            q = fc.evaluate(model, z)
            assert np.all(q == 0.0)


def test_evaluate_is_kappa_contraction_bit_for_bit():
    for _, model in MODEL_ROSTER:
        for z in _random_states(25):
            assert np.array_equal(
                fc.evaluate(model, z), fc.kappa_of(model, z) @ z.grad_theta
            )


def test_identity_observer_components_equal_canonical_evaluation():
    cm = fc.ComponentMap(fc.LinearConstant(DIAG123), fc.observer_stack(np.eye(3)))
    for z in _random_states(100):
        starred = _flux_row(cm, z.theta, z.grad_theta)
        assert np.array_equal(starred, fc.evaluate(cm.model, z))


def test_component_two_step_oracle():
    """Observer rotated a quarter turn about z sees the gradient (1,0,0) as
    (0,1,0), and sees the flux (1,0,0) as (0,1,0)."""
    cm = fc.ComponentMap(fc.LinearConstant(DIAG123), fc.observer_stack(fc.ROT_Z_90))
    q_star = _flux_row(cm, 1.0, [0.0, 1.0, 0.0])
    assert fc.max_abs(q_star - np.array([0.0, 1.0, 0.0])) < 1e-15


def test_kappa_components_oracle():
    cm = fc.ComponentMap(fc.LinearConstant(DIAG123), fc.observer_stack(fc.ROT_Z_90))
    k_star = _kappa_row(cm, 1.0, [0.0, 0.0, 0.0])
    assert np.array_equal(k_star, np.diag([2.0, 1.0, 3.0]))


@given(seed=seeds, v=grads)
def test_isotropic_components_commute_with_any_observer(seed, v):
    alpha = 2.5
    observers = fc.observer_stack(fc.random_orthogonal(seed))
    cm = fc.ComponentMap(fc.LinearConstant(alpha * np.eye(3)), observers)
    out = _flux_row(cm, 1.0, v)
    assert fc.max_abs(out - alpha * np.array(v)) <= 1e-12


@given(seed=seeds, v=grads)
def test_observer_round_trip(seed, v):
    model = fc.LinearConstant(DIAG123)
    cm = fc.ComponentMap(model, fc.observer_stack(fc.random_orthogonal(seed)))
    q = cm.observers[0]
    z = fc.StatePoint(1.0, v)
    # starred components of the state, fed back through the observer map,
    # must reproduce the canonical flux rotated into the observer frame
    starred_grad = q @ z.grad_theta
    q_star = _flux_row(cm, z.theta, starred_grad)
    assert fc.max_abs(q_star - q @ fc.evaluate(model, z)) <= 1e-12
    # and the inverse observer, Q^T, undoes the component change
    back = q.T @ starred_grad
    assert fc.max_abs(back - z.grad_theta) <= 1e-12


@given(a=bounded, g1=grads, g2=grads)
def test_linear_families_are_linear_in_the_gradient(a, g1, g2):
    for model in (fc.LinearConstant(DIAG123), fc.LinearTemperature(DIAG123, (0.5, 2.0))):
        theta = 7.0
        lhs = fc.evaluate(
            model, fc.StatePoint(theta, a * np.array(g1) + np.array(g2))
        )
        rhs = a * fc.evaluate(model, fc.StatePoint(theta, g1)) + fc.evaluate(
            model, fc.StatePoint(theta, g2)
        )
        assert fc.max_abs(lhs - rhs) <= 1e-12 * (1.0 + fc.max_abs(rhs))


def test_kappa_components_round_trip():
    model = fc.NonlinearAnisotropic(DIAG123, 0.5)
    cm = fc.ComponentMap(model, fc.observer_stack(fc.random_orthogonal(11)))
    q = cm.observers[0]
    z = fc.StatePoint(2.0, [0.3, -1.2, 0.7])
    starred_grad = q @ z.grad_theta
    k_star = _kappa_row(cm, z.theta, starred_grad)
    back = q.T @ k_star @ q
    assert fc.max_abs(back - fc.kappa_of(model, z)) <= 1e-12


def test_kappa_of_is_the_batch_row_bit_for_bit():
    from framecheck.checks import _sample_states

    roster = dict((m.family, m) for _, m in MODEL_ROSTER)
    assert set(roster) == set(fc.MODEL_FAMILIES)
    rng = np.random.default_rng(11)
    for family, model in roster.items():
        batch = _sample_states(model, fc.CheckConfig())
        thetas = np.concatenate([batch.thetas, rng.uniform(0.1, 400.0, 200)])
        grads = np.concatenate([batch.grads, 10.0 * rng.standard_normal((200, 3))])
        kappas = model.kappa(thetas, grads)
        assert kappas.shape == (len(thetas), 3, 3)
        cm = fc.ComponentMap(model, fc.random_observers(1, 5))
        fluxes_star = cm.flux(thetas, grads[None])[0]
        kappas_star = cm.kappa(thetas, grads[None])[0]
        assert fluxes_star.shape == (len(thetas), 3)
        assert kappas_star.shape == (len(thetas), 3, 3)
        for i, (theta, g) in enumerate(zip(thetas, grads)):
            z = fc.StatePoint(theta, g)
            assert np.array_equal(fc.kappa_of(model, z), kappas[i]), (family, i)
            # the map at one state gives that state's row of the batch
            assert np.array_equal(_flux_row(cm, theta, g), fluxes_star[i]), (family, i)
            assert np.array_equal(_kappa_row(cm, theta, g), kappas_star[i]), (family, i)


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(
    coeffs=st.lists(finite, min_size=1, max_size=6),
    thetas=st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=8),
)
def test_temperature_polynomial_is_numpys_polyval(coeffs, thetas):
    """LinearTemperature writes out Horner's rule; its scale is
    numpy.polynomial.polynomial.polyval bit for bit, overflow included."""
    thetas = np.array(thetas)
    model = fc.LinearTemperature(np.eye(3), tuple(coeffs))
    with np.errstate(over="ignore", invalid="ignore"):
        got = model.kappa(thetas, np.zeros((thetas.size, 3)))[:, 0, 0]
        expected = npp.polyval(thetas, coeffs)
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def _extreme(rng, shape):
    """Gaussian entries times 10^k, k uniform in [-300, 300]."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 301, shape)


@given(
    seed=seeds,
    pairs=st.lists(
        st.tuples(*2 * [st.floats(min_value=1e-300, max_value=1e300)]), min_size=1, max_size=16
    ),
)
def test_temperature_flag_says_whether_kappa_reads_theta(seed, pairs):
    """A family marked temperature-independent gives the bits of its kappa at
    any temperatures at any others, overflow included: the checks sample it
    at one temperature and count the sweep.  A family marked dependent, here
    LinearTemperature with an increasing polynomial, gives other bits at
    other temperatures."""
    rng = np.random.default_rng(seed)
    first, second = np.array(pairs).T
    grads = _extreme(rng, (first.size, 3))
    params = {
        "kappa0": _extreme(rng, (3, 3)),
        "a_tensor": _extreme(rng, (3, 3)),
        "a": float(_extreme(rng, ())),
        "b": float(_extreme(rng, ())),
        "c": float(_extreme(rng, ())),
        # positive, with a non-constant term
        "theta_coeffs": tuple(rng.uniform(0.5, 2.0, 3)),
    }
    # a polynomial that is finite and increasing on these, so p(t) < p(2 t)
    moderate = rng.uniform(0.5, 300.0, first.size)
    for cls in fc.MODEL_FAMILIES.values():
        model = cls(**{f.name: params[f.name] for f in dataclasses.fields(cls)})
        with np.errstate(over="ignore", invalid="ignore"):
            if not cls.temperature_dependent:
                a, b = model.kappa(first, grads), model.kappa(second, grads)
                assert np.array_equal(a, b, equal_nan=True), cls.family
                assert np.array_equal(np.signbit(a), np.signbit(b)), cls.family
            else:
                a, b = model.kappa(moderate, grads), model.kappa(2.0 * moderate, grads)
                assert np.all(a != b), cls.family


def test_importing_the_cli_leaves_numpy_polynomial_out():
    """numpy.polynomial costs every process a few ms of start-up and nothing
    in the package needs it."""
    code = (
        "import sys, framecheck.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=SUBPROCESS_ENV, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
