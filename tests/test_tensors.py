import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import framecheck as fc
from framecheck.tensors import INTERNAL_ORTH_TOL

E1, E2, E3 = np.eye(3)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
components = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
small_components = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
vectors = st.tuples(components, components, components)
small_tensors = st.tuples(*[small_components] * 9)


def test_quarter_turn_conventions():
    # right-handed, counterclockwise looking down the positive axis
    assert np.array_equal(fc.ROT_Z_90 @ E1, E2)
    assert np.array_equal(fc.ROT_X_90 @ E2, E3)
    assert np.array_equal(fc.ROT_Y_90 @ E3, E1)


def test_half_turns_are_squared_quarter_turns():
    assert np.array_equal(fc.ROT_X_90 @ fc.ROT_X_90, fc.ROT_X_180)
    assert np.array_equal(fc.ROT_Y_90 @ fc.ROT_Y_90, fc.ROT_Y_180)
    assert np.array_equal(fc.ROT_Z_90 @ fc.ROT_Z_90, fc.ROT_Z_180)


def test_rotation_about_matches_quarter_turn_constants():
    for axis, quarter in (
        ((1.0, 0.0, 0.0), fc.ROT_X_90),
        ((0.0, 1.0, 0.0), fc.ROT_Y_90),
        ((0.0, 0.0, 1.0), fc.ROT_Z_90),
    ):
        assert fc.max_abs(fc.rotation_about(axis, np.pi / 2) - quarter) < 1e-15


def test_rotation_about_full_turn_is_identity():
    r = fc.rotation_about((1.0, 2.0, -0.5), 2.0 * np.pi)
    assert fc.max_abs(r - np.eye(3)) < 1e-15


def test_rotation_about_cycles_axes_for_body_diagonal():
    """A third turn about (1,1,1) permutes the coordinate axes cyclically."""
    r = fc.rotation_about((1.0, 1.0, 1.0), 2.0 * np.pi / 3.0)
    assert fc.max_abs(r @ E1 - E2) < 1e-15
    assert fc.max_abs(r @ E2 - E3) < 1e-15
    assert fc.max_abs(r @ E3 - E1) < 1e-15


def test_rotation_about_rejects_bad_axis():
    with pytest.raises(ValueError):
        fc.rotation_about((0.0, 0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        fc.rotation_about((np.inf, 0.0, 0.0), 1.0)


def test_as_vec3_validates_and_freezes():
    v = fc.as_vec3([1, 2, 3])
    assert v.dtype == np.float64
    with pytest.raises(ValueError):
        v[0] = 9.0
    with pytest.raises(ValueError):
        fc.as_vec3([1.0, np.nan, 0.0])
    with pytest.raises(ValueError):
        fc.as_vec3([1.0, 2.0])


def test_as_tensor2_validates_and_freezes():
    t = fc.as_tensor2(range(9))
    assert t.shape == (3, 3)
    assert t[1, 0] == 3.0
    with pytest.raises(ValueError):
        t[0, 0] = 1.0
    with pytest.raises(ValueError):
        fc.as_tensor2(np.full((3, 3), np.inf))
    with pytest.raises(ValueError):
        fc.as_tensor2(range(8))


def test_is_orthogonal():
    assert fc.is_orthogonal(np.eye(3))
    assert fc.is_orthogonal(fc.ROT_Z_90)
    assert fc.is_orthogonal(fc.INVERSION)
    assert not fc.is_orthogonal(2.0 * np.eye(3))
    # wrong shape or non-finite input is merely non-orthogonal, not an error
    assert not fc.is_orthogonal(np.eye(2))
    assert not fc.is_orthogonal(np.full((3, 3), np.nan))
    with pytest.raises(ValueError):
        fc.is_orthogonal(np.eye(3), tol=0.0)
    with pytest.raises(ValueError):
        fc.is_orthogonal(np.eye(3), tol=-1e-9)


def test_conjugation_oracle_quarter_turn_swaps_principal_values():
    obs = fc.ObserverChange(fc.ROT_Z_90)
    out = fc.conjugate_tensor(obs, np.diag([1.0, 2.0, 3.0]))
    assert np.array_equal(out, np.diag([2.0, 1.0, 3.0]))


def test_transform_vector_oracle():
    obs = fc.ObserverChange(fc.ROT_Z_90)
    assert np.array_equal(fc.transform_vector(obs, E1), E2)


def test_observer_change_requires_orthogonal():
    with pytest.raises(ValueError):
        fc.ObserverChange(2.0 * np.eye(3))


def test_observer_change_tolerance_is_configurable():
    q = np.eye(3)
    q = q + 1e-8 * np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        fc.ObserverChange(q, orth_tol=1e-12)
    fc.ObserverChange(q, orth_tol=1e-6)


def test_observer_determinant_and_inverse():
    proper = fc.ObserverChange(fc.random_orthogonal(7, proper_only=True))
    assert abs(proper.determinant - 1.0) < 1e-12
    improper = fc.ObserverChange(fc.INVERSION)
    assert abs(improper.determinant + 1.0) < 1e-12
    q = fc.ObserverChange(fc.random_orthogonal(3))
    back = q.inverse().q_matrix @ q.q_matrix
    assert fc.max_abs(back - np.eye(3)) < 1e-12


def test_random_orthogonal_deterministic_per_seed():
    assert np.array_equal(fc.random_orthogonal(123), fc.random_orthogonal(123))
    assert not np.array_equal(fc.random_orthogonal(123), fc.random_orthogonal(124))


def test_random_orthogonal_proper_only():
    for seed in range(50):
        assert float(np.linalg.det(fc.random_orthogonal(seed, proper_only=True))) > 0.0


def test_random_orthogonal_mixes_determinant_signs():
    dets = [float(np.linalg.det(fc.random_orthogonal(s))) for s in range(200)]
    negative = sum(1 for d in dets if d < 0.0)
    assert 40 < negative < 160


def test_haar_first_moment_vanishes():
    # the Haar mean of every matrix entry is zero; 2000 draws put the sample
    # mean well under 0.05 per entry
    total = np.zeros((3, 3))
    n = 2000
    for seed in range(n):
        total = total + fc.random_orthogonal(seed)
    assert fc.max_abs(total / n) < 0.05


def test_seed_validation():
    with pytest.raises(TypeError):
        fc.random_orthogonal(True)
    with pytest.raises(TypeError):
        fc.random_orthogonal(1.5)
    with pytest.raises(ValueError):
        fc.random_orthogonal(-1)
    with pytest.raises(ValueError):
        fc.random_orthogonal(2**64)


def test_random_observers_contract():
    obs = fc.random_observers(10, 42)
    assert len(obs) == 10
    again = fc.random_observers(10, 42)
    for a, b in zip(obs, again):
        assert np.array_equal(a.q_matrix, b.q_matrix)
    for a in obs:
        assert fc.max_abs(a.q_matrix @ a.q_matrix.T - np.eye(3)) <= 1e-12
    with pytest.raises(ValueError):
        fc.random_observers(0, 1)


def _haar_one_at_a_time(rng, n, proper_only):
    """n draws of one Haar matrix each, as the batched draw replaced."""
    draws = []
    for _ in range(n):
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
        if proper_only and float(np.linalg.det(q)) < 0.0:
            q[:, 2] = -q[:, 2]
        draws.append(q)
    return np.array(draws)


@pytest.mark.parametrize("proper_only", [False, True])
def test_batched_haar_draws_are_the_one_at_a_time_loop(proper_only):
    """The stacked draw of n matrices is the loop of n draws bit for bit, and
    leaves the generator where the loop does."""
    for seed in (0, 1, 7, 12345):
        ref_rng = np.random.default_rng(seed)
        expected = _haar_one_at_a_time(ref_rng, 300, proper_only)
        after = ref_rng.standard_normal()
        for n in range(1, 301):
            rng = np.random.default_rng(seed)
            got = fc.tensors._haar_orthogonal(rng, n, proper_only)
            assert np.array_equal(got, expected[:n]), (seed, n)
        assert rng.standard_normal() == after
        if proper_only:
            assert np.all(np.linalg.det(got) > 0.0)


def test_observer_stream_is_separate_from_orthogonal_stream():
    # same seed, different derived streams: the draws must not coincide
    q = fc.random_orthogonal(5)
    o = fc.random_observers(1, 5)[0].q_matrix
    assert fc.max_abs(q - o) > 1e-3


@given(seed=seeds)
def test_random_orthogonal_is_orthogonal(seed):
    q = fc.random_orthogonal(seed)
    assert fc.max_abs(q @ q.T - np.eye(3)) <= 1e-12


@given(seed=seeds, v=vectors)
def test_transform_preserves_length(seed, v):
    obs = fc.ObserverChange(fc.random_orthogonal(seed), orth_tol=INTERNAL_ORTH_TOL)
    out = fc.transform_vector(obs, v)
    assert abs(float(np.linalg.norm(out)) - float(np.linalg.norm(np.array(v)))) <= 1e-12


@given(seed=seeds, h=small_tensors)
def test_conjugation_round_trip(seed, h):
    obs = fc.ObserverChange(fc.random_orthogonal(seed), orth_tol=INTERNAL_ORTH_TOL)
    m = np.array(h).reshape(3, 3)
    back = fc.conjugate_tensor(obs.inverse(), fc.conjugate_tensor(obs, m))
    assert fc.max_abs(back - m) <= 1e-12


@given(seed=seeds, h=small_tensors)
def test_conjugation_preserves_trace_and_determinant(seed, h):
    obs = fc.ObserverChange(fc.random_orthogonal(seed), orth_tol=INTERNAL_ORTH_TOL)
    m = np.array(h).reshape(3, 3)
    c = fc.conjugate_tensor(obs, m)
    assert abs(float(np.trace(c)) - float(np.trace(m))) <= 1e-10
    assert abs(float(np.linalg.det(c)) - float(np.linalg.det(m))) <= 1e-10
