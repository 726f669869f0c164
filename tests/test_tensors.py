import inspect
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import framecheck as fc
from framecheck.tensors import _orthogonal, conjugate_stack

E1, E2, E3 = np.eye(3)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
components = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
small_components = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
vectors = st.tuples(components, components, components)
small_tensors = st.tuples(*[small_components] * 9)


def _conjugate(q, h):
    """Q h Q^T through conjugate_stack, the conjugation the checks run."""
    return conjugate_stack(np.asarray(q)[None], np.asarray(h, dtype=float)[None])[0, 0]


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
    """_orthogonal, the one orthogonality test, judges each matrix of a
    stack; a non-finite matrix is merely not orthogonal, not an error."""
    nan = np.full((3, 3), np.nan)
    stack = np.array([np.eye(3), fc.ROT_Z_90, fc.INVERSION, 2.0 * np.eye(3), nan])
    assert _orthogonal(stack, 1e-9).tolist() == [True, True, True, False, False]


def test_conjugation_oracle_quarter_turn_swaps_principal_values():
    q = fc.observer_stack(fc.ROT_Z_90)[0]
    out = _conjugate(q, np.diag([1.0, 2.0, 3.0]))
    assert np.array_equal(out, np.diag([2.0, 1.0, 3.0]))


def test_observer_change_requires_orthogonal():
    with pytest.raises(ValueError):
        fc.observer_stack(2.0 * np.eye(3))


def test_observer_stack_is_one_frozen_float64_stack():
    """One matrix, a sequence of them or of 9 numbers each: one read-only
    (O, 3, 3) copy with the matrices' bits, the caller's array left as it
    was."""
    rz = (0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    given_stack = np.array([np.eye(3), fc.ROT_Z_90])
    for matrices, expected in (
        (fc.ROT_Z_90, [fc.ROT_Z_90]),
        ((rz, rz), [fc.ROT_Z_90, fc.ROT_Z_90]),
        ([fc.INVERSION, fc.ROT_X_90], [fc.INVERSION, fc.ROT_X_90]),
        (given_stack, given_stack),
    ):
        stack = fc.observer_stack(matrices)
        assert stack.dtype == np.float64 and stack.shape == (len(expected), 3, 3)
        assert np.array_equal(stack, np.array(expected))
        assert not stack.flags.writeable
    assert given_stack.flags.writeable


# finite matrices whose Q Q^T overflows: to inf, and to inf - inf = NaN
OVERFLOWING = {
    "scaled": 1e200 * np.eye(3),
    "cancelling": np.array([[1e200, 1e200, 0.0], [1e200, -1e200, 0.0], [0.0, 0.0, 1.0]]),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_overflowing_matrices_are_not_orthogonal(name):
    """An overflowing Q Q^T is simply not orthogonal: no numpy warning,
    which the suite's filterwarnings turns into an error, and the usual
    message."""
    m = OVERFLOWING[name]
    assert not _orthogonal(m[None], 1e-9)[0]
    with pytest.raises(ValueError, match=r"^observer matrix is not orthogonal within 1e-12$"):
        fc.observer_stack(m)


def test_observer_tolerance_is_one_rule():
    """observer_stack takes no tolerance: a matrix 1e-8 off orthogonal is
    no observer, though _orthogonal accepts it at a tolerance of 1e-6."""
    q = np.eye(3)
    q = q + 1e-8 * np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert list(inspect.signature(fc.observer_stack).parameters) == ["matrices"]
    with pytest.raises(ValueError, match="^observer matrix is not orthogonal within 1e-12$"):
        fc.observer_stack(q)
    assert _orthogonal(q[None], 1e-6)[0]


SHEAR = np.eye(3) + 1e-6 * np.triu(np.ones((3, 3)), 1)
NOT_ORTHOGONAL = "observer matrix is not orthogonal within 1e-12"

# (matrices, None for observer_stack or a tolerance for _orthogonal, the
# error or None): a tolerance is an argument of _orthogonal alone
OBSERVER_CASES = {
    "scaled": (2.0 * np.eye(3), None, NOT_ORTHOGONAL),
    "sheared": (SHEAR, None, NOT_ORTHOGONAL),
    "sheared_loose": (SHEAR, 1e-5, None),
    "stretched": (fc.rotation_about([1, 2, 3], 0.7) * (1 + 1e-11), None, NOT_ORTHOGONAL),
    "one_bad_of_two": ([np.eye(3), SHEAR], None, NOT_ORTHOGONAL),
    "nan": (np.full((3, 3), np.nan), None, "tensor entries must be finite"),
    "inf": (np.diag([np.inf, 1.0, 1.0]), None, "tensor entries must be finite"),
    "shape": (np.eye(2), None, "cannot reshape array of size 4 into shape (3,3)"),
    "empty": ((), None, "at least one observer matrix is required"),
}


@pytest.mark.parametrize("name", sorted(OBSERVER_CASES))
def test_observer_change_errors_are_unchanged(name):
    """observer_stack raises the messages the per-matrix observer
    constructor raised, now at its one tolerance of 1e-12; _orthogonal, the
    one function that still takes a tolerance, accepts at a looser one."""
    matrices, tol, error = OBSERVER_CASES[name]

    def call():
        return fc.observer_stack(matrices) if tol is None else _orthogonal(matrices[None], tol)[0]

    if error is None:
        assert call()
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            call()


def test_random_observers_validate_every_draw(monkeypatch):
    """The drawn stack is checked in one pass, not skipped: one bad matrix
    among the draws raises observer_stack's error."""
    draw = fc.tensors._haar_orthogonal

    def one_bad(rng, n, proper_only=False):
        stack = draw(rng, n, proper_only)
        stack[n // 2] *= 1.0 + 1e-9
        return stack

    observers = fc.random_observers(100, 0)
    assert observers.shape == (100, 3, 3) and not observers.flags.writeable
    assert np.array_equal(fc.observer_stack(observers), observers)
    monkeypatch.setattr(fc.tensors, "_haar_orthogonal", one_bad)
    with pytest.raises(ValueError, match="^observer matrix is not orthogonal within 1e-12$"):
        fc.random_observers(100, 0)


def test_observer_determinant_and_inverse():
    proper = fc.observer_stack(fc.random_orthogonal(7, proper_only=True))[0]
    assert abs(np.linalg.det(proper) - 1.0) < 1e-12
    improper = fc.observer_stack(fc.INVERSION)[0]
    assert abs(np.linalg.det(improper) + 1.0) < 1e-12
    # the inverse of an observer change is its transpose
    q = fc.observer_stack(fc.random_orthogonal(3))[0]
    back = q.T @ q
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
    assert np.array_equal(obs, again)
    for a in obs:
        assert fc.max_abs(a @ a.T - np.eye(3)) <= 1e-12
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
    o = fc.random_observers(1, 5)[0]
    assert fc.max_abs(q - o) > 1e-3


@given(seed=seeds)
def test_random_orthogonal_is_orthogonal(seed):
    q = fc.random_orthogonal(seed)
    assert fc.max_abs(q @ q.T - np.eye(3)) <= 1e-12


@given(seed=seeds, v=vectors)
def test_transform_preserves_length(seed, v):
    obs = fc.observer_stack(fc.random_orthogonal(seed))[0]
    out = obs @ np.array(v)
    assert abs(float(np.linalg.norm(out)) - float(np.linalg.norm(np.array(v)))) <= 1e-12


@given(seed=seeds, h=small_tensors)
def test_conjugation_round_trip(seed, h):
    obs = fc.observer_stack(fc.random_orthogonal(seed))[0]
    m = np.array(h).reshape(3, 3)
    back = _conjugate(obs.T, _conjugate(obs, m))
    assert fc.max_abs(back - m) <= 1e-12


@given(seed=seeds, h=small_tensors)
def test_conjugation_preserves_trace_and_determinant(seed, h):
    obs = fc.observer_stack(fc.random_orthogonal(seed))[0]
    m = np.array(h).reshape(3, 3)
    c = _conjugate(obs, m)
    assert abs(float(np.trace(c)) - float(np.trace(m))) <= 1e-10
    assert abs(float(np.linalg.det(c)) - float(np.linalg.det(m))) <= 1e-10
