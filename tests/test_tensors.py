import hashlib
import inspect
import math
import random
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


def _haar_one_at_a_time(key, n, proper_only):
    """n Haar draws from the stream keyed ``key``, one candidate at a time in
    plain Python floats: four 2 random() - 1, kept when 0 < |q|^2 <= 1 and
    divided by sqrt(|q|^2), the rotation of that unit quaternion, and its
    inversion when w < 0 unless proper_only."""
    rng = random.Random(key)
    draws = []
    while len(draws) < n:
        q = [2.0 * rng.random() - 1.0 for _ in range(4)]
        sq = q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3]
        if not 0.0 < sq <= 1.0:
            continue
        norm = math.sqrt(sq)
        w, x, y, z = (c / norm for c in q)
        r = [
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
        ]
        if w < 0.0 and not proper_only:
            r = [[-e for e in row] for row in r]
        draws.append(r)
    return np.array(draws)


@pytest.mark.parametrize("proper_only", [False, True])
def test_batched_haar_draws_are_the_one_at_a_time_loop(proper_only):
    """The stacked draw of n matrices is the one-at-a-time loop in Python
    floats bit for bit, so n draws are the first n of any longer draw."""
    for seed in (0, 1, 7, 12345):
        expected = _haar_one_at_a_time(seed, 300, proper_only)
        for n in range(1, 301):
            got = fc.tensors._haar_orthogonal(random.Random(seed), n, proper_only)
            assert np.array_equal(got, expected[:n]), (seed, n)
        if proper_only:
            assert np.all(np.linalg.det(got) > 0.0)


# the salt of each draw site, as the stream keys seed * 4 + salt pin it
SALTS = {"orthogonal": 0, "group": 1, "gradient": 2, "observer": 3}


def test_no_two_streams_share_a_key():
    """Each site's stream is random.Random(seed * 4 + salt), so the streams
    of one seed, and of two, all differ."""
    assert set(fc.tensors._SALTS) == set(SALTS)
    firsts = set()
    for seed in [*range(100), 2**64 - 1]:
        for site, salt in SALTS.items():
            first = fc.tensors._stream(seed, site).random()
            assert first == random.Random(seed * 4 + salt).random(), (seed, site)
            firsts.add(first)
    assert len(firsts) == 101 * len(SALTS)


def _within(samples, expected, sd, what):
    """The sample mean is within 5 standard errors of ``expected``."""
    mean = float(np.mean(samples))
    bound = 5.0 * sd / np.sqrt(len(samples))
    assert abs(mean - expected) <= bound, (what, mean, expected, bound)


# draws per moment test: 5 standard errors of E[v_x^4] are 0.0042, and a
# sphere drawn without the ball's rejection has E[v_x^4] = 0.181, not 0.2
MOMENT_DRAWS = 100_000


def test_unit_directions_have_the_moments_of_the_sphere():
    """E[v] = 0, E[v v^T] = I / 3 and E[v_x^4] = 1 / 5 on the unit sphere of
    R^3, each within 5 standard errors."""
    cfg = fc.CheckConfig(seed=11, gradient_samples=MOMENT_DRAWS)
    v = fc.checks._unit_directions(cfg)[3:]
    assert v.shape == (MOMENT_DRAWS, 3)
    assert np.max(np.abs(np.sum(v * v, axis=1) - 1.0)) <= 1e-15
    for i in range(3):
        # Var v_i = 1/3, Var v_i^2 = 1/5 - 1/9, Var v_i v_j = 1/15, Var v_i^4 = 1/9 - 1/25
        _within(v[:, i], 0.0, np.sqrt(1 / 3), f"E[v_{i}]")
        _within(v[:, i] ** 2, 1 / 3, np.sqrt(1 / 5 - 1 / 9), f"E[v_{i}^2]")
        _within(v[:, i] * v[:, (i + 1) % 3], 0.0, np.sqrt(1 / 15), f"E[v_{i} v_j]")
        _within(v[:, i] ** 4, 1 / 5, np.sqrt(1 / 9 - 1 / 25), f"E[v_{i}^4]")


def test_haar_draws_have_the_moments_of_the_orthogonal_group():
    """Every entry of a Haar matrix is a coordinate of a uniform unit
    vector: E[R_ij^2] = 1/3 and E[R_00^4] = 1/5.  Each determinant sign has
    probability 1/2, and proper_only draws the same rotations, det +1."""
    rng = fc.tensors._stream(5, "observer")
    draws = fc.tensors._haar_orthogonal(rng, MOMENT_DRAWS)
    for i in range(3):
        for j in range(3):
            _within(draws[:, i, j] ** 2, 1 / 3, np.sqrt(1 / 5 - 1 / 9), f"E[R_{i}{j}^2]")
    _within(draws[:, 0, 0] ** 4, 1 / 5, np.sqrt(1 / 9 - 1 / 25), "E[R_00^4]")
    dets = np.linalg.det(draws)
    assert np.max(np.abs(np.abs(dets) - 1.0)) <= 1e-14
    _within(dets < 0.0, 0.5, 0.5, "P(det R = -1)")
    proper = fc.tensors._haar_orthogonal(fc.tensors._stream(5, "observer"), MOMENT_DRAWS, True)
    assert np.all(np.linalg.det(proper) > 0.0)
    assert np.array_equal(np.where((dets < 0.0)[:, None, None], -proper, proper), draws)


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


def test_seeded_draws_keep_their_bits():
    """SHA-256 of three seeded draws.  Every sample is random()'s values put
    through +, -, *, / and sqrt, so these hold on any CPU, libm, BLAS and
    LAPACK.  The check set is pinned on its Haar rows; the adversarial rows
    after them come from cos and sin."""
    assert _sha256(fc.random_observers(100, 7)) == (
        "6364a22d4d3d3ec0d773d7d6b6d5f21bed34e942f881550eae92a1bb668142b1"
    )
    assert _sha256(fc.orthogonal_check_set(0, 256)[:256]) == (
        "f9e53febac17836a1f4faa54526606352fd16f07d59ae64ae915920c1d7e06c9"
    )
    assert _sha256(fc.checks._unit_directions(fc.CheckConfig(seed=3))) == (
        "6c80db9f16eeee1f77c84295daa5317cf116fe7a8b2a9921bf60e30641ab1c24"
    )


class _RecordedRandom(random.Random):
    """A stream that records the bit count of each getrandbits call."""

    def __init__(self, seed):
        super().__init__(seed)
        self.asked = []

    def getrandbits(self, k):
        self.asked.append(k)
        return super().getrandbits(k)


def test_uniforms_draw_in_chunks_that_keep_their_bits(monkeypatch):
    """CPython takes getrandbits' bit count as a C int: one call for 2^25
    values or more raised OverflowError.  The values come in chunks of at
    most _DRAW_CHUNK, and the chunks join into the stream's own values,
    2 random() - 1 bit for bit, whatever the chunk size."""
    assert 64 * fc.tensors._DRAW_CHUNK <= 2**31 - 1
    monkeypatch.setattr(fc.tensors, "_DRAW_CHUNK", 3)
    for count, asked in ((10, [192, 192, 192, 64]), (6, [192, 192]), (2, [128])):
        rng = _RecordedRandom(11)
        got = fc.tensors._uniforms(rng, count)
        assert rng.asked == asked
        ref = random.Random(11)
        want = np.array([2.0 * ref.random() - 1.0 for _ in range(count)])
        assert np.array_equal(got, want), count
        # the stream goes on where the draw left it
        assert rng.random() == ref.random()


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
