"""The sample-last kernels give the bits of their sample-first einsums.

Each kernel runs with the sample axis of its stack last and must equal the
sample-first form it replaced exactly, NaN and inf included: stacks of 1 to
2,049 samples, entries spread over 10^-300 .. 10^300 so that some products
overflow, and the non-contiguous layouts the checks hand in.  Each model
family builds its conductivities sample last, with the bits of its old
sample-first construction.

The sample-first einsums iterate in memory order, so their own bits change
when a stack's component axes are swapped (np.swapaxes(stack, 1, 2)); the
kernels match them on stacks whose components are in C order, the only kind
the checks build.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npp

import framecheck as fc
from framecheck.checks import _deficit
from framecheck.tensors import conjugate_stack, matvec, row_norms, sample_last

# the layouts a stack reaches the kernels in
LAYOUTS = {
    "contiguous": lambda a: a,
    # LinearConstant.kappa: one tensor repeated with stride 0
    "broadcast": lambda a: np.broadcast_to(a[0], a.shape),
    # the transposed (S, ...) view of a sample-last array, as conjugate_stack
    # returns
    "transposed": lambda a: np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0),
}


def cases(test):
    """Stacks of 1 to 2,049 samples in every layout; the extremes always run."""
    for size in (1, 2049):
        for layout in ("contiguous", "transposed"):
            test = example(size=size, seed=7, spread=300, layout=layout)(test)
    return given(
        size=st.one_of(st.sampled_from([1, 2049]), st.integers(2, 2048)),
        seed=st.integers(0, 2**32 - 1),
        spread=st.integers(0, 300),
        layout=st.sampled_from(sorted(LAYOUTS)),
    )(test)


def _entries(rng, shape, spread):
    """Gaussian entries times 10^k, k uniform in [-spread, spread]."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-spread, spread + 1, shape)


def _same(got, expected):
    return got.shape == expected.shape and np.array_equal(got, expected, equal_nan=True)


def _same_bits(got, expected):
    """_same, and the sign of every zero too."""
    return _same(got, expected) and np.array_equal(np.signbit(got), np.signbit(expected))


def _is_sample_last(stack):
    """An (S, 3, 3) view of a (3, 3, S) array that is C-contiguous, or is one
    tensor broadcast over the samples."""
    t = np.transpose(stack, (1, 2, 0))
    return stack.shape[1:] == (3, 3) and (t.flags.c_contiguous or t.strides[2] == 0)


@cases
def test_conjugation_is_the_sample_first_einsum(size, seed, spread, layout):
    rng = np.random.default_rng(seed)
    stack = LAYOUTS[layout](_entries(rng, (size, 3, 3), spread))
    with np.errstate(over="ignore", invalid="ignore"):
        for q in (fc.random_orthogonal(seed), _entries(rng, (3, 3), spread)):
            q_t = np.ascontiguousarray(q.T)
            assert _same(conjugate_stack(q, stack), np.einsum("ij,sjk,lk->sil", q, stack, q))
            assert _same(conjugate_stack(q_t, stack), np.einsum("ji,sjk,kl->sil", q, stack, q))


@cases
def test_deficit_kernels_are_the_sample_first_einsums(size, seed, spread, layout):
    rng = np.random.default_rng(seed)
    count = 1 + seed % 4
    hs = _entries(rng, (count, 3, 3), spread)
    kappas = LAYOUTS[layout](_entries(rng, (size, 3, 3), spread))
    kappas_h = _entries(rng, (count, size, 3, 3), spread)
    kappas_t = sample_last(kappas)
    kappas_h_t = sample_last(kappas_h.reshape(-1, 3, 3)).reshape(3, 3, count, size)
    # the temperature-only deficit: kappa_h is kappa, broadcast over elements
    same_t = np.broadcast_to(kappas_t[:, :, None], (3, 3, count, size))
    with np.errstate(over="ignore", invalid="ignore"):
        # a zero operand isolates each of the two kernels: x - 0 is x, 0 - x is -x
        left = _deficit(hs, kappas_t, np.zeros_like(kappas_h_t))
        right = _deficit(hs, np.zeros_like(kappas_t), kappas_h_t)
        both = _deficit(hs, kappas_t, kappas_h_t)
        shared = _deficit(hs, kappas_t, same_t)
        for e, h in enumerate(hs):
            hk = np.einsum("ij,sjk->sik", h, kappas)
            kh = np.einsum("sij,jk->sik", kappas_h[e], h)
            assert _same(left[e], hk.transpose(1, 2, 0))
            assert _same(right[e], (-kh).transpose(1, 2, 0))
            assert _same(both[e], (hk - kh).transpose(1, 2, 0))
            expected = hk - np.einsum("sij,jk->sik", kappas, h)
            assert _same(shared[e], expected.transpose(1, 2, 0))


@cases
def test_row_norms_are_the_sample_first_norm(size, seed, spread, layout):
    rng = np.random.default_rng(seed)
    vectors = LAYOUTS[layout](_entries(rng, (size, 3, 3), spread))
    with np.errstate(over="ignore", invalid="ignore"):
        # (size, 3) rows, and the (elements, states, 3) blocks of the checks
        assert _same(row_norms(vectors[:, 0]), np.linalg.norm(vectors[:, 0], axis=1))
        blocks = np.moveaxis(vectors, 0, 1)
        assert _same(row_norms(blocks), np.linalg.norm(blocks, axis=2))


@cases
def test_rank_one_conductivity_is_the_einsum_outer_product(size, seed, spread, layout):
    rng = np.random.default_rng(seed)
    a_tensor = _entries(rng, (3, 3), spread)
    c = float(_entries(rng, (), spread))
    grads = LAYOUTS[layout](_entries(rng, (size, 3, 3), spread))[:, 0]
    model = fc.NonlinearAnisotropic(a_tensor, c)
    with np.errstate(over="ignore", invalid="ignore"):
        got = model.kappa(np.ones(size), grads)
        expected = a_tensor + c * np.einsum("si,sj->sij", grads, grads)
    assert _same(got, expected)
    assert _is_sample_last(got)


@cases
def test_every_family_builds_its_stack_sample_last(size, seed, spread, layout):
    """Each family's kappa is a view of a sample-last stack whose bits are
    those of its old sample-first construction."""
    rng = np.random.default_rng(seed)
    tensor = _entries(rng, (3, 3), spread)
    a, b = (float(x) for x in _entries(rng, 2, spread))
    coeffs = tuple(float(x) for x in _entries(rng, 1 + seed % 4, spread))
    thetas = np.abs(_entries(rng, size, spread))
    grads = LAYOUTS[layout](_entries(rng, (size, 3, 3), spread))[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        expected = {
            fc.LinearConstant(tensor): np.broadcast_to(tensor, (size, 3, 3)),
            fc.LinearTemperature(tensor, coeffs): (
                npp.polyval(thetas, coeffs)[:, None, None] * tensor
            ),
            fc.NonlinearIsotropic(a, b): (
                (a + b * np.einsum("si,si->s", grads, grads))[:, None, None] * np.eye(3)
            ),
        }
        for model, old in expected.items():
            got = model.kappa(thetas, grads)
            assert _same_bits(got, old), model.family
            assert _is_sample_last(got), model.family


@cases
def test_matvec_is_the_sample_first_einsum(size, seed, spread, layout):
    """The four matvec forms of the checks, on stacks in every layout and on
    per-state stacks, sign of zero included."""
    rng = np.random.default_rng(seed)
    count = 1 + seed % 4
    kappas = LAYOUTS[layout](_entries(rng, (size, 3, 3), spread))
    grads = _entries(rng, (size, 3), spread)
    per_state = LAYOUTS[layout](_entries(rng, (count * size, 3, 3), spread))
    per_state = per_state.reshape(count, size, 3, 3)
    block = _entries(rng, (count, size, 3), spread)
    # zeros of both signs, so that a -0.0 sum shows
    for a in (kappas, grads, per_state, block):
        if a.flags.writeable:
            a[rng.random(a.shape) < 0.2] = 0.0
            a[rng.random(a.shape) < 0.2] *= -1.0
    # the einsums ran on sample-first stacks, C-contiguous or (LinearConstant)
    # broadcast; on a transposed view einsum itself takes another kernel
    first = kappas if layout == "broadcast" else np.ascontiguousarray(kappas)
    per_state_first = np.ascontiguousarray(per_state)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _same_bits(matvec(kappas, grads), np.einsum("sij,sj->si", first, grads))
        assert _same_bits(matvec(kappas, block), np.einsum("sij,esj->esi", first, block))
        expected = np.einsum("esij,esj->esi", per_state_first, block)
        assert _same_bits(matvec(per_state, block), expected)
        expected = np.einsum("esij,sj->esi", per_state_first, grads)
        assert _same_bits(matvec(per_state, grads), expected)
        assert matvec(kappas, grads).flags.c_contiguous
        assert matvec(per_state, block).flags.c_contiguous
