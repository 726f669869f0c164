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
the checks build.  The same holds for the stacked form of a per-call loop,
the unit directions drawn in one call and normalized together.
schur_reduce's conjugation by the cubic rotations needs no einsum to
match: it is exact, a signed permutation of the tensor's entries.
"""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
            assert _same(conjugate_stack(q[None], stack)[0], np.einsum("ij,sjk,lk->sil", q, stack, q))
            assert _same(conjugate_stack(q_t[None], stack)[0], np.einsum("ji,sjk,kl->sil", q, stack, q))


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


def test_schur_reduce_conjugation_is_the_einsum():
    """schur_reduce conjugates m = L / max|L| by the 24 cubic rotations with
    conjugate_stack.  Each is a signed permutation, so H m H^T is m with its
    rows and columns permuted and negated, exactly, and the residual is the
    largest difference from m of those exact conjugates: symmetric and
    non-symmetric tensors, 10^-300 to 10^300, no warning."""
    stack = fc.checks._cubic_group().stack
    # H e_p[i] = s[i] e_i: row i of H holds its one nonzero, s[i], at p[i]
    perms = np.argmax(np.abs(stack), axis=2)
    signs = np.take_along_axis(stack, perms[:, :, None], axis=2)[:, :, 0]
    rng = np.random.default_rng(13)
    for scale in (1e-300, 1.0, 1e300):
        for _ in range(5):
            a = rng.standard_normal((3, 3))
            for l in (scale * a, scale * (a + a.T)):
                m = l / np.max(np.abs(l))
                exact = np.stack([
                    np.outer(s, s) * m[np.ix_(p, p)] for p, s in zip(perms, signs)
                ])
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = conjugate_stack(stack, m[None])[:, 0]
                    result = fc.schur_reduce(l, fc.CheckConfig())
                assert np.array_equal(got, exact)
                assert result.residual == float(np.max(np.abs(exact - m)))


def _per_draw_unit_directions(cfg):
    """checks._unit_directions as a loop over candidates in plain Python
    floats: three 2 random() - 1 each from the stream keyed 4 seed + 2,
    kept when 0 < |u|^2 <= 1 and divided by sqrt(|u|^2)."""
    rng = random.Random(cfg.seed * 4 + 2)
    dirs = [list(row) for row in np.eye(3)]
    while len(dirs) < 3 + cfg.gradient_samples:
        u = [2.0 * rng.random() - 1.0 for _ in range(3)]
        sq = u[0] * u[0] + u[1] * u[1] + u[2] * u[2]
        if 0.0 < sq <= 1.0:
            norm = math.sqrt(sq)
            dirs.append([c / norm for c in u])
    return np.array(dirs)


@pytest.mark.parametrize("count", [1, 5, 32, 100])
def test_unit_directions_are_the_per_draw_loop(count):
    """The batched draw, its uniforms made from getrandbits and its
    arithmetic done in numpy, is the per-candidate loop over random() in
    Python floats, bit for bit."""
    for seed in [*range(300), 2**64 - 1]:
        cfg = fc.CheckConfig(seed=seed, gradient_samples=count)
        assert _same_bits(fc.checks._unit_directions(cfg), _per_draw_unit_directions(cfg)), seed


def test_unit_directions_skip_a_draw_of_zero_norm(monkeypatch):
    """No seeded stream is likely to draw a candidate on the rejection
    boundary: a stub uniform source shows |u|^2 = 0 and |u|^2 = 1 + 2^-52
    skipped, |u|^2 = 1 and the smallest nonzero |u|^2, 2^-104, kept."""
    script = [
        0.0, 0.0, 0.0,  # |u|^2 = 0: skipped
        2.0**-52, 0.0, 0.0,  # kept, as (1, 0, 0)
        -1.0, 0.0, 2.0**-26,  # |u|^2 = 1 + 2^-52: skipped
        -1.0, 0.0, 0.0,  # |u|^2 = 1: kept
        -1.0, -1.0, -1.0,  # skipped
        0.5, -0.5, 0.5,  # kept
    ]

    def stub(rng, count):
        assert count >= len(script)
        return np.array(script + [0.0] * (count - len(script)))

    monkeypatch.setattr(fc.tensors, "_uniforms", stub)
    dirs = fc.checks._unit_directions(fc.CheckConfig(gradient_samples=3))
    norm = math.sqrt(0.75)
    kept = [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.5 / norm, -0.5 / norm, 0.5 / norm]]
    assert _same_bits(dirs, np.concatenate((np.eye(3), kept)))


def _per_observer_map(model, q, thetas, grads_star):
    """One observer's map written out with sample-first einsums: the flux
    rows Q q(theta, Q^T g*) and the conductivities Q kappa Q^T at Q^T g*."""
    grads = grads_star @ q
    kappas = np.ascontiguousarray(model.kappa(thetas, grads))
    flux = np.einsum("sij,sj->si", kappas, grads) @ np.ascontiguousarray(q.T)
    return flux, np.einsum("ij,sjk,lk->sil", q, kappas, q)


@settings(max_examples=20)
@example(count=1, size=1, seed=7, spread=300)
@example(count=40, size=2049, seed=7, spread=300)
@given(
    count=st.integers(1, 40),
    size=st.one_of(st.sampled_from([1, 2049]), st.integers(2, 2048)),
    seed=st.integers(0, 2**32 - 1),
    spread=st.integers(0, 300),
)
def test_stacked_component_map_is_the_per_observer_map(count, size, seed, spread):
    """A ComponentMap over O observers gives each observer the rows of its
    own map, bit for bit, sign of zero included: for every family, for
    components per observer and shared by all (a broadcast stack), and for
    fluxes with a batch axis before the states; proper and improper
    observers alternate.  The map at one state gives that state's rows."""
    rng = np.random.default_rng(seed)
    tensor = _entries(rng, (3, 3), spread)
    a, b = (float(x) for x in _entries(rng, 2, spread))
    coeffs = tuple(float(x) for x in _entries(rng, 1 + seed % 4, spread))
    models = (
        fc.LinearConstant(tensor),
        fc.LinearTemperature(tensor, coeffs),
        fc.NonlinearIsotropic(a, b),
        fc.NonlinearAnisotropic(tensor, a),
    )
    observers = fc.observer_stack(
        [(-1.0) ** k * fc.random_orthogonal(seed + k, proper_only=True) for k in range(count)]
    )
    thetas = np.abs(_entries(rng, size, spread))
    own = _entries(rng, (count, size, 3), spread)
    shared = np.broadcast_to(_entries(rng, (size, 3), spread), (count, size, 3))
    batched = _entries(rng, (count, 2, size, 3), spread)
    with np.errstate(over="ignore", invalid="ignore"):
        for model in models:
            cm = fc.ComponentMap(model, observers)
            for grads_star in (own, shared):
                fluxes, kappas = cm.flux(thetas, grads_star), cm.kappa(thetas, grads_star)
                assert _is_sample_last(kappas.reshape(-1, 3, 3)), model.family
                for obs, g, flux, kappa in zip(observers, grads_star, fluxes, kappas):
                    flux_o, kappa_o = _per_observer_map(model, obs, thetas, g)
                    assert _same_bits(flux, flux_o), model.family
                    assert _same_bits(kappa, kappa_o), model.family
            # a batch axis between the observers and the states, whose
            # temperatures repeat, or are given for every row
            for thetas_rows in (thetas, np.tile(thetas, 2)):
                fluxes = cm.flux(thetas_rows, batched)
                for obs, g, flux in zip(observers, batched, fluxes):
                    for e in range(len(g)):
                        flux_o, _ = _per_observer_map(model, obs, thetas, g[e])
                        assert _same_bits(flux[e], flux_o), model.family
            # one observer is the case O = 1, and its map at one state gives
            # that state's rows
            fluxes, kappas = cm.flux(thetas, own), cm.kappa(thetas, own)
            last = fc.ComponentMap(model, observers[-1:])
            assert _same_bits(last.flux(thetas, own[-1:]), fluxes[-1:])
            assert _same_bits(last.kappa(thetas, own[-1:]), kappas[-1:])
            for s in (0, size - 1):
                one = (thetas[s:s + 1], own[-1:, s:s + 1])
                assert _same_bits(last.flux(*one)[0, 0], fluxes[-1, s])
                assert _same_bits(last.kappa(*one)[0, 0], kappas[-1, s])


DIAG123 = np.diag([1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "model",
    [
        fc.LinearConstant(DIAG123),
        fc.LinearTemperature(DIAG123, (1.0, 0.5)),
        fc.NonlinearIsotropic(1.0, 0.5),
        fc.NonlinearAnisotropic(DIAG123, 0.5),
    ],
    ids=lambda model: model.family,
)
def test_component_map_rejects_components_that_do_not_match(model):
    """Components whose rows do not repeat the temperatures, or that belong
    to another number of observers, raise ValueError for every family
    alike; kappa takes exactly one row per temperature."""
    cm = fc.ComponentMap(model, fc.random_observers(2, 3))
    thetas = np.array([1.0, 2.0, 3.0])
    assert cm.flux(thetas, np.ones((2, 4, 3, 3))).shape == (2, 4, 3, 3)
    assert cm.kappa(thetas, np.ones((2, 3, 3))).shape == (2, 3, 3, 3)
    for grads in (np.ones((2, 4, 3)), np.ones((2, 2, 3)), np.ones((1, 3, 3)), np.ones((3, 3, 3))):
        with pytest.raises(ValueError):
            cm.flux(thetas, grads)
        with pytest.raises(ValueError):
            cm.kappa(thetas, grads)
    with pytest.raises(ValueError):
        cm.kappa(thetas, np.ones((2, 2, 3, 3)))
