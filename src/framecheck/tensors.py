"""Small dense 3D tensor kernel: vectors, second order tensors, stacks of
observer changes, and deterministic Haar sampling of the orthogonal group.

Vectors and tensors are plain float64 numpy arrays of shape (3,) and (3, 3),
and O observer changes one (O, 3, 3) stack of their matrices.  The
constructors below validate shape and finiteness and clear the writeable
flag, so every value handed around by this package is effectively immutable
and safe to share across threads.

All randomness is drawn from the standard library's Mersenne Twister: each
draw site has its own stream, a random.Random keyed by an explicit 64-bit
seed and the site's salt (_stream).  There is no global RNG state
anywhere in the package; callers that parallelize must partition the seed
space instead of sharing a stream.  Every sample is random()'s values put
through +, -, *, / and sqrt, each a correctly rounded IEEE-754 double
operation in numpy and in Python alike, so a seed gives the same bits on
every CPU, libm, BLAS and LAPACK; no draw imports numpy.random.
"""

from __future__ import annotations

import random

import numpy as np

# max|Q Q^T - 1| of a group element, and of an observer, whose round trip
# Q^T Q would miss by about that much and show in the observer checks
ELEMENT_ORTH_TOL = 1e-9
OBSERVER_ORTH_TOL = 1e-12

# The draw sites' salts: the stream of a site is random.Random(seed * 4 +
# salt), so no two streams, of one seed or of two, share a key.
_SALTS = {"orthogonal": 0, "group": 1, "gradient": 2, "observer": 3}
# values per getrandbits call, which takes its bit count as a C int (< 2^31)
_DRAW_CHUNK = 2**24


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_vec3(values) -> np.ndarray:
    """Validate and return a read-only float64 vector of shape (3,)."""
    v = np.array(values, dtype=float).reshape(3)
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    return _frozen(v)


def as_tensor2(values) -> np.ndarray:
    """Validate and return a read-only float64 tensor of shape (3, 3)."""
    t = np.array(values, dtype=float).reshape(3, 3)
    if not np.all(np.isfinite(t)):
        raise ValueError("tensor entries must be finite")
    return _frozen(t)


def max_abs(a) -> float:
    """Max-norm (largest absolute entry) of a vector or tensor."""
    return float(np.max(np.abs(a)))


IDENTITY = as_tensor2(np.eye(3))
INVERSION = as_tensor2(-np.eye(3))

# Quarter-turn and half-turn rotations with exact 0/+-1 entries.  Convention:
# right-handed, counterclockwise when looking down the positive axis, so
# ROT_Z_90 @ (1, 0, 0) = (0, 1, 0).
ROT_X_90 = as_tensor2([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
ROT_Y_90 = as_tensor2([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
ROT_Z_90 = as_tensor2([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
ROT_X_180 = as_tensor2(np.diag([1.0, -1.0, -1.0]))
ROT_Y_180 = as_tensor2(np.diag([-1.0, 1.0, -1.0]))
ROT_Z_180 = as_tensor2(np.diag([-1.0, -1.0, 1.0]))


def rotation_about(axis, angle: float) -> np.ndarray:
    """Proper rotation by ``angle`` radians about ``axis`` (right-handed)."""
    ax = np.asarray(axis, dtype=float).reshape(3)
    norm = float(np.linalg.norm(ax))
    if not np.isfinite(norm) or norm == 0.0:
        raise ValueError("rotation axis must be nonzero and finite")
    kx, ky, kz = ax / norm
    c = float(np.cos(angle))
    s = float(np.sin(angle))
    m = 1.0 - c
    return as_tensor2(
        [
            [c + kx * kx * m, kx * ky * m - kz * s, kx * kz * m + ky * s],
            [ky * kx * m + kz * s, c + ky * ky * m, ky * kz * m - kx * s],
            [kz * kx * m - ky * s, kz * ky * m + kx * s, c + kz * kz * m],
        ]
    )


def _orthogonal(stack: np.ndarray, tol: float) -> np.ndarray:
    """Whether max|Q Q^T - 1| <= tol, for each matrix Q of an (n, 3, 3)
    stack; a NaN matrix never is, nor one whose Q Q^T overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.max(np.abs(stack @ stack.transpose(0, 2, 1) - np.eye(3)), axis=(1, 2)) <= tol


def _require_seed(seed) -> int:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError("seed must be an integer")
    s = int(seed)
    if not 0 <= s < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return s


def _stream(seed, site: str) -> random.Random:
    """The stream of one draw site ("orthogonal", "group", "gradient" or
    "observer") for a 64-bit seed."""
    return random.Random(_require_seed(seed) * len(_SALTS) + _SALTS[site])


def _uniforms(rng: random.Random, count: int) -> np.ndarray:
    """2 rng.random() - 1 for the next ``count`` values of the stream, bit for
    bit.  CPython's random() is ((a >> 5) 2^26 + (b >> 6)) / 2^53 for two
    consecutive 32-bit outputs a, b of the Mersenne Twister, and
    getrandbits(64 n) is 2 n consecutive outputs as little-endian words, so
    chunks of n <= _DRAW_CHUNK join into the stream; every step is exact."""
    sizes = (min(_DRAW_CHUNK, count - i) for i in range(0, count, _DRAW_CHUNK))
    words = np.frombuffer(b"".join(rng.getrandbits(64 * n).to_bytes(8 * n, "little")
                                   for n in sizes), "<u4")
    scaled = (words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)
    return scaled * (2.0 / 9007199254740992.0) - 1.0


def _sphere(rng: random.Random, n: int, dim: int) -> np.ndarray:
    """``n`` points uniform on the unit sphere of R^dim, dim 3 or 4, as the
    columns of a (dim, n) array (Marsaglia, Ann. Math. Stat. 43, 1972).

    Each candidate u is the stream's next dim uniforms of [-1, 1).  It is kept
    when 0 < |u|^2 <= 1, the sum of squares written out as row_norms does,
    and divided by sqrt(|u|^2).  A nonzero u has an entry of at least 2^-52,
    so no kept |u|^2 underflows.  Candidates are drawn in batches, but kept in
    stream order: n points are the first n of any longer draw.  The ball
    fills 52% of the cube [-1, 1]^3 and 31% of [-1, 1]^4, so one batch of
    4 n + 8 candidates almost always suffices."""
    parts, need = [], n
    while need > 0:
        batch = 4 * need + 8
        u = _uniforms(rng, dim * batch).reshape(batch, dim).T
        sq = u[0] * u[0]
        for c in u[1:]:
            sq += c * c
        kept = (sq > 0.0) & (sq <= 1.0)
        points = u[:, kept][:, :need] / np.sqrt(sq[kept][:need])
        parts.append(points)
        need -= points.shape[1]
    return np.concatenate(parts, axis=1)


def _haar_orthogonal(rng: random.Random, n: int, proper_only: bool = False) -> np.ndarray:
    """``n`` Haar-distributed orthogonal matrices from rng's stream, (n, 3, 3).

    Each is the rotation of a unit quaternion (w, x, y, z) uniform on S^3
    (Shoemake, "Uniform random rotations", Graphics Gems III, 1992), made
    improper by the inversion when w < 0 unless ``proper_only``.  R(q) =
    R(-q), so the sign of w is a fair coin independent of the rotation, and
    the inversion, which commutes with everything, maps SO(3) onto the other
    half of O(3)."""
    w, x, y, z = _sphere(rng, n, 4)
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    r = np.array(
        [
            [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
            [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
            [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
        ]
    )
    if not proper_only:
        r[:, :, w < 0.0] *= -1.0
    return np.ascontiguousarray(r.transpose(2, 0, 1))


def random_orthogonal(seed, proper_only: bool = False) -> np.ndarray:
    """Haar-distributed orthogonal tensor, bit-reproducible per seed.

    With ``proper_only`` the draw is the rotation alone, uniform on the
    rotation subgroup: the same draw without it is that rotation or its
    inversion."""
    return _frozen(_haar_orthogonal(_stream(seed, "orthogonal"), 1, proper_only))[0]


def observer_stack(matrices) -> np.ndarray:
    """The observer changes ``matrices`` (one 3x3 matrix, a sequence of them,
    or of 9 numbers each) as one read-only float64 (O, 3, 3) stack; a
    ValueError for none, a non-finite entry, or a matrix not orthogonal
    within OBSERVER_ORTH_TOL.  That bound holds |det Q| within 4.5e-12 of 1,
    and Q^T is the inverse of Q."""
    stack = np.array(matrices, dtype=float).reshape(-1, 3, 3)
    if not len(stack):
        raise ValueError("at least one observer matrix is required")
    if not np.all(np.isfinite(stack)):
        raise ValueError("tensor entries must be finite")
    if not np.all(_orthogonal(stack, OBSERVER_ORTH_TOL)):
        raise ValueError(f"observer matrix is not orthogonal within {OBSERVER_ORTH_TOL:g}")
    return _frozen(stack)


# Batched kernels.  A stack of S tensors is (S, 3, 3), in practice a view of
# a C-contiguous (3, 3, S) array, and a stack of vectors (..., 3).  The
# kernels below run with the sample axis last, so each numpy inner loop spans
# the samples, not a 3-long component axis.  Each returns the bits of the
# sample-first einsum named in its docstring.


def sample_last(stack) -> np.ndarray:
    """C-contiguous (3, 3, ...) copy of a (..., 3, 3) stack; no copy when the
    stack is a view of one, as model.kappa and conjugate_stack return."""
    lead = stack.ndim - 2
    return np.ascontiguousarray(np.transpose(stack, (lead, lead + 1, *range(lead))))


def transposes(stack) -> np.ndarray:
    """C-contiguous Q^T for each matrix Q of an (O, 3, 3) stack: numpy's
    matmul takes another BLAS path on a transposed view, with other bits for
    a one-row product."""
    return np.ascontiguousarray(stack.transpose(0, 2, 1))


def conjugate_stack(qs, stack) -> np.ndarray:
    """Q_o kappa Q_o^T for each matrix Q_o of an (O, 3, 3) stack and each
    tensor of an (S, 3, 3) stack that every Q_o shares or of an (O, S, 3, 3)
    stack, one (S, 3, 3) stack per Q_o: bit for bit
    einsum("ij,sjk,lk->sil", Q_o, kappas, Q_o) for each o, on stacks whose
    components are in C order (contiguous, broadcast or sample-last).  The
    result is an (O, S, 3, 3) view of a sample-last (3, 3, O, S) array."""
    kappas = sample_last(stack)
    spec = "oij,jks,olk->ilos" if kappas.ndim == 3 else "oij,jkos,olk->ilos"
    # einsum would lay its output out observer first; the sums are the same
    out = np.einsum(spec, qs, kappas, qs, out=np.empty((3, 3, len(qs), kappas.shape[-1])))
    return out.transpose(2, 3, 0, 1)


def matvec(kappas, grads) -> np.ndarray:
    """Rows kappa_s @ g_s of a (..., 3, 3) stack and (..., 3) vectors whose
    leading axes broadcast, as a C-contiguous (..., 3) array: bit for bit
    einsum("sij,sj->si"), and its forms "esij,esj->esi", "sij,esj->esi" and
    "esij,sj->esi".

    The sum is written out in the order of numpy's einsum kernel,
    (k0 g0 + k2 g2) + k1 g1, and added to 0.0 as einsum's zeroed output is,
    which turns a -0.0 sum into +0.0.  The stack is read through a
    transposed view, never copied, so a sample-last or broadcast stack costs
    nothing to hand in; only the vectors are copied, components first."""
    # as many leading axes on both, then the components first
    lead = max(kappas.ndim - 2, grads.ndim - 1)
    k = kappas[(None,) * (lead + 2 - kappas.ndim)].transpose(lead, lead + 1, *range(lead))
    # contiguous rows of g: numpy then takes its fast loops, for a broadcast
    # stack's stride-0 samples too
    g = np.ascontiguousarray(grads[(None,) * (lead + 1 - grads.ndim)].transpose(lead, *range(lead)))
    prod = k * g
    rows = np.empty(prod.shape[2:] + (3,))
    out = rows.transpose(lead, *range(lead))
    np.add(prod[:, 0], prod[:, 2], out=out)
    out += prod[:, 1]
    out += 0.0
    return rows


def row_norms(vectors) -> np.ndarray:
    """Euclidean norm over the last axis of a (..., 3) array, bit for bit
    np.linalg.norm(vectors, axis=-1), whose sum of squares over a 3-long
    axis is (v0 v0 + v1 v1) + v2 v2: written out, without its call
    overhead."""
    v0, v1, v2 = vectors[..., 0], vectors[..., 1], vectors[..., 2]
    out = v0 * v0
    out += v1 * v1
    out += v2 * v2
    return np.sqrt(out, out=out)


def random_observers(count: int, seed) -> np.ndarray:
    """observer_stack of ``count`` Haar draws, proper and improper mixed."""
    if count < 1:
        raise ValueError("count must be at least 1")
    return observer_stack(_haar_orthogonal(_stream(seed, "observer"), count))
