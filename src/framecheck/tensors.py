"""Small dense 3D tensor kernel: vectors, second order tensors, stacks of
observer changes, and deterministic Haar sampling of the orthogonal group.

Vectors and tensors are plain float64 numpy arrays of shape (3,) and (3, 3),
and O observer changes one (O, 3, 3) stack of their matrices.  The
constructors below validate shape and finiteness and clear the writeable
flag, so every value handed around by this package is effectively immutable
and safe to share across threads.

All randomness is drawn from numpy Generators constructed from an explicit
64-bit seed.  There is no global RNG state anywhere in the package; callers
that parallelize must partition the seed space instead of sharing a stream.
"""

from __future__ import annotations

import numpy as np

# max|Q Q^T - 1| of a group element, and of an observer, whose round trip
# Q^T Q would miss by about that much and show in the observer checks
ELEMENT_ORTH_TOL = 1e-9
OBSERVER_ORTH_TOL = 1e-12

# Seed-stream salt for observer draws; groups and gradient sampling use their
# own salts so the three streams never collide for a shared base seed.
_OBSERVER_STREAM = 3


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


def _haar_orthogonal(rng: np.random.Generator, n: int, proper_only: bool = False) -> np.ndarray:
    """``n`` Haar-distributed orthogonal matrices drawn from ``rng``, (n, 3, 3):
    the draws of n one-matrix calls, bit for bit, from one stacked QR."""
    gauss = rng.standard_normal((n, 3, 3))
    q, r = np.linalg.qr(gauss)
    # Fixing the QR sign ambiguity (diagonal of r made positive) is what makes
    # q Haar-distributed over the full orthogonal group, both determinant
    # signs appearing with probability 1/2.
    q = q * np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None, :]
    if proper_only:
        improper = np.linalg.det(q) < 0.0
        q[improper, :, 2] = -q[improper, :, 2]
    return q


def random_orthogonal(seed, proper_only: bool = False) -> np.ndarray:
    """Haar-distributed orthogonal tensor, bit-reproducible per seed.

    With ``proper_only`` the improper half of the distribution is folded onto
    rotations by flipping one column, which preserves uniformity on the
    rotation subgroup.
    """
    rng = np.random.default_rng(_require_seed(seed))
    return _frozen(_haar_orthogonal(rng, 1, proper_only))[0]


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
    rng = np.random.default_rng([_require_seed(seed), _OBSERVER_STREAM])
    return observer_stack(_haar_orthogonal(rng, count))
