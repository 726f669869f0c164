"""Small dense 3D tensor kernel: vectors, second order tensors, orthogonal
observer changes, and deterministic Haar sampling of the orthogonal group.

Vectors and tensors are plain float64 numpy arrays of shape (3,) and (3, 3).
The constructors below validate shape and finiteness and clear the writeable
flag, so every value handed around by this package is effectively immutable
and safe to share across threads.

All randomness is drawn from numpy Generators constructed from an explicit
64-bit seed.  There is no global RNG state anywhere in the package; callers
that parallelize must partition the seed space instead of sharing a stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Matrices typed in by a user (config files, test fixtures) are allowed more
# orthogonality slack than matrices this package constructs itself.
USER_ORTH_TOL = 1e-9
INTERNAL_ORTH_TOL = 1e-12

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


def is_orthogonal(t, tol: float = USER_ORTH_TOL) -> bool:
    """True iff max|t @ t.T - 1| <= tol.

    Non-finite or wrongly shaped input is never orthogonal (returns False
    rather than raising, so this can vet untrusted matrices directly).
    """
    if not np.isfinite(tol) or tol <= 0.0:
        raise ValueError("tol must be a positive finite number")
    t = np.asarray(t, dtype=float)
    if t.shape != (3, 3) or not np.all(np.isfinite(t)):
        return False
    return max_abs(t @ t.T - np.eye(3)) <= tol


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


@dataclass(frozen=True, eq=False)
class ObserverChange:
    """Change of observer, represented by the orthogonal matrix relating the
    canonical frame to the starred observer frame.

    The inverse of an orthogonal matrix is its transpose; nothing in this
    package ever calls a general matrix inverse on an observer.
    """

    q_matrix: np.ndarray
    orth_tol: float = USER_ORTH_TOL

    def __post_init__(self):
        m = as_tensor2(self.q_matrix)
        if not is_orthogonal(m, self.orth_tol):
            raise ValueError(
                f"observer matrix is not orthogonal within {self.orth_tol:g}"
            )
        det = float(np.linalg.det(m))
        if min(abs(det - 1.0), abs(det + 1.0)) > 10.0 * self.orth_tol:
            raise ValueError("observer determinant must be +1 or -1")
        object.__setattr__(self, "q_matrix", m)

    @property
    def determinant(self) -> float:
        return float(np.linalg.det(self.q_matrix))

    def inverse(self) -> "ObserverChange":
        return ObserverChange(self.q_matrix.T.copy(), self.orth_tol)


def transform_vector(q: ObserverChange, v) -> np.ndarray:
    """Observer components of a vector: Q @ v."""
    return q.q_matrix @ as_vec3(v)


def conjugate_tensor(q: ObserverChange, h) -> np.ndarray:
    """Observer components of a second order tensor: Q @ H @ Q.T."""
    m = q.q_matrix
    return m @ as_tensor2(h) @ m.T


# Batched kernels.  A stack of S tensors is (S, 3, 3), in practice a view of
# a C-contiguous (3, 3, S) array, and a stack of vectors (..., 3).  The
# kernels below run with the sample axis last, so each numpy inner loop spans
# the samples, not a 3-long component axis.  Each returns the bits of the
# sample-first einsum named in its docstring.


def sample_last(stack) -> np.ndarray:
    """C-contiguous (3, 3, S) copy of an (S, 3, 3) stack; no copy when the
    stack is a view of one, as model.kappa and conjugate_stack return."""
    return np.ascontiguousarray(np.transpose(stack, (1, 2, 0)))


def conjugate_stack(q, stack) -> np.ndarray:
    """Q kappa_s Q^T for each tensor of an (S, 3, 3) stack, bit for bit
    einsum("ij,sjk,lk->sil", q, stack, q) on a stack whose components are in
    C order (contiguous, broadcast or sample-last).  The result is an
    (S, 3, 3) view of a sample-last array."""
    return np.einsum("ij,jks,lk->ils", q, sample_last(stack), q).transpose(2, 0, 1)


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
    np.linalg.norm(vectors, axis=-1)."""
    last = vectors.ndim - 1
    return np.linalg.norm(np.ascontiguousarray(vectors.transpose(last, *range(last))), axis=0)


def random_observers(count: int, seed) -> list[ObserverChange]:
    """``count`` Haar-random observer changes (proper and improper mixed)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng([_require_seed(seed), _OBSERVER_STREAM])
    return [
        ObserverChange(q, orth_tol=INTERNAL_ORTH_TOL) for q in _haar_orthogonal(rng, count)
    ]
