"""Material symmetry groups.

A symmetry group is either a finite set of orthogonal tensors (generated by
closing a generator set under products) or a sampled stand-in for the full
orthogonal group.  Closure works breadth-first over words in the generators;
right-extension by one generator per step reaches every product, and a finite
closure of orthogonal matrices contains inverses automatically because every
element has finite order.

Element identity during closure is approximate: two matrices closer than
DEDUP_TOL in max-norm count as the same element.  Real point groups keep
their elements far apart, so a generator set that only closes thanks to
near-duplicate merging is better reported as ClosureOverflow than silently
collapsed; the tolerance is deliberately tight.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensors import (
    IDENTITY,
    INVERSION,
    ROT_X_90,
    ROT_X_180,
    ROT_Y_90,
    ROT_Y_180,
    ROT_Z_90,
    ROT_Z_180,
    _frozen,
    _haar_orthogonal,
    _require_seed,
    as_tensor2,
    is_orthogonal,
    max_abs,
    rotation_about,
)

DEDUP_TOL = 1e-6
ELEMENT_ORTH_TOL = 1e-9
DEFAULT_SAMPLE_COUNT = 256

_GROUP_STREAM = 1


class ClosureOverflow(RuntimeError):
    """Raised when a generator set does not close within max_order elements."""


class UnknownGroupName(LookupError):
    """Raised by catalog_lookup for a name not in the catalog."""


class GroupKind(enum.Enum):
    FINITE = "finite"
    FULL_ORTHOGONAL = "full_orthogonal"


class _ElementIndex:
    """Max-norm dedup index over 3x3 matrices.

    Buckets by trace on a 1e-3 grid.  Two matrices within ``tol`` in max-norm
    differ in trace by at most 3 * tol, well under one bucket width, so
    scanning the key's own bucket plus both neighbors is an exact membership
    test, not a heuristic.
    """

    def __init__(self, tol: float = DEDUP_TOL):
        assert tol <= 1e-4, "bucket width assumes a small tolerance"
        self.tol = tol
        self._buckets: dict[int, list[np.ndarray]] = {}

    @staticmethod
    def _key(m: np.ndarray) -> int:
        return int(math.floor(float(np.trace(m)) * 1000.0))

    @staticmethod
    def keys(ms: np.ndarray) -> np.ndarray:
        """_key of each matrix of an (n, 3, 3) stack."""
        return np.floor(np.trace(ms, axis1=1, axis2=2) * 1000.0).astype(np.int64)

    def nearest(self, m: np.ndarray) -> float:
        """Smallest max-norm distance to any indexed element near m's trace."""
        key = self._key(m)
        best = math.inf
        for k in (key - 1, key, key + 1):
            for other in self._buckets.get(k, ()):
                d = max_abs(m - other)
                if d < best:
                    best = d
        return best

    def add(self, m: np.ndarray) -> bool:
        """Index m unless an element within tol already exists."""
        if self.nearest(m) < self.tol:
            return False
        self._buckets.setdefault(self._key(m), []).append(m)
        return True


@dataclass(frozen=True, eq=False)
class SymmetryGroup:
    """A finite point group, or the sampled full orthogonal group.

    Finite groups validate on construction: every element orthogonal within
    ELEMENT_ORTH_TOL, identity present, no near-duplicate elements, and closed
    under transposition (each element's inverse is stored too).  Closure under
    products is exhaustive-quadratic and therefore left to closure_defect().
    """

    kind: GroupKind
    name: str
    elements: tuple[np.ndarray, ...] | None = None
    sample_count: int | None = None

    def __post_init__(self):
        if self.kind is GroupKind.FINITE:
            if not self.elements:
                raise ValueError("a finite group needs at least the identity")
            if self.sample_count is not None:
                raise ValueError("sample_count applies to full_orthogonal only")
            els = tuple(as_tensor2(e) for e in self.elements)
            index = _ElementIndex()
            for i, e in enumerate(els):
                if not is_orthogonal(e, ELEMENT_ORTH_TOL):
                    raise ValueError(
                        f"element {i} is not orthogonal within {ELEMENT_ORTH_TOL:g}"
                    )
                if not index.add(e):
                    raise ValueError(f"element {i} duplicates an earlier element")
            if index.nearest(np.eye(3)) > ELEMENT_ORTH_TOL:
                raise ValueError("a finite group must contain the identity")
            for i, e in enumerate(els):
                if index.nearest(np.ascontiguousarray(e.T)) > ELEMENT_ORTH_TOL:
                    raise ValueError(
                        f"element {i} has no transpose in the group (inverses missing)"
                    )
            object.__setattr__(self, "elements", els)
        elif self.kind is GroupKind.FULL_ORTHOGONAL:
            if self.elements is not None:
                raise ValueError("full_orthogonal stores no explicit elements")
            if self.sample_count is None or self.sample_count < 1:
                raise ValueError("sample_count must be a positive integer")
        else:
            raise ValueError(f"unknown group kind {self.kind!r}")

    @property
    def order(self) -> int:
        if self.kind is not GroupKind.FINITE:
            raise ValueError("only finite groups have an order")
        return len(self.elements)

    def closure_defect(self) -> float:
        """Max over all pairwise products of the distance to the nearest
        stored element.  Zero (to rounding) for a genuine group.

        The products are formed one row a @ (every b) at a time, and each is
        looked up in the trace buckets of _ElementIndex: only elements whose
        bucket is the product's own or a neighbor count, inf when there is
        none."""
        if self.kind is not GroupKind.FINITE:
            raise ValueError("closure_defect applies to finite groups")
        stack = np.stack(self.elements)
        keys = _ElementIndex.keys(stack)
        order = np.argsort(keys, kind="stable")
        stored, keys = stack[order], keys[order]
        worst = 0.0
        for a in self.elements:
            products = a @ stack
            pkeys = _ElementIndex.keys(products)
            lo = np.searchsorted(keys, pkeys - 1, side="left")
            hi = np.searchsorted(keys, pkeys + 1, side="right")
            # candidates lo, lo + 1, ... below hi, padded to the widest range
            cand = lo[:, None] + np.arange(int(np.max(hi - lo)))
            dist = np.max(
                np.abs(products[:, None] - stored[np.minimum(cand, len(stored) - 1)]), axis=(2, 3)
            )
            nearest = np.min(np.where(cand < hi[:, None], dist, np.inf), axis=1, initial=np.inf)
            worst = max(worst, float(np.max(nearest)))
        return worst


def generate_closure(generators, max_order: int, name: str = "generated") -> SymmetryGroup:
    """Close a generator set under matrix products.

    Raises ClosureOverflow as soon as the element count exceeds ``max_order``;
    near-identity or irrational-angle generators land here instead of being
    merged away.
    """
    if max_order < 1:
        raise ValueError("max_order must be a positive integer")
    gens = [as_tensor2(g) for g in generators]
    for i, g in enumerate(gens):
        if not is_orthogonal(g, ELEMENT_ORTH_TOL):
            raise ValueError(f"generator {i} is not orthogonal within {ELEMENT_ORTH_TOL:g}")

    index = _ElementIndex()
    elements: list[np.ndarray] = [np.eye(3)]
    index.add(elements[0])
    frontier: list[np.ndarray] = []
    for g in gens:
        if index.add(g):
            elements.append(g)
            frontier.append(g)
    while frontier:
        if len(elements) > max_order:
            raise ClosureOverflow(
                f"closure of '{name}' exceeded max_order={max_order}; the "
                f"generators do not appear to generate a finite group"
            )
        fresh: list[np.ndarray] = []
        for word in frontier:
            for g in gens:
                product = word @ g
                if index.add(product):
                    elements.append(product)
                    fresh.append(product)
                    if len(elements) > max_order:
                        raise ClosureOverflow(
                            f"closure of '{name}' exceeded max_order={max_order}; "
                            f"the generators do not appear to generate a finite group"
                        )
        frontier = fresh
    return SymmetryGroup(GroupKind.FINITE, name, tuple(_frozen(e) for e in elements))


# Catalog names understood by resolve_group_name and catalog_lookup.
# transverse_z_<n> is a family; the placeholder entry documents it for the
# CLI listing.
CATALOG_SUMMARY = (
    ("trivial", "identity only (order 1)"),
    ("z4", "four-fold rotations about z (order 4)"),
    ("transverse_z_<n>", "n-fold rotations about z (order n)"),
    ("orthotropic", "half-turn rotations about the axes (order 4, det +1)"),
    ("cubic_rotations", "proper rotations of the cube (order 24)"),
    ("full_orthogonal", "sampled full orthogonal group"),
)

_TRANSVERSE_RE = re.compile(r"transverse_z_([0-9]+)\Z")


_CATALOG_BUILDERS = {
    "trivial": lambda sample_count: SymmetryGroup(GroupKind.FINITE, "trivial", (IDENTITY,)),
    "z4": lambda sample_count: generate_closure([ROT_Z_90], 8, name="z4"),
    "orthotropic": lambda sample_count: SymmetryGroup(
        GroupKind.FINITE, "orthotropic", (IDENTITY, ROT_X_180, ROT_Y_180, ROT_Z_180)
    ),
    "cubic_rotations": lambda sample_count: generate_closure(
        [ROT_Z_90, ROT_X_90], 48, name="cubic_rotations"
    ),
    "full_orthogonal": lambda sample_count: SymmetryGroup(
        GroupKind.FULL_ORTHOGONAL, "full_orthogonal", sample_count=sample_count
    ),
}


def resolve_group_name(name: str):
    """The builder of a catalog name, a function of ``sample_count`` that
    returns the group; raises UnknownGroupName.  Resolving builds nothing,
    so a name can be validated without paying for its closure."""
    builder = _CATALOG_BUILDERS.get(name)
    if builder is not None:
        return builder
    m = _TRANSVERSE_RE.match(name)
    if m is None:
        raise UnknownGroupName(name)
    n = int(m.group(1))
    if n < 1:
        raise UnknownGroupName(f"transverse order must be >= 1, got {name!r}")

    def transverse(sample_count):
        gen = rotation_about((0.0, 0.0, 1.0), 2.0 * np.pi / n)
        return generate_closure([gen], max(4 * n, 16), name=name)

    return transverse


def catalog_lookup(name: str, sample_count: int = DEFAULT_SAMPLE_COUNT) -> SymmetryGroup:
    """Look up a named group.  ``sample_count`` applies to full_orthogonal."""
    return resolve_group_name(name)(sample_count)


@lru_cache(maxsize=1)
def adversarial_elements() -> tuple[np.ndarray, ...]:
    """Deterministic stress set appended to every sampled orthogonal draw.

    Axis-aligned quarter, third and half turns expose any diagonal or
    axis-locked anisotropy regardless of the random seed; the inversion tests
    the improper half, and one irrational-direction rotation guards against
    constructions tuned to the coordinate axes.
    """
    els = [
        IDENTITY,
        INVERSION,
        ROT_X_90,
        rotation_about((1.0, 0.0, 0.0), 2.0 * np.pi / 3.0),
        ROT_X_180,
        ROT_Y_90,
        rotation_about((0.0, 1.0, 0.0), 2.0 * np.pi / 3.0),
        ROT_Y_180,
        ROT_Z_90,
        rotation_about((0.0, 0.0, 1.0), 2.0 * np.pi / 3.0),
        ROT_Z_180,
        rotation_about((1.0, np.sqrt(2.0), np.sqrt(3.0)), 1.0),
    ]
    return tuple(els)


@lru_cache(maxsize=8)
def orthogonal_check_set(seed: int, sample_count: int) -> tuple[np.ndarray, ...]:
    """``sample_count`` Haar draws (proper and improper mixed) followed by the
    adversarial set.  Cached: the set is pure in (seed, sample_count)."""
    rng = np.random.default_rng([_require_seed(seed), _GROUP_STREAM])
    draws = tuple(_frozen(_haar_orthogonal(rng)) for _ in range(sample_count))
    return draws + adversarial_elements()


def group_elements_for_check(group: SymmetryGroup, seed) -> list[np.ndarray]:
    """Elements a checker should iterate: the full list for a finite group,
    Haar samples plus the adversarial set for full_orthogonal."""
    s = _require_seed(seed)
    if group.kind is GroupKind.FINITE:
        return list(group.elements)
    return list(orthogonal_check_set(s, group.sample_count))
