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
collapsed; the tolerance is deliberately tight.  Closure tests each new
product against every element found so far; validation and closure_defect
search the trace buckets of _nearest, which states the bucket rule.
"""

from __future__ import annotations

import enum
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
    _orthogonal,
    _require_seed,
    as_tensor2,
    rotation_about,
)

DEDUP_TOL = 1e-6
ELEMENT_ORTH_TOL = 1e-9
DEFAULT_SAMPLE_COUNT = 256
# queries per trace-bucket search, and products per closure_defect step
_BLOCK = 1024

_GROUP_STREAM = 1


class ClosureOverflow(RuntimeError):
    """Raised when a generator set does not close within max_order elements."""


class UnknownGroupName(LookupError):
    """Raised by catalog_lookup for a name not in the catalog."""


class GroupKind(enum.Enum):
    FINITE = "finite"
    FULL_ORTHOGONAL = "full_orthogonal"


def _nearest(stored: np.ndarray, queries: np.ndarray, before=None) -> np.ndarray:
    """Max-norm distance from each query to the nearest stored element in its
    trace bucket or a neighbouring one; inf when those buckets are empty.
    With ``before``, query i is compared with stored[:before[i]] only.

    Both (n, 3, 3) stacks are bucketed by trace on a 1e-3 grid.  Two matrices
    within 1e-4 in max-norm differ in trace by at most 3e-4, under one bucket
    width, so below 1e-4 this search is exact, not a heuristic.  Queries are
    taken _BLOCK at a time, their candidates padded to the widest range among
    them, so memory does not grow with the square of a large cyclic group."""
    # entries first, queries last: each reduction below runs across rows
    s = stored.reshape(-1, 9).T
    keys = np.floor((s[0] + s[4] + s[8]) * 1000.0).astype(np.int64)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    nearest = np.empty(len(queries))
    for i in range(0, len(queries), _BLOCK):
        q = np.ascontiguousarray(queries[i : i + _BLOCK].reshape(-1, 9).T)
        qkeys = np.floor((q[0] + q[4] + q[8]) * 1000.0).astype(np.int64)
        lo = np.searchsorted(keys, qkeys - 1, side="left")
        hi = np.searchsorted(keys, qkeys + 1, side="right")
        # candidates lo, lo + 1, ... below hi, padded to the widest range
        cand = lo + np.arange(int(np.max(hi - lo, initial=0)))[:, None]
        index = order[np.minimum(cand, len(order) - 1)]
        live = cand < hi
        if before is not None:
            live &= index < before[i : i + _BLOCK]
        dist = np.max(np.abs(q[:, None] - s[:, index]), axis=0)
        nearest[i : i + _BLOCK] = np.min(np.where(live, dist, np.inf), axis=0, initial=np.inf)
    return nearest


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
            stack = np.stack(els)
            # reported as a loop over the elements would meet them: element by
            # element, orthogonality before duplicates; then identity, transposes
            skewed = np.flatnonzero(~_orthogonal(stack, ELEMENT_ORTH_TOL))
            first = skewed[0] if skewed.size else len(els)
            earlier = _nearest(stack[:first], stack[:first], before=np.arange(first))
            dupes = np.flatnonzero(earlier < DEDUP_TOL)
            if dupes.size:
                raise ValueError(f"element {dupes[0]} duplicates an earlier element")
            if skewed.size:
                raise ValueError(f"element {first} is not orthogonal within {ELEMENT_ORTH_TOL:g}")
            near = _nearest(stack, np.concatenate((IDENTITY[None], stack.transpose(0, 2, 1))))
            if near[0] > ELEMENT_ORTH_TOL:
                raise ValueError("a finite group must contain the identity")
            missing = np.flatnonzero(near[1:] > ELEMENT_ORTH_TOL)
            if missing.size:
                raise ValueError(
                    f"element {missing[0]} has no transpose in the group (inverses missing)"
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

        The products are formed a few rows a @ (every b) at a time, at most
        _BLOCK products or one row, and each is looked up with _nearest: only
        elements in the product's own trace bucket or a neighbouring one
        count.  A product with no element in those buckets is measured against
        every element, so a set that is not closed gives the distance, not
        inf."""
        if self.kind is not GroupKind.FINITE:
            raise ValueError("closure_defect applies to finite groups")
        stack = np.stack(self.elements)
        rows = max(1, _BLOCK // len(stack))
        worst = 0.0
        for i in range(0, len(stack), rows):
            products = (stack[i : i + rows, None] @ stack).reshape(-1, 3, 3)
            nearest = _nearest(stack, products)
            far = np.isinf(nearest)
            if np.any(far):
                dist = np.max(np.abs(products[far, None] - stack), axis=(2, 3))
                nearest[far] = np.min(dist, axis=1)
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
    skewed = np.flatnonzero(~_orthogonal(np.reshape(gens, (-1, 3, 3)), ELEMENT_ORTH_TOL))
    if skewed.size:
        raise ValueError(f"generator {skewed[0]} is not orthogonal within {ELEMENT_ORTH_TOL:g}")

    # the elements so far, entries first: found[:, :count]; doubles when full
    found, count = np.eye(3).reshape(9, 1), 1

    def add(m: np.ndarray) -> bool:
        """Store m unless an element within DEDUP_TOL is stored already."""
        nonlocal found, count
        if np.min(np.max(np.abs(found[:, :count] - m.reshape(9, 1)), axis=0)) < DEDUP_TOL:
            return False
        if count + 1 > max_order:
            raise ClosureOverflow(
                f"closure of '{name}' exceeded max_order={max_order}; the "
                f"generators do not appear to generate a finite group"
            )
        if count == found.shape[1]:
            found = np.concatenate((found, np.empty_like(found)), axis=1)
        found[:, count] = m.ravel()
        count += 1
        return True

    frontier = [g for g in gens if add(g)]
    while frontier:
        products = (word @ g for word in frontier for g in gens)
        frontier = [p for p in products if add(p)]
    return SymmetryGroup(GroupKind.FINITE, name, tuple(found[:, :count].T.reshape(-1, 3, 3)))


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
    draws = tuple(_frozen(_haar_orthogonal(rng, sample_count)))
    return draws + adversarial_elements()


def group_elements_for_check(group: SymmetryGroup, seed) -> list[np.ndarray]:
    """Elements a checker should iterate: the full list for a finite group,
    Haar samples plus the adversarial set for full_orthogonal."""
    s = _require_seed(seed)
    if group.kind is GroupKind.FINITE:
        return list(group.elements)
    return list(orthogonal_check_set(s, group.sample_count))
