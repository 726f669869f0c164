"""Material symmetry groups.

A symmetry group is either a finite set of orthogonal tensors or the full
orthogonal group, which holds none.  Every finite group is a closure:
generate_closure, the only way to make one, closes a generator set under
products breadth-first over words in the generators (the trivial group
closes none).  A finite closure of orthogonal matrices contains inverses
automatically because every element has finite order.

Element identity during closure is approximate: two matrices closer than
DEDUP_TOL in max-norm count as the same element, so a closure holds the
identity and no duplicates by construction.  The tolerance is deliberately
tight: a generator set that only closes thanks to near-duplicate merging is
better reported as ClosureOverflow than silently collapsed.  What can still
fail is checked once, on the finished stack: an element that drifted from
orthogonal as the generators were multiplied, and a set that closed by
merging, whose transposes are then missing.  Closure tests each new product
against every element found so far; the transpose test and closure_defect
search the trace buckets of _nearest, which states the bucket rule and the
budget of (query, candidate) pairs that bounds its memory.
"""

from __future__ import annotations

import re
from dataclasses import KW_ONLY, InitVar, dataclass, field
from functools import lru_cache

import numpy as np

from .tensors import (
    ELEMENT_ORTH_TOL,
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
    _stream,
    as_tensor2,
    rotation_about,
)

DEDUP_TOL = 1e-6
# queries per trace-bucket search, and products per closure_defect step
_BLOCK = 1024
# (query, candidate) pairs per trace-bucket search: its gathered candidates
# and their differences from the queries take about 2.4 MB
_SLOTS = _BLOCK * 16


class ClosureOverflow(RuntimeError):
    """Raised when a generator set does not close within max_order elements."""


class UnknownGroupName(LookupError):
    """Raised by catalog_lookup for a name not in the catalog."""


def _nearest(stored: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Max-norm distance from each query to the nearest stored element in its
    trace bucket or a neighbouring one; inf when those buckets are empty.

    Both (n, 3, 3) stacks are bucketed by trace on a 1e-3 grid.  Two matrices
    within 1e-4 in max-norm differ in trace by at most 3e-4, under one bucket
    width, so below 1e-4 this search is exact, not a heuristic.  Queries are
    taken in blocks of consecutive ones, their candidates padded to the
    widest range among them.  A block ends after _BLOCK queries, or before
    one more would pass _SLOTS (query, candidate) pairs, but holds one query
    at least: memory grows neither with the square of a large cyclic group
    nor with a few crowded buckets (the rotations about z near the identity
    and the half turn).  The blocks change no distance."""
    # entries first, queries last: each reduction below runs across rows
    s = stored.reshape(-1, 9).T
    keys = np.floor((s[0] + s[4] + s[8]) * 1000.0).astype(np.int64)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    trace = queries[:, 0, 0] + queries[:, 1, 1] + queries[:, 2, 2]
    qkeys = np.floor(trace * 1000.0).astype(np.int64)
    los = np.searchsorted(keys, qkeys - 1, side="left")
    widths = np.searchsorted(keys, qkeys + 1, side="right") - los
    nearest = np.empty(len(queries))
    i = 0
    while i < len(queries):
        # k queries padded to the widest range among them take k times that
        # range, which never falls as k grows: end the block before _SLOTS
        widest = np.maximum.accumulate(widths[i : i + _BLOCK])
        padded = widest * np.arange(1, len(widest) + 1)
        j = i + max(1, int(np.searchsorted(padded, _SLOTS, side="right")))
        q = np.ascontiguousarray(queries[i:j].reshape(-1, 9).T)
        lo, width = los[i:j], widths[i:j]
        # candidates lo, lo + 1, ... below lo + width, padded to the widest range
        steps = np.arange(widest[j - i - 1])[:, None]
        index = order[np.minimum(lo + steps, len(order) - 1)]
        dist = np.max(np.abs(q[:, None] - s[:, index]), axis=0)
        nearest[i:j] = np.min(np.where(steps < width, dist, np.inf), axis=0, initial=np.inf)
        i = j
    return nearest


@dataclass(frozen=True, eq=False)
class SymmetryGroup:
    """A finite point group, or the full orthogonal group: finite exactly
    when it holds elements.  SymmetryGroup("full_orthogonal") holds none:
    symmetry under it is isotropy (checks.check_symmetry).

    Only generate_closure makes a finite group.  Its elements are the rows of
    one read-only (n, 3, 3) array, ``stack``: the identity first, orthogonal
    within ELEMENT_ORTH_TOL, no two within DEDUP_TOL, and each one's
    transpose among them; closure_defect() measures how far the products of
    pairs land from the elements."""

    name: str
    # generate_closure passes its frozen (n, 3, 3) stack, which __post_init__
    # keeps as ``stack`` and replaces here with the tuple of its rows
    elements: np.ndarray | tuple[np.ndarray, ...] | None = None
    _: KW_ONLY
    # set only by generate_closure, which has validated the elements
    _closed: InitVar[bool] = False
    stack: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self, _closed):
        # any other name without elements would be sampled under that name
        if self.elements is not None or self.name != "full_orthogonal":
            if not _closed:
                raise ValueError("a finite group is made by generate_closure")
            object.__setattr__(self, "stack", self.elements)
            object.__setattr__(self, "elements", tuple(self.elements))

    @property
    def order(self) -> int:
        if self.stack is None:
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
        stack = self.stack
        if stack is None:
            raise ValueError("closure_defect applies to finite groups")
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
    """Close a generator set under matrix products: the one way to make a
    finite SymmetryGroup.

    Raises ClosureOverflow as soon as the element count exceeds ``max_order``;
    near-identity or irrational-angle generators land here instead of being
    merged away.  Raises ValueError for a generator, then for an element of
    the closure, that is not orthogonal within ELEMENT_ORTH_TOL, and then for
    an element whose transpose is not in the closure within that tolerance."""
    if max_order < 1:
        raise ValueError("max_order must be a positive integer")
    gens = [as_tensor2(g) for g in generators]
    skewed = np.flatnonzero(~_orthogonal(np.reshape(gens, (-1, 3, 3)), ELEMENT_ORTH_TOL))
    if skewed.size:
        raise ValueError(f"generator {skewed[0]} is not orthogonal within {ELEMENT_ORTH_TOL:g}")

    # the elements so far, entries first: found[:, :count]; doubles when full,
    # as does the scratch that |found - m| is taken in, not one block per test
    found, count = np.eye(3).reshape(9, 1), 1
    scratch = np.empty(found.size)

    def add(m: np.ndarray) -> bool:
        """Store m unless an element within DEDUP_TOL is stored already."""
        nonlocal found, count, scratch
        diff = scratch[: 9 * count].reshape(9, count)
        np.subtract(found[:, :count], m.reshape(9, 1), diff)
        if np.abs(diff, diff).max(axis=0).min() < DEDUP_TOL:
            return False
        if count + 1 > max_order:
            raise ClosureOverflow(
                f"closure of '{name}' exceeded max_order={max_order}; the "
                f"generators do not appear to generate a finite group"
            )
        if count == found.shape[1]:
            found = np.concatenate((found, np.empty_like(found)), axis=1)
            scratch = np.empty(found.size)
        found[:, count] = m.ravel()
        count += 1
        return True

    frontier = [g for g in gens if add(g)]
    while frontier:
        products = (word @ g for word in frontier for g in gens)
        frontier = [p for p in products if add(p)]
    stack = _frozen(np.ascontiguousarray(found[:, :count].T).reshape(-1, 3, 3))
    skewed = np.flatnonzero(~_orthogonal(stack, ELEMENT_ORTH_TOL))
    if skewed.size:
        raise ValueError(f"element {skewed[0]} is not orthogonal within {ELEMENT_ORTH_TOL:g}")
    missing = np.flatnonzero(_nearest(stack, stack.transpose(0, 2, 1)) > ELEMENT_ORTH_TOL)
    if missing.size:
        raise ValueError(f"element {missing[0]} has no transpose in the group (inverses missing)")
    return SymmetryGroup(name, stack, _closed=True)


def _closure(generators, max_order: int, name: str):
    return lambda: generate_closure(generators, max_order, name)


# The catalog, name -> (description, builder), as CATALOG_SUMMARY lists it.
# A builder takes no argument and returns the group.  The transverse_z_<n>
# family's names are parsed by resolve_group_name.
_CATALOG = {
    "trivial": ("identity only (order 1)", _closure([], 1, "trivial")),
    "z4": ("four-fold rotations about z (order 4)", _closure([ROT_Z_90], 8, "z4")),
    "transverse_z_<n>": ("n-fold rotations about z (order n)", None),
    "orthotropic": (
        "half-turn rotations about the axes (order 4, det +1)",
        _closure([ROT_X_180, ROT_Y_180], 8, "orthotropic"),
    ),
    "cubic_rotations": (
        "proper rotations of the cube (order 24)",
        _closure([ROT_Z_90, ROT_X_90], 48, "cubic_rotations"),
    ),
    "full_orthogonal": (
        "sampled full orthogonal group",
        lambda: SymmetryGroup("full_orthogonal"),
    ),
}
CATALOG_SUMMARY = tuple((name, description) for name, (description, _) in _CATALOG.items())

_TRANSVERSE_RE = re.compile(r"transverse_z_([0-9]+)\Z")


def resolve_group_name(name: str):
    """The builder of a catalog name, a function of no argument that returns
    the group; raises UnknownGroupName.  Resolving builds nothing, so a name
    can be validated without paying for its closure."""
    builder = _CATALOG.get(name, (None, None))[1]
    if builder is not None:
        return builder
    m = _TRANSVERSE_RE.match(name)
    if m is None:
        raise UnknownGroupName(name)
    n = int(m.group(1))
    if n < 1:
        raise UnknownGroupName(f"transverse order must be >= 1, got {name!r}")
    close = _closure([rotation_about((0.0, 0.0, 1.0), 2.0 * np.pi / n)], max(4 * n, 16), name)
    return lambda: _of_order(close(), n)


def _of_order(group: SymmetryGroup, n: int) -> SymmetryGroup:
    """The group, which must have n elements: past n = 6.28e6 or so, a turn
    by 2 pi / n is within DEDUP_TOL of I and closes to the trivial group."""
    if group.order != n:
        raise ValueError(f"closure of '{group.name}' has order {group.order}, not {n}: "
                         f"its elements are not {DEDUP_TOL:g} apart")
    return group


def catalog_lookup(name: str) -> SymmetryGroup:
    """Look up a named group."""
    return resolve_group_name(name)()


@lru_cache(maxsize=1)
def adversarial_elements() -> tuple[np.ndarray, ...]:
    """Deterministic stress set appended to every sampled orthogonal draw.

    Axis-aligned quarter, third and half turns expose any diagonal or
    axis-locked anisotropy regardless of the random seed; the inversion tests
    the improper half, and one irrational-direction rotation guards against
    constructions tuned to the coordinate axes.
    """
    return (
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
    )


@lru_cache(maxsize=8)
def orthogonal_check_set(seed: int, sample_count: int) -> np.ndarray:
    """``sample_count`` Haar draws (proper and improper mixed) followed by the
    adversarial set, as one read-only (sample_count + 12, 3, 3) stack: the
    sampled full orthogonal group of the isotropy check's last step, and of
    frame indifference under full_orthogonal.  Cached: the set is pure in
    (seed, sample_count)."""
    draws = _haar_orthogonal(_stream(seed, "group"), sample_count)
    return _frozen(np.concatenate((draws, adversarial_elements())))
