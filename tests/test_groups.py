import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framecheck as fc
from framecheck.groups import resolve_group_name
from framecheck.tensors import _orthogonal

_MADE_BY_CLOSURE = r"^a finite group is made by generate_closure$"

def test_catalog_orders():
    assert fc.catalog_lookup("trivial").order == 1
    assert fc.catalog_lookup("z4").order == 4
    assert fc.catalog_lookup("orthotropic").order == 4
    assert fc.catalog_lookup("cubic_rotations").order == 24
    assert fc.catalog_lookup("transverse_z_8").order == 8
    assert fc.catalog_lookup("transverse_z_12").order == 12
    assert fc.catalog_lookup("transverse_z_1").order == 1


def test_a_cyclic_group_too_fine_to_close_is_refused():
    """Past n = 6.28e6 or so, the rotation by 2 pi / n is within DEDUP_TOL
    of the identity: its closure would be the trivial group, and a law
    would pass symmetry under it, so the catalog refuses it."""
    with pytest.raises(ValueError, match=r"^closure of 'transverse_z_100000000' has order 1, "):
        fc.catalog_lookup("transverse_z_100000000")
    # resolving still builds nothing
    resolve_group_name("transverse_z_100000000")


def test_z4_elements():
    group = fc.catalog_lookup("z4")
    expected = [
        np.eye(3),
        fc.ROT_Z_90,
        fc.ROT_Z_180,
        fc.ROT_Z_90.T,
    ]
    for want in expected:
        assert min(fc.max_abs(want - e) for e in group.elements) == 0.0


def test_transverse_z_4_matches_z4():
    # built from Rodrigues angles rather than exact constants, so compare
    # within rounding instead of exactly
    sampled = fc.catalog_lookup("transverse_z_4")
    exact = fc.catalog_lookup("z4")
    assert sampled.order == 4
    for e in sampled.elements:
        assert min(fc.max_abs(e - x) for x in exact.elements) < 1e-12


def _proper_signed_permutations():
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            for row, col in enumerate(perm):
                m[row, col] = signs[row]
            if np.linalg.det(m) > 0.0:
                mats.append(m)
    return mats


def test_cubic_rotations_are_proper_signed_permutations():
    """The 24 rotations of the cube, generated from two quarter turns, are
    exactly the signed permutation matrices with determinant +1."""
    group = fc.catalog_lookup("cubic_rotations")
    expected = _proper_signed_permutations()
    assert len(expected) == 24
    assert group.order == 24
    for want in expected:
        assert min(fc.max_abs(want - e) for e in group.elements) == 0.0


def test_closure_is_idempotent():
    for name in ("z4", "orthotropic", "cubic_rotations"):
        group = fc.catalog_lookup(name)
        again = fc.generate_closure(group.elements, max_order=2 * group.order)
        assert again.order == group.order


def test_closure_orders_from_generators():
    assert fc.generate_closure([np.eye(3)], max_order=4).order == 1
    assert fc.generate_closure([fc.ROT_Z_90], max_order=8).order == 4
    assert fc.generate_closure([fc.ROT_X_180, fc.ROT_Y_180], max_order=8).order == 4
    assert fc.generate_closure([fc.ROT_Z_90, fc.ROT_X_90], max_order=48).order == 24


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 9, 12])
def test_cyclic_closure_orders(n):
    gen = fc.rotation_about((0.0, 0.0, 1.0), 2.0 * np.pi / n)
    assert fc.generate_closure([gen], max_order=4 * n + 4).order == n


def test_closure_overflow_for_irrational_angle():
    with pytest.raises(fc.ClosureOverflow) as err:
        fc.generate_closure([fc.rotation_about((0.0, 0.0, 1.0), 1.0)], max_order=1000)
    assert "max_order=1000" in str(err.value)


def _reference_closure(generators, max_order, name):
    """generate_closure as a breadth-first loop over words in the generators,
    each new product tested against every element found so far."""
    elements = [np.eye(3)]

    def add(m):
        if min(fc.max_abs(m - e) for e in elements) < fc.groups.DEDUP_TOL:
            return False
        elements.append(m)
        if len(elements) > max_order:
            raise fc.ClosureOverflow(
                f"closure of '{name}' exceeded max_order={max_order}; the "
                f"generators do not appear to generate a finite group"
            )
        return True

    frontier = [g for g in generators if add(g)]
    while frontier:
        products = [word @ g for word in frontier for g in generators]
        frontier = [p for p in products if add(p)]
    return elements


_ROTATIONS = (fc.ROT_X_90, fc.ROT_Y_90, fc.ROT_Z_90, fc.ROT_X_180, fc.ROT_Y_180, fc.ROT_Z_180)


@st.composite
def _finite_generator_sets(draw):
    """Catalog rotations, a random conjugation of them, or a rotation about z
    by 2 pi / n: each generates a finite group."""
    kind = draw(st.sampled_from(("catalog", "conjugated", "cyclic")))
    if kind == "cyclic":
        return [fc.rotation_about((0.0, 0.0, 1.0), 2.0 * np.pi / draw(st.integers(1, 60)))]
    gens = draw(st.lists(st.sampled_from(_ROTATIONS), min_size=1, max_size=3))
    if kind == "conjugated":
        q = fc.random_orthogonal(draw(st.integers(0, 2**32 - 1)), proper_only=True)
        gens = [q @ g @ q.T for g in gens]
    return gens


@given(gens=_finite_generator_sets())
@settings(max_examples=40)
def test_closure_matches_the_reference_word_search(gens):
    order = len(_reference_closure(gens, math.inf, "reference"))
    for max_order in sorted({max(order - 1, 1), order, 10**12}):
        try:
            want = np.stack(_reference_closure(gens, max_order, "g"))
        except fc.ClosureOverflow as exc:
            with pytest.raises(fc.ClosureOverflow) as err:
                fc.generate_closure(gens, max_order, name="g")
            assert str(err.value) == str(exc)
            continue
        tracemalloc.start()
        try:
            group = fc.generate_closure(gens, max_order, name="g")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # nothing is sized by max_order: 10**12 costs what the true order does
        assert peak < 1_000_000, (max_order, peak)
        assert np.stack(group.elements).tobytes() == want.tobytes()


def test_closure_rejects_bad_generators():
    with pytest.raises(ValueError):
        fc.generate_closure([2.0 * np.eye(3)], max_order=8)
    with pytest.raises(ValueError):
        fc.generate_closure([np.eye(3)], max_order=0)


def test_overflowing_elements_are_rejected_without_a_warning():
    big = 1e200 * np.eye(3)
    with pytest.raises(ValueError, match=r"^generator 1 is not orthogonal within 1e-09$"):
        fc.generate_closure([fc.ROT_Z_90, big], max_order=8)
    # the element sets (I, big) and (-big,) cannot be built directly any
    # more; as generators they are rejected before any product is formed
    for elements, index in (((np.eye(3), big), 1), ((-big,), 0)):
        with pytest.raises(ValueError, match=_MADE_BY_CLOSURE):
            fc.SymmetryGroup("scaled", elements)
        message = rf"^generator {index} is not orthogonal within 1e-09$"
        with pytest.raises(ValueError, match=message):
            fc.generate_closure(elements, max_order=8)


def test_closure_defect_small_for_catalog_groups():
    for name in ("trivial", "z4", "orthotropic", "cubic_rotations", "transverse_z_8"):
        assert fc.catalog_lookup(name).closure_defect() <= 1e-12


def _pairwise_closure_defect(group):
    """closure_defect as the plain loop over all pairs: the candidates for a
    product are the elements whose trace bucket floor(1000 * trace) is
    within one of the product's, and every element when there are none."""
    elements = group.elements

    def bucket(m):
        return math.floor(1000.0 * float(np.trace(m)))

    def nearest(m):
        near = [e for e in elements if abs(bucket(e) - bucket(m)) <= 1] or elements
        return min(fc.max_abs(m - e) for e in near)

    return max(nearest(a @ b) for a in elements for b in elements)


def test_closure_defect_matches_the_pairwise_loop():
    def rz(angle):
        return fc.rotation_about((0.0, 0.0, 1.0), angle)

    names = ("trivial", "z4", "orthotropic", "cubic_rotations", "transverse_z_7", "transverse_z_48")
    groups = [fc.catalog_lookup(name) for name in names]
    # not closed: Rz90 @ Rz90 lands in a bucket with no element near it, at
    # max-norm distance 1 from Rz90; rz(1e-3) @ rz(1e-3) lands near the
    # identity's bucket, 1e-3 away from the nearest element
    # no closure gives these sets, so they are built with the private flag
    gaps = [
        fc.SymmetryGroup(
            "z4_without_half_turn",
            np.stack((fc.IDENTITY, fc.ROT_Z_90, fc.ROT_Z_90.T)),
            _closed=True,
        ),
        fc.SymmetryGroup(
            "small_turns",
            np.stack((fc.IDENTITY, rz(1e-3), rz(-1e-3))),
            _closed=True,
        ),
    ]
    for group in groups + gaps:
        assert group.closure_defect() == _pairwise_closure_defect(group), group.name
    assert gaps[0].closure_defect() == 1.0
    assert 5e-4 < gaps[1].closure_defect() < 2e-3


def test_nearest_pads_its_query_blocks_within_a_budget(monkeypatch):
    """_nearest ends a query block before padding it past _SLOTS (query,
    candidate) pairs.  The rotations about z near the identity and the half
    turn crowd a few trace buckets, and padding 1,024 queries to the widest
    range took 17.5 MB under tracemalloc for transverse_z_6000's transpose
    search; within the budget it peaks near 3.1 MB.  The blocks change no
    distance: one block per _BLOCK queries gives the same bits."""
    stack = fc.catalog_lookup("transverse_z_6000").stack
    queries = stack.transpose(0, 2, 1)
    tracemalloc.start()
    try:
        nearest = fc.groups._nearest(stack, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak
    assert np.max(nearest) <= 1e-12
    monkeypatch.setattr(fc.groups, "_SLOTS", math.inf)
    assert fc.groups._nearest(stack, queries).tobytes() == nearest.tobytes()


def test_group_validation_rejects_bad_element_sets():
    """Each element set the direct constructor used to reject cannot be built
    any more.  Closed as generators, a set holding a non-orthogonal matrix
    is rejected; every other set closes to a valid group, which holds the
    identity first, no duplicates and every transpose."""
    skewed = 2.0 * np.eye(3)
    cases = [
        ("empty", (), 1),
        ("no_identity", (fc.ROT_Z_180,), 2),
        ("no_inverse", (fc.IDENTITY, fc.ROT_Z_90), 4),
        ("dupes", (fc.IDENTITY, fc.as_tensor2(np.eye(3))), 1),
        ("skewed", (fc.IDENTITY, skewed), "generator 1 is not orthogonal within 1e-09"),
        (
            "dupe_then_skewed",
            (fc.IDENTITY, fc.ROT_Z_180, fc.ROT_Z_180, skewed),
            "generator 3 is not orthogonal within 1e-09",
        ),
        (
            "skewed_then_dupe",
            (fc.IDENTITY, skewed, fc.ROT_Z_180, fc.ROT_Z_180),
            "generator 1 is not orthogonal within 1e-09",
        ),
        ("no_inverse_and_dupe", (fc.IDENTITY, fc.ROT_Z_90, fc.ROT_Z_180, fc.ROT_Z_180), 4),
        ("no_identity_no_inverse", (fc.ROT_Z_90,), 4),
        ("two_without_inverse", (fc.IDENTITY, fc.ROT_Z_90, fc.ROT_X_90), 24),
    ]
    for name, elements, outcome in cases:
        with pytest.raises(ValueError, match=_MADE_BY_CLOSURE):
            fc.SymmetryGroup(name, elements)
        if isinstance(outcome, str):
            with pytest.raises(ValueError) as err:
                fc.generate_closure(elements, max_order=48, name=name)
            assert str(err.value) == outcome, name
            continue
        group = fc.generate_closure(elements, max_order=48, name=name)
        assert group.order == outcome, name
        assert np.array_equal(group.elements[0], fc.IDENTITY), name
        assert _reference_validation(group.elements) is None, name


def _reference_validation(elements):
    """SymmetryGroup's first complaint about a finite element set, from a
    loop over the elements that scans every element for each lookup; None
    for a valid set."""
    for i, e in enumerate(elements):
        if not _orthogonal(e[None], 1e-9)[0]:
            return f"element {i} is not orthogonal within 1e-09"
        if any(fc.max_abs(e - d) < fc.groups.DEDUP_TOL for d in elements[:i]):
            return f"element {i} duplicates an earlier element"
    if min(fc.max_abs(np.eye(3) - e) for e in elements) > 1e-9:
        return "a finite group must contain the identity"
    for i, e in enumerate(elements):
        if min(fc.max_abs(e.T - d) for d in elements) > 1e-9:
            return f"element {i} has no transpose in the group (inverses missing)"
    return None


def _reference_group(generators, max_order, name):
    """generate_closure as the reference closure followed by the per-element
    validation: the elements, or the exception generate_closure raises."""
    for i, g in enumerate(generators):
        if not _orthogonal(np.asarray(g, dtype=float)[None], 1e-9)[0]:
            raise ValueError(f"generator {i} is not orthogonal within 1e-09")
    elements = _reference_closure([fc.as_tensor2(g) for g in generators], max_order, name)
    message = _reference_validation(elements)
    if message is not None:
        raise ValueError(message)
    return elements


def _assert_closure_matches_the_reference(generators, max_order):
    """The same elements, bits and order, read-only; or the same exception
    type and message."""
    try:
        want = np.stack(_reference_group(generators, max_order, "g"))
    except (ValueError, fc.ClosureOverflow) as exc:
        with pytest.raises(type(exc)) as err:
            fc.generate_closure(generators, max_order, name="g")
        assert type(err.value) is type(exc)
        assert str(err.value) == str(exc)
        return
    group = fc.generate_closure(generators, max_order, name="g")
    assert np.stack(group.elements).tobytes() == want.tobytes()
    assert not any(e.flags.writeable for e in group.elements)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    picks=st.lists(
        st.tuples(st.integers(0, 23), st.sampled_from((0.0, 0.0, 0.0, 1e-12, 1e-8))),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=60)
def test_group_validation_matches_the_per_element_loop(seed, picks):
    """Elements of a randomly rotated cubic group, repeated, left out or
    scaled by 1 + eps (a near duplicate at 1e-12, not orthogonal at 1e-8),
    closed as generators.  The rotation spreads the traces over bucket
    edges.  The set cannot be built directly."""
    q = fc.random_orthogonal(seed, proper_only=True)
    cubic = [q @ e @ q.T for e in fc.catalog_lookup("cubic_rotations").elements]
    elements = tuple(cubic[i] * (1.0 + eps) for i, eps in picks)
    with pytest.raises(ValueError, match=_MADE_BY_CLOSURE):
        fc.SymmetryGroup("g", elements)
    _assert_closure_matches_the_reference(elements, 48)


@st.composite
def _drifting_generator_sets(draw):
    """Catalog rotations, a random conjugation of them, or a rotation about z
    by 2 pi / n + delta; one entry of one generator is perhaps moved by
    1e-13 to 1e-9.  Some close, some overflow, some drift off orthogonal and
    some close only by merging near duplicates."""
    kind = draw(st.sampled_from(("catalog", "conjugated", "cyclic")))
    if kind == "cyclic":
        n = draw(st.integers(1, 60))
        delta = draw(st.sampled_from((0.0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7)))
        gens = [fc.rotation_about((0.0, 0.0, 1.0), 2.0 * np.pi / n + delta)]
    else:
        gens = draw(st.lists(st.sampled_from(_ROTATIONS), min_size=1, max_size=3))
        if kind == "conjugated":
            q = fc.random_orthogonal(draw(st.integers(0, 2**32 - 1)), proper_only=True)
            gens = [q @ g @ q.T for g in gens]
    gens = [np.array(g) for g in gens]
    eps = draw(st.sampled_from((0.0, 1e-13, 1e-12, 1e-11, 1e-10, 3e-10, 1e-9)))
    if eps:
        g = gens[draw(st.integers(0, len(gens) - 1))]
        g[draw(st.integers(0, 2)), draw(st.integers(0, 2))] += draw(st.sampled_from((eps, -eps)))
    return gens


@given(gens=_drifting_generator_sets(), max_order=st.sampled_from((1, 3, 24, 60, 200)))
@settings(max_examples=100)
def test_closure_matches_the_reference_closure_and_validation(gens, max_order):
    _assert_closure_matches_the_reference(gens, max_order)


def _rz(angle):
    return fc.rotation_about((0.0, 0.0, 1.0), angle)


@pytest.mark.parametrize(
    "generator, message",
    [
        # 3e-10 added to [0, 0]: the error grows as the generator is multiplied
        (
            _rz(2.0 * np.pi / 50) + np.diag([3e-10, 0.0, 0.0]),
            "element 2 is not orthogonal within 1e-09",
        ),
        # 50 turns land 5e-9 from the identity and merge with it, so the
        # generator's transpose is 5e-9 from the nearest element
        (
            _rz(2.0 * np.pi / 50 + 1e-10),
            "element 1 has no transpose in the group (inverses missing)",
        ),
    ],
    ids=["drifts_off_orthogonal", "closes_by_merging"],
)
def test_perturbed_generators_fail_where_the_closure_drifts(generator, message):
    assert _orthogonal(generator[None], 1e-9)[0]
    for max_order in (50, 192, 10**12):
        with pytest.raises(ValueError) as err:
            fc.generate_closure([generator], max_order, name="perturbed")
        assert str(err.value) == message


def test_finite_groups_are_made_only_by_closure():
    with pytest.raises(ValueError, match=_MADE_BY_CLOSURE):
        fc.SymmetryGroup("trivial", (fc.IDENTITY,))
    # the two catalog groups once written out by hand, element for element
    written = {
        "trivial": (fc.IDENTITY,),
        "orthotropic": (fc.IDENTITY, fc.ROT_X_180, fc.ROT_Y_180, fc.ROT_Z_180),
    }
    for name, elements in written.items():
        assert np.stack(fc.catalog_lookup(name).elements).tobytes() == np.stack(elements).tobytes()
    for name in ("trivial", "z4", "orthotropic", "cubic_rotations", "transverse_z_48"):
        for e in fc.catalog_lookup(name).elements:
            with pytest.raises(ValueError):
                e[0, 0] = 2.0


def test_full_orthogonal_group_shape():
    """A group holding no elements is the sampled orthogonal group.  It holds
    no draw count either: that is CheckConfig's sample_count.  A finite
    group holds one read-only (n, 3, 3) stack, whose rows its elements are."""
    cubic = fc.catalog_lookup("cubic_rotations")
    assert cubic.stack.shape == (24, 3, 3) and not cubic.stack.flags.writeable
    assert isinstance(cubic.elements, tuple)
    assert all(np.shares_memory(e, cubic.stack) and np.array_equal(e, h)
               for e, h in zip(cubic.elements, cubic.stack))
    group = fc.catalog_lookup("full_orthogonal")
    assert group.name == "full_orthogonal" and not hasattr(group, "sample_count")
    assert group.elements is None and group.stack is None
    with pytest.raises(ValueError, match="^only finite groups have an order$"):
        group.order
    with pytest.raises(ValueError, match="^closure_defect applies to finite groups$"):
        group.closure_defect()
    with pytest.raises(TypeError):
        fc.SymmetryGroup("full_orthogonal", sample_count=16)
    # under any other name a group of no elements is not the sampled one
    for name in ("z4", "trivial", "bad"):
        with pytest.raises(ValueError, match="^a finite group is made by generate_closure$"):
            fc.SymmetryGroup(name)


def test_unknown_group_names():
    for name in ("nope", "transverse_z_0", "transverse_z_x", "Z4", ""):
        with pytest.raises(fc.UnknownGroupName):
            fc.catalog_lookup(name)


def test_adversarial_elements():
    els = fc.adversarial_elements()
    assert len(els) == 12
    assert np.array_equal(els[0], fc.IDENTITY)
    for want in (fc.INVERSION, fc.ROT_X_90, fc.ROT_Y_90, fc.ROT_Z_90):
        assert any(np.array_equal(want, e) for e in els)
    assert np.all(_orthogonal(np.stack(els), 1e-12))


def test_orthogonal_check_set_layout_and_determinism():
    first = fc.orthogonal_check_set(0, 32)
    again = fc.orthogonal_check_set(0, 32)
    assert again is first, "cached per (seed, sample_count)"
    assert first.shape == (32 + 12, 3, 3) and not first.flags.writeable
    for a, b in zip(first, again):
        assert np.array_equal(a, b)
    # Haar draws first, then the fixed adversarial tail
    tail = first[32:]
    for a, b in zip(tail, fc.adversarial_elements()):
        assert np.array_equal(a, b)
    for e in first:
        assert fc.max_abs(e @ e.T - np.eye(3)) <= 1e-12
    other = fc.orthogonal_check_set(1, 32)
    assert not np.array_equal(first[0], other[0])


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25)
def test_conjugated_group_still_validates(seed):
    """Conjugating a point group by any rotation yields a valid point group
    of the same order (symmetry groups have no preferred frame)."""
    q = fc.random_orthogonal(seed, proper_only=True)
    base = fc.catalog_lookup("cubic_rotations")
    elements = tuple(q @ e @ q.T for e in base.elements)
    with pytest.raises(ValueError, match=_MADE_BY_CLOSURE):
        fc.SymmetryGroup("conjugated", elements)
    group = fc.generate_closure(elements, max_order=base.order, name="conjugated")
    assert group.order == base.order
    assert group.closure_defect() <= 1e-12
