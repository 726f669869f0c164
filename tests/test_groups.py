import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framecheck as fc


def test_catalog_orders():
    assert fc.catalog_lookup("trivial").order == 1
    assert fc.catalog_lookup("z4").order == 4
    assert fc.catalog_lookup("orthotropic").order == 4
    assert fc.catalog_lookup("cubic_rotations").order == 24
    assert fc.catalog_lookup("transverse_z_8").order == 8
    assert fc.catalog_lookup("transverse_z_12").order == 12
    assert fc.catalog_lookup("transverse_z_1").order == 1


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


def test_closure_rejects_bad_generators():
    with pytest.raises(ValueError):
        fc.generate_closure([2.0 * np.eye(3)], max_order=8)
    with pytest.raises(ValueError):
        fc.generate_closure([np.eye(3)], max_order=0)


def test_closure_defect_small_for_catalog_groups():
    for name in ("trivial", "z4", "orthotropic", "cubic_rotations", "transverse_z_8"):
        assert fc.catalog_lookup(name).closure_defect() <= 1e-12


def _pairwise_closure_defect(group):
    """closure_defect as the plain loop over all pairs, one bucket lookup each,
    and a scan of every element when the buckets near a product are empty."""
    index = fc.groups._ElementIndex()
    for e in group.elements:
        index.add(e)

    def nearest(m):
        d = index.nearest(m)
        return d if d < np.inf else min(fc.max_abs(m - e) for e in group.elements)

    return max(nearest(a @ b) for a in group.elements for b in group.elements)


def test_closure_defect_matches_the_pairwise_loop():
    def rz(angle):
        return fc.rotation_about((0.0, 0.0, 1.0), angle)

    names = ("trivial", "z4", "orthotropic", "cubic_rotations", "transverse_z_7", "transverse_z_48")
    groups = [fc.catalog_lookup(name) for name in names]
    # not closed: Rz90 @ Rz90 lands in a bucket with no element near it, at
    # max-norm distance 1 from Rz90; rz(1e-3) @ rz(1e-3) lands near the
    # identity's bucket, 1e-3 away from the nearest element
    gaps = [
        fc.SymmetryGroup(
            fc.GroupKind.FINITE, "z4_without_half_turn", (fc.IDENTITY, fc.ROT_Z_90, fc.ROT_Z_90.T)
        ),
        fc.SymmetryGroup(fc.GroupKind.FINITE, "small_turns", (fc.IDENTITY, rz(1e-3), rz(-1e-3))),
    ]
    for group in groups + gaps:
        assert group.closure_defect() == _pairwise_closure_defect(group), group.name
    assert gaps[0].closure_defect() == 1.0
    assert 5e-4 < gaps[1].closure_defect() < 2e-3


def test_group_validation_rejects_bad_element_sets():
    with pytest.raises(ValueError):
        fc.SymmetryGroup(fc.GroupKind.FINITE, "empty", ())
    with pytest.raises(ValueError):
        fc.SymmetryGroup(fc.GroupKind.FINITE, "no_identity", (fc.ROT_Z_180,))
    with pytest.raises(ValueError):
        # Rz90 without its inverse Rz270
        fc.SymmetryGroup(fc.GroupKind.FINITE, "no_inverse", (fc.IDENTITY, fc.ROT_Z_90))
    with pytest.raises(ValueError):
        fc.SymmetryGroup(
            fc.GroupKind.FINITE, "dupes", (fc.IDENTITY, fc.as_tensor2(np.eye(3)))
        )
    with pytest.raises(ValueError):
        fc.SymmetryGroup(fc.GroupKind.FINITE, "skewed", (fc.IDENTITY, 2.0 * np.eye(3)))


def test_full_orthogonal_group_shape():
    group = fc.catalog_lookup("full_orthogonal", sample_count=16)
    assert group.kind is fc.GroupKind.FULL_ORTHOGONAL
    assert group.sample_count == 16
    assert group.elements is None
    with pytest.raises(ValueError):
        group.order
    with pytest.raises(ValueError):
        group.closure_defect()
    with pytest.raises(ValueError):
        fc.SymmetryGroup(fc.GroupKind.FULL_ORTHOGONAL, "bad", sample_count=0)


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
    for e in els:
        assert fc.is_orthogonal(e, 1e-12)


def test_orthogonal_check_set_layout_and_determinism():
    first = fc.orthogonal_check_set(0, 32)
    again = fc.orthogonal_check_set(0, 32)
    assert len(first) == 32 + 12
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


def test_group_elements_for_check():
    trivial = fc.catalog_lookup("trivial")
    assert len(fc.group_elements_for_check(trivial, 0)) == 1
    full = fc.catalog_lookup("full_orthogonal", sample_count=16)
    els = fc.group_elements_for_check(full, 0)
    assert len(els) == 16 + 12


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25)
def test_conjugated_group_still_validates(seed):
    """Conjugating a point group by any rotation yields a valid point group
    of the same order (symmetry groups have no preferred frame)."""
    q = fc.random_orthogonal(seed, proper_only=True)
    base = fc.catalog_lookup("cubic_rotations")
    elements = tuple(q @ e @ q.T for e in base.elements)
    group = fc.SymmetryGroup(fc.GroupKind.FINITE, "conjugated", elements)
    assert group.order == base.order
    assert group.closure_defect() <= 1e-12
