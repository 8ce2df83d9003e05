import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalepose.boxes import OrientedBox3, box_from_estimate, iou3d, iou3d_mc
from scalepose.errors import NonPositiveScale
from scalepose.geometry import RigidPose, random_rotation, rotation_from_quaternion

UNIT_DIAG_EXTENTS = np.array([0.6, 0.6, np.sqrt(1.0 - 2 * 0.36)])


def axis_aligned(tx=0.0, ty=0.0, tz=0.0, extents=(1.0, 1.0, 1.0)):
    return OrientedBox3(RigidPose(np.eye(3), [tx, ty, tz]), extents)


def random_pair(seed, overlap=True):
    rng = np.random.default_rng(seed)
    r1, r2 = random_rotation(rng), random_rotation(rng)
    t1 = rng.uniform(-0.5, 0.5, 3)
    t2 = t1 + rng.uniform(-0.5, 0.5, 3) * (0.6 if overlap else 5.0)
    e1 = rng.uniform(0.3, 1.6, 3)
    e2 = rng.uniform(0.3, 1.6, 3)
    return OrientedBox3(RigidPose(r1, t1), e1), OrientedBox3(RigidPose(r2, t2), e2)


def vectors(bound):
    return st.tuples(*[st.floats(-bound, bound)] * 3).map(np.array)


# Unit quaternions, kept away from the zero vector before normalizing.
quaternions = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1)
# Boxes whose centres lie close enough together that most pairs overlap.
boxes = st.builds(
    lambda q, t, e: OrientedBox3(RigidPose(rotation_from_quaternion(q), t), e),
    quaternions,
    vectors(0.5),
    st.tuples(*[st.floats(0.1, 1.5)] * 3),
)


class TestExactIoU:
    @settings(max_examples=60, deadline=None)
    @given(a=boxes)
    def test_identical_boxes(self, a):
        assert iou3d(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_separated_boxes(self):
        assert iou3d(axis_aligned(), axis_aligned(tx=5.0)) == 0.0

    def test_axis_aligned_half_offset(self):
        # overlap 0.5 along x: 0.5 / (1 + 1 - 0.5) = 1/3
        value = iou3d(axis_aligned(), axis_aligned(tx=0.5))
        assert abs(value - 1.0 / 3.0) < 1e-12

    def test_nested_boxes(self):
        inner = axis_aligned(extents=(0.5, 0.5, 0.5))
        assert abs(iou3d(axis_aligned(), inner) - 0.125) < 1e-12

    def test_face_touching_is_zero_but_defined(self):
        assert iou3d(axis_aligned(), axis_aligned(tx=1.0)) == 0.0

    @settings(max_examples=150, deadline=None)
    @given(a=boxes, b=boxes)
    def test_symmetry(self, a, b):
        assert abs(iou3d(a, b) - iou3d(b, a)) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(a=boxes, b=boxes, rot=quaternions, t=vectors(5.0))
    def test_rigid_invariance(self, a, b, rot, t):
        rot = rotation_from_quaternion(rot)

        def move(box):
            return OrientedBox3(
                RigidPose(rot @ box.pose.rotation, rot @ box.pose.translation + t), box.extents
            )

        assert abs(iou3d(a, b) - iou3d(move(a), move(b))) <= 1e-9

    def test_rotated_square_overlap_closed_form(self):
        # cube vs itself rotated 45 degrees about z: octagonal cross-section
        # with area 2*(sqrt(2)-1), volume likewise, IoU = v / (2 - v)
        from scalepose.geometry import rotation_about_axis

        a = axis_aligned()
        b = OrientedBox3(RigidPose(rotation_about_axis([0, 0, 1], 45.0), np.zeros(3)), (1, 1, 1))
        v = 2.0 * (np.sqrt(2.0) - 1.0)
        assert abs(iou3d(a, b) - v / (2.0 - v)) < 1e-9

    @settings(max_examples=150, deadline=None)
    @given(a=boxes, b=boxes)
    def test_range(self, a, b):
        assert 0.0 <= iou3d(a, b) <= 1.0


class TestMonteCarloOracle:
    def test_identical_unit_cubes(self):
        a = axis_aligned()
        assert abs(iou3d_mc(a, a, 100_000, seed=0) - 1.0) < 0.01

    def test_third_case(self):
        a, b = axis_aligned(), axis_aligned(tx=0.5)
        assert abs(iou3d_mc(a, b, 1_000_000, seed=1) - 1.0 / 3.0) < 0.005

    def test_deterministic_per_seed(self):
        a, b = random_pair(3)
        assert iou3d_mc(a, b, 50_000, seed=7) == iou3d_mc(a, b, 50_000, seed=7)
        assert iou3d_mc(a, b, 50_000, seed=7) != iou3d_mc(a, b, 50_000, seed=8)

    def test_cross_validates_exact_method(self):
        # the full 200-pair / 1e6-sample sweep runs in the acceptance suite
        for seed in range(40):
            a, b = random_pair(seed)
            exact = iou3d(a, b)
            estimate = iou3d_mc(a, b, 200_000, seed=seed)
            assert abs(exact - estimate) < 0.015

    def test_rejects_bad_sample_count(self):
        a, b = random_pair(4)
        with pytest.raises(ValueError):
            iou3d_mc(a, b, 0)


class TestBoxConstruction:
    def test_box_from_estimate_identity_scale(self):
        box = box_from_estimate(RigidPose(np.eye(3), np.zeros(3)), 1.0, UNIT_DIAG_EXTENTS)
        assert np.allclose(box.extents, UNIT_DIAG_EXTENTS)

    def test_box_from_estimate_doubles(self):
        box = box_from_estimate(RigidPose(np.eye(3), np.zeros(3)), 2.0, UNIT_DIAG_EXTENTS)
        assert np.allclose(box.extents, 2.0 * UNIT_DIAG_EXTENTS)
        assert abs(box.volume - 8.0 * np.prod(UNIT_DIAG_EXTENTS)) < 1e-12

    def test_diagonal_equals_scale(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            e = rng.uniform(0.2, 1.0, size=3)
            e /= np.linalg.norm(e)  # unit-diagonal canonical extents
            s = rng.uniform(0.05, 3.0)
            box = box_from_estimate(RigidPose(np.eye(3), np.zeros(3)), s, e)
            assert abs(np.linalg.norm(box.extents) - s) < 1e-9

    def test_rejects_non_positive_scale(self):
        with pytest.raises(NonPositiveScale):
            box_from_estimate(RigidPose(np.eye(3), np.zeros(3)), 0.0, UNIT_DIAG_EXTENTS)

    def test_rejects_bad_extents(self):
        with pytest.raises(ValueError):
            OrientedBox3(RigidPose(np.eye(3), np.zeros(3)), (1.0, 0.0, 1.0))

    def test_corners_and_containment(self):
        rng = np.random.default_rng(6)
        box = OrientedBox3(RigidPose(random_rotation(rng), rng.normal(size=3)), (0.4, 0.6, 0.8))
        corners = box.corners()
        assert corners.shape == (8, 3)
        center = box.pose.translation
        inside = center + 0.999 * (corners - center)
        outside = center + 1.001 * (corners - center)
        assert bool(np.all(box.contains(inside)))
        assert not np.any(box.contains(outside))
        assert bool(np.all(box.contains(center[None, :])))
