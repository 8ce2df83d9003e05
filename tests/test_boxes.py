import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import contains, corners, estimate_box, iou3d_mc, points_in_box_mask
from scalepose.boxes import _CHUNK_PAIRS
from scalepose.boxes import OrientedBox3, box_stack, iou3d, iou3d_pairs
from scalepose.errors import NonPositiveScale
from scalepose.geometry import RigidPose, random_rotation, rotation_about_axis, rotation_from_quaternion

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


def stacked(boxes):
    """``iou3d_pairs``' array form of a list of boxes."""
    return (
        np.array([box.pose.rotation for box in boxes]).reshape(-1, 3, 3),
        np.array([box.pose.translation for box in boxes]).reshape(-1, 3),
        np.array([box.extents for box in boxes]).reshape(-1, 3),
    )


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

    @pytest.mark.parametrize(
        "other, expected",
        [
            # the same cube turned a quarter about z: all six planes shared
            (OrientedBox3(RigidPose(rotation_about_axis([0, 0, 1], 90.0), np.zeros(3)), (1, 1, 1)), 1.0),
            # a half-size cube in one corner shares three faces
            (axis_aligned(0.25, 0.25, 0.25, extents=(0.5, 0.5, 0.5)), 0.125),
            # a quarter-volume column shares four faces
            (axis_aligned(0.25, 0.25, 0.0, extents=(0.5, 0.5, 1.0)), 0.25),
            # touching along an edge, then at a single vertex
            (axis_aligned(1.0, 1.0, 0.0), 0.0),
            (axis_aligned(1.0, 1.0, 1.0), 0.0),
        ],
        ids=["quarter-turn", "corner-cube", "column", "edge-contact", "vertex-contact"],
    )
    def test_shared_face_planes_count_once(self, other, expected):
        assert abs(iou3d(axis_aligned(), other) - expected) < 1e-12
        assert abs(iou3d(other, axis_aligned()) - expected) < 1e-12

    @pytest.mark.parametrize("extents, axis", [((1, 1, 1), (1, 2, 3)), ((0.3, 0.2, 0.1), (1, 1, 0))])
    def test_nearly_coincident_faces(self, extents, axis):
        # a box against itself turned 1e-10 degrees and moved 1e-13: every
        # face nearly coincides with its twin, and the IoU stays near 1
        a = axis_aligned(0.0, 0.0, 1.0, extents=extents)
        turn = rotation_about_axis(np.array(axis) / np.linalg.norm(axis), 1e-10)
        b = OrientedBox3(RigidPose(turn, [1e-13, 1e-13, 1.0 + 1e-13]), extents)
        assert iou3d(a, b) > 1.0 - 1e-9
        assert iou3d(b, a) > 1.0 - 1e-9

    @settings(max_examples=150, deadline=None)
    @given(a=boxes, b=boxes)
    def test_symmetry(self, a, b):
        assert abs(iou3d(a, b) - iou3d(b, a)) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(a=boxes, b=boxes, rot=quaternions, t=vectors(5.0))
    @example(  # faces 1e-12 rad apart: plane triples with a determinant of 1e-12
        a=OrientedBox3(RigidPose(rotation_from_quaternion((0.0, 0.0, 0.0, 1.0)), np.zeros(3)), (1, 1, 1)),
        b=OrientedBox3(RigidPose(rotation_from_quaternion((0.0, 1.0, 1.0, 1e-12)), np.zeros(3)), (1, 1, 1)),
        rot=(0.0, 0.0, 1.0, 0.5),
        t=np.zeros(3),
    )
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
        a = axis_aligned()
        b = OrientedBox3(RigidPose(rotation_about_axis([0, 0, 1], 45.0), np.zeros(3)), (1, 1, 1))
        v = 2.0 * (np.sqrt(2.0) - 1.0)
        assert abs(iou3d(a, b) - v / (2.0 - v)) < 1e-9

    @settings(max_examples=150, deadline=None)
    @given(a=boxes, b=boxes)
    def test_range(self, a, b):
        assert 0.0 <= iou3d(a, b) <= 1.0


def batch_cases():
    """Pairs for the batch test: the hand cases above in both orders, then
    300 seeded random pairs, one in five too far apart to overlap."""
    quarter = OrientedBox3(RigidPose(rotation_about_axis([0, 0, 1], 90.0), np.zeros(3)), (1, 1, 1))
    turned = OrientedBox3(RigidPose(rotation_about_axis([0, 0, 1], 45.0), np.zeros(3)), (1, 1, 1))
    tilt = rotation_about_axis(np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0), 1e-10)
    near = OrientedBox3(RigidPose(tilt, [1e-13, 1e-13, 1.0 + 1e-13]), (1, 1, 1))
    others = [
        axis_aligned(),  # coincident faces, all six
        quarter,
        axis_aligned(0.25, 0.25, 0.25, extents=(0.5, 0.5, 0.5)),
        axis_aligned(0.25, 0.25, 0.0, extents=(0.5, 0.5, 1.0)),
        axis_aligned(tx=1.0),  # touching faces
        axis_aligned(1.0, 1.0, 0.0),
        axis_aligned(1.0, 1.0, 1.0),
        axis_aligned(tx=0.5),
        axis_aligned(extents=(0.5, 0.5, 0.5)),
        axis_aligned(tx=5.0),  # rejected by the centre gap
        turned,
    ]
    pairs = [(axis_aligned(), other) for other in others] + [(other, axis_aligned()) for other in others]
    pairs.append((axis_aligned(0.0, 0.0, 1.0), near))
    pairs += [random_pair(seed, overlap=seed % 5 != 0) for seed in range(300)]
    return pairs


class TestBatchIoU:
    def test_batch_and_chunks_match_single_pairs_bit_for_bit(self):
        pairs = batch_cases()
        assert len(pairs) > 2 * _CHUNK_PAIRS  # the batch straddles the chunk size
        first, second = [a for a, _ in pairs], [b for _, b in pairs]
        single = np.array([iou3d(a, b) for a, b in pairs])
        whole = iou3d_pairs(stacked(first), stacked(second))
        sevens = np.concatenate(
            [iou3d_pairs(stacked(first[i:i + 7]), stacked(second[i:i + 7])) for i in range(0, len(pairs), 7)]
        )
        assert whole.tobytes() == single.tobytes()
        assert sevens.tobytes() == single.tobytes()
        assert 0.0 < single.min(initial=1.0, where=single > 0) and single.max() == 1.0
        assert np.count_nonzero(single == 0.0) >= 60  # rejected and touching pairs

    def test_empty_batch(self):
        out = iou3d_pairs(stacked([]), stacked([]))
        assert out.shape == (0,) and out.dtype == np.float64

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            iou3d_pairs(stacked([axis_aligned()]), stacked([]))


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


class TestPointsInBox:
    def test_boundary_is_inside(self):
        pts = np.array([[0.5, 0.0, 0.0], [0.5 + 1e-9, 0.0, 0.0]])
        mask = points_in_box_mask(pts, np.eye(3), np.zeros(3), np.array([0.5, 0.5, 0.5]))
        assert mask[0] and not mask[1]

    def test_matches_manual_transform(self):
        rng = np.random.default_rng(4)
        rot = random_rotation(rng)
        t = rng.normal(size=3)
        he = rng.uniform(0.2, 1.0, size=3)
        pts = rng.normal(size=(500, 3))
        mask = points_in_box_mask(pts, rot, t, he)
        local = (pts - t) @ rot
        expected = np.all(np.abs(local) <= he, axis=1)
        assert np.array_equal(mask, expected)


class TestBoxConstruction:
    # an estimate's box is built by box_stack: extents are scale times canonical
    def test_box_from_estimate_identity_scale(self):
        _, _, extents = box_stack([RigidPose(np.eye(3), np.zeros(3))], [1.0], [UNIT_DIAG_EXTENTS])
        assert extents[0].tobytes() == UNIT_DIAG_EXTENTS.tobytes()

    def test_box_from_estimate_doubles(self):
        _, _, extents = box_stack([RigidPose(np.eye(3), np.zeros(3))], [2.0], [UNIT_DIAG_EXTENTS])
        assert extents[0].tobytes() == (2.0 * UNIT_DIAG_EXTENTS).tobytes()
        assert abs(np.prod(extents[0]) - 8.0 * np.prod(UNIT_DIAG_EXTENTS)) < 1e-12

    def test_diagonal_equals_scale(self):
        rng = np.random.default_rng(5)
        e = rng.uniform(0.2, 1.0, size=(20, 3))
        e /= np.linalg.norm(e, axis=1, keepdims=True)  # unit-diagonal canonical extents
        s = rng.uniform(0.05, 3.0, size=20)
        _, _, extents = box_stack([RigidPose(np.eye(3), np.zeros(3))] * 20, s, e)
        assert np.max(np.abs(np.linalg.norm(extents, axis=1) - s)) < 1e-9

    def test_rejects_non_positive_scale(self):
        good = RigidPose(np.eye(3), np.zeros(3))
        for scale in (0.0, -1.0):
            with pytest.raises(NonPositiveScale, match=f"scale must be positive, got {scale}"):
                box_stack([good], [scale], [UNIT_DIAG_EXTENTS])

    def test_rejects_bad_extents(self):
        with pytest.raises(ValueError):
            OrientedBox3(RigidPose(np.eye(3), np.zeros(3)), (1.0, 0.0, 1.0))

    def test_stack_rows_match_single_boxes_bit_for_bit(self):
        rng = np.random.default_rng(7)
        poses = [RigidPose(random_rotation(rng), rng.normal(size=3)) for _ in range(5)]
        scales = rng.uniform(0.05, 3.0, size=5).tolist()
        extents = [tuple(rng.uniform(0.2, 1.0, size=3).tolist()) for _ in range(5)]
        singles = [estimate_box(p, s, e) for p, s, e in zip(poses, scales, extents)]
        for got, want in zip(box_stack(poses, scales, extents), stacked(singles)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "scale, extents, error",
        [(0.0, UNIT_DIAG_EXTENTS, NonPositiveScale), (float("nan"), UNIT_DIAG_EXTENTS, NonPositiveScale),
         (1.0, (1.0, 0.0, 1.0), ValueError), (1.0, (1.0, float("inf"), 1.0), ValueError)],
    )
    def test_stack_checks_as_single_boxes(self, scale, extents, error):
        # a bad scale is named as given, bad extents as OrientedBox3 names them
        good = RigidPose(np.eye(3), np.zeros(3))
        if error is NonPositiveScale:
            message = f"scale must be positive, got {scale}"
        else:
            with pytest.raises(ValueError) as single:
                OrientedBox3(good, scale * np.asarray(extents))
            message = str(single.value)
        with pytest.raises(error) as stack:
            box_stack([good, good], [1.0, scale], [UNIT_DIAG_EXTENTS, extents])
        assert str(stack.value) == message

    def test_corners_and_containment(self):
        rng = np.random.default_rng(6)
        box = OrientedBox3(RigidPose(random_rotation(rng), rng.normal(size=3)), (0.4, 0.6, 0.8))
        points = corners(box)
        assert points.shape == (8, 3)
        center = box.pose.translation
        inside = center + 0.999 * (points - center)
        outside = center + 1.001 * (points - center)
        assert bool(np.all(contains(box, inside)))
        assert not np.any(contains(box, outside))
        assert bool(np.all(contains(box, center[None, :])))
