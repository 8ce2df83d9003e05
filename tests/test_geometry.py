import math

import numpy as np
import pytest

from scalepose.errors import DegenerateConfiguration, NonPositiveDepth, NonUnitAxis
from scalepose.geometry import (
    CameraIntrinsics,
    RigidPose,
    SimilarityTransform,
    backproject,
    ensure_rotation,
    nearest_rotation,
    nearest_rotations,
    project,
    random_rotation,
    rotation_about_axis,
    rotation_error_deg,
    rotation_error_symmetric_deg,
    rotation_from_quaternion,
    translation_error_cm,
    umeyama_align,
)


class TestProject:
    def test_optical_axis_hits_principal_point(self):
        k = CameraIntrinsics(100, 100, 50, 50)
        assert np.allclose(project(np.array([0.0, 0.0, 1.0]), k), [50.0, 50.0])

    def test_pinhole_arithmetic(self):
        k = CameraIntrinsics(100, 100, 50, 50)
        assert np.allclose(project(np.array([0.5, 0.0, 1.0]), k), [100.0, 50.0])

    def test_rejects_non_positive_depth(self):
        k = CameraIntrinsics(100, 100, 50, 50)
        with pytest.raises(NonPositiveDepth):
            project(np.array([0.0, 0.0, 0.0]), k)
        with pytest.raises(NonPositiveDepth):
            project(np.array([[0.0, 0.0, 1.0], [0.1, 0.1, -0.5]]), k)

    def test_backproject_round_trip(self, camera):
        rng = np.random.default_rng(11)
        pts = rng.uniform([-0.5, -0.5, 0.5], [0.5, 0.5, 3.0], size=(500, 3))
        pix = project(pts, camera)
        back = backproject(pix, pts[:, 2], camera)
        assert np.max(np.abs(back - pts)) < 1e-12


class TestRotationError:
    def test_identity(self):
        assert rotation_error_deg(np.eye(3), np.eye(3)) == 0.0

    def test_known_angle_about_z(self):
        r = rotation_about_axis([0, 0, 1], 10.0)
        assert abs(rotation_error_deg(r, np.eye(3)) - 10.0) < 1e-12

    def test_composed_rotation_measures_inner_factor(self):
        rx = rotation_about_axis([1, 0, 0], 30.0)
        ry = rotation_about_axis([0, 1, 0], 40.0)
        assert abs(rotation_error_deg(rx @ ry, ry) - 30.0) < 1e-12

    def test_compose_and_measure_oracle(self):
        # relative rotation with a known axis-angle is recovered exactly
        rng = np.random.default_rng(3)
        for _ in range(100):
            base = random_rotation(rng)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(0.0, 179.0)
            rotated = rotation_about_axis(axis, angle) @ base
            assert abs(rotation_error_deg(rotated, base) - angle) < 1e-9

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = random_rotation(rng), random_rotation(rng)
            assert abs(rotation_error_deg(a, b) - rotation_error_deg(b, a)) < 1e-9

    def test_triangle_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b, c = (random_rotation(rng) for _ in range(3))
            assert rotation_error_deg(a, c) <= (
                rotation_error_deg(a, b) + rotation_error_deg(b, c) + 1e-6
            )

    def test_range_and_extreme_angle(self):
        r = rotation_about_axis([1, 0, 0], 180.0)
        assert abs(rotation_error_deg(r, np.eye(3)) - 180.0) < 1e-9


class TestSymmetricRotationError:
    def test_spin_about_symmetry_axis_absorbed(self):
        a = rotation_about_axis([0, 0, 1], 73.0)
        assert rotation_error_symmetric_deg(a, np.eye(3), [0, 0, 1]) < 1e-9

    def test_tilt_off_axis_measured(self):
        a = rotation_about_axis([1, 0, 0], 10.0)
        err = rotation_error_symmetric_deg(a, np.eye(3), [0, 0, 1])
        assert abs(err - 10.0) < 1e-9

    def test_identical_rotations(self):
        rng = np.random.default_rng(6)
        a = random_rotation(rng)
        assert rotation_error_symmetric_deg(a, a, [0, 1, 0]) < 1e-9

    def test_matches_brute_force_minimum(self):
        # closed form vs min over a dense grid of axis spins
        rng = np.random.default_rng(7)
        thetas = np.linspace(0.0, 360.0, 36000, endpoint=False)
        axis = np.array([0.0, 0.0, 1.0])
        for _ in range(5):
            a, b = random_rotation(rng), random_rotation(rng)
            closed = rotation_error_symmetric_deg(a, b, axis)
            brute = min(
                rotation_error_deg(a @ rotation_about_axis(axis, t), b) for t in thetas[::100]
            )
            # refine around the coarse minimum with the full grid resolution
            coarse = min(
                range(0, 36000, 100),
                key=lambda i: rotation_error_deg(a @ rotation_about_axis(axis, thetas[i]), b),
            )
            for i in range(max(0, coarse - 100), min(36000, coarse + 100)):
                brute = min(brute, rotation_error_deg(a @ rotation_about_axis(axis, thetas[i]), b))
            assert abs(closed - brute) < 0.01

    def test_rejects_non_unit_axis(self):
        with pytest.raises(NonUnitAxis):
            rotation_error_symmetric_deg(np.eye(3), np.eye(3), [0, 0, 2])


class TestTranslationError:
    def test_zero(self):
        assert translation_error_cm([0, 0, 0], [0, 0, 0]) == 0.0

    def test_ten_centimeters(self):
        assert abs(translation_error_cm([0, 0, 1.0], [0, 0, 1.1]) - 10.0) < 1e-12

    def test_matches_norm_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a, b = rng.normal(size=3), rng.normal(size=3)
            expected = 100.0 * math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
            assert abs(translation_error_cm(a, b) - expected) < 1e-9


class TestUmeyama:
    def test_identity(self):
        src = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.2, 0.9]])
        sim = umeyama_align(src, src)
        assert abs(sim.scale - 1.0) < 1e-12
        assert np.max(np.abs(sim.rotation - np.eye(3))) < 1e-12
        assert np.max(np.abs(sim.translation)) < 1e-12

    def test_pure_scale(self):
        src = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.2, 0.9]])
        sim = umeyama_align(src, 2.0 * src)
        assert abs(sim.scale - 2.0) < 1e-12
        assert np.max(np.abs(sim.rotation - np.eye(3))) < 1e-12

    def test_synthesize_and_recover(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = rng.integers(4, 64)
            src = rng.normal(size=(n, 3))
            s = rng.uniform(0.5, 2.0)
            rot = random_rotation(rng)
            t = rng.normal(size=3)
            dst = s * src @ rot.T + t
            sim = umeyama_align(src, dst)
            assert abs(sim.scale - s) < 1e-9 * s
            assert np.max(np.abs(sim.rotation - rot)) < 1e-9
            assert np.max(np.abs(sim.translation - t)) < 1e-9

    def test_fixed_scale_mode(self):
        rng = np.random.default_rng(10)
        src = rng.normal(size=(12, 3))
        rot = random_rotation(rng)
        dst = src @ rot.T + np.array([0.1, -0.2, 0.3])
        sim = umeyama_align(src, dst, estimate_scale=False)
        assert sim.scale == 1.0
        assert np.max(np.abs(sim.rotation - rot)) < 1e-9

    def test_rotation_invariant_to_source_scaling(self):
        rng = np.random.default_rng(12)
        src = rng.normal(size=(20, 3))
        rot = random_rotation(rng)
        dst = 1.3 * src @ rot.T + rng.normal(size=3)
        base = umeyama_align(src, dst).rotation
        for alpha in (0.5, 2.0):
            scaled = umeyama_align(alpha * src, dst).rotation
            assert np.max(np.abs(scaled - base)) < 1e-9

    def test_degenerate_collinear(self):
        src = np.outer(np.arange(5.0), [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateConfiguration):
            umeyama_align(src, 2.0 * src)

    def test_reflection_prevented(self):
        # mirrored target still yields a proper rotation
        rng = np.random.default_rng(13)
        src = rng.normal(size=(10, 3))
        dst = src.copy()
        dst[:, 0] = -dst[:, 0]
        sim = umeyama_align(src, dst)
        assert np.linalg.det(sim.rotation) > 0


class TestValueTypes:
    def test_rigid_pose_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            RigidPose(np.eye(3) * 1.1, np.zeros(3))

    def test_similarity_requires_positive_scale(self):
        with pytest.raises(ValueError):
            SimilarityTransform(0.0, np.eye(3), np.zeros(3))

    def test_intrinsics_require_positive_focals(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(0.0, 100.0, 10.0, 10.0)

    def test_quaternion_round_trip(self):
        # (cos(a/2), sin(a/2) * axis) is the rotation by a about the unit axis
        rng = np.random.default_rng(15)
        for _ in range(100):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(-360.0, 360.0)
            half = math.radians(angle) / 2.0
            q = np.concatenate([[math.cos(half)], math.sin(half) * axis])
            expected = rotation_about_axis(axis, angle)
            assert np.max(np.abs(rotation_from_quaternion(q) - expected)) < 1e-12
            assert np.max(np.abs(rotation_from_quaternion(-3.0 * q) - expected)) < 1e-12

    def test_nearest_rotation_projects(self):
        rng = np.random.default_rng(16)
        m = random_rotation(rng) + 1e-3 * rng.normal(size=(3, 3))
        r = nearest_rotation(m)
        ensure_rotation(r)

    def test_stacked_projection_matches_one_matrix_bits(self):
        # RANSAC projects a block of candidates at once and Gauss-Newton one
        # matrix per step; both must give the same bits.
        rng = np.random.default_rng(17)
        m = rng.normal(size=(500, 3, 3))
        m[::7] = np.stack([random_rotation(rng) for _ in range(len(m[::7]))])
        stacked = nearest_rotations(m)
        for mi, ri in zip(m, stacked):
            assert nearest_rotation(mi).tobytes() == ri.tobytes()

    def test_poses_are_immutable(self):
        pose = RigidPose(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            pose.rotation[0, 0] = 2.0
