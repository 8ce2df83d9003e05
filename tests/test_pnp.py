import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CAMERA, make_projected_scene
from oracles import reprojection_residuals_jacobian
from scalepose.errors import (
    ConsensusNotFound,
    DegenerateSample,
    DivergedBehindCamera,
    InsufficientCorrespondences,
    NonPositiveScale,
    NoRealSolution,
    RankDeficient,
)
from scalepose.geometry import (
    RigidPose,
    project,
    random_rotation,
    rotation_about_axis,
    rotation_error_deg,
    rotation_from_quaternion,
)
from scalepose.pnp import (
    RansacConfig,
    ransac_pnp,
    refine_pnp,
    scale_model_points,
    solve_pnp_lsq,
    solve_pnp_minimal,
)

DEG_PER_RAD = 180.0 / math.pi


class TestMinimalSolver:
    def test_cube_face_recovery(self, camera):
        # four corners of a synthetic cube face at a known pose
        face = np.array(
            [[-0.1, -0.1, 0.0], [0.1, -0.1, 0.0], [0.1, 0.1, 0.0], [-0.1, 0.1, 0.02]]
        )
        rng = np.random.default_rng(21)
        for _ in range(20):
            pose = RigidPose(random_rotation(rng), [0.05, -0.02, 1.2])
            pix = project(pose.transform(face), camera)
            best = solve_pnp_minimal(pix, face, camera)[0]
            assert rotation_error_deg(best.rotation, pose.rotation) < 1e-6 * DEG_PER_RAD
            assert np.linalg.norm(best.translation - pose.translation) < 1e-8

    def test_candidates_ordered_by_disambiguation_error(self, camera):
        pose, pts, pix = make_projected_scene(4, seed=22)
        candidates = solve_pnp_minimal(pix, pts, camera)
        errors = []
        for cand in candidates:
            cam = cand.transform(pts[3])
            errors.append(np.linalg.norm(project(cam, camera) - pix[3]))
        assert errors == sorted(errors)

    def test_collinear_triple_rejected(self, camera):
        mdl = np.array([[0.0, 0, 1], [0.1, 0, 1], [0.2, 0, 1], [0.1, 0.2, 1.1]])
        img = np.array([[100.0, 100], [200, 100], [300, 100], [200, 200]])
        with pytest.raises(DegenerateSample):
            solve_pnp_minimal(img, mdl, camera)

    def test_all_candidates_behind_camera(self, camera):
        # defeat cheirality: place the 4th model point behind the camera for
        # every P3P candidate of the first three points
        rng = np.random.default_rng(0)
        pose = RigidPose(random_rotation(rng), [0.0, 0.0, 1.5])
        tri = rng.uniform(-0.2, 0.2, (3, 3))
        pix3 = project(pose.transform(tri), camera)
        probe = solve_pnp_minimal(
            np.vstack([pix3, pix3[:1]]), np.vstack([tri, tri[:1]]), camera
        )
        away = -sum(cand.rotation[2] for cand in probe)
        x4 = 10.0 * away / np.linalg.norm(away)
        img = np.vstack([pix3, [[100.0, 100.0]]])
        mdl = np.vstack([tri, x4[None]])
        with pytest.raises(NoRealSolution):
            solve_pnp_minimal(img, mdl, camera)

    def test_requires_exactly_four(self, camera):
        pose, pts, pix = make_projected_scene(5, seed=23)
        with pytest.raises(ValueError):
            solve_pnp_minimal(pix, pts, camera)


class TestLeastSquaresSolver:
    def test_noiseless_recovery(self, camera):
        for seed in range(50):
            pose, pts, pix = make_projected_scene(20, seed=100 + seed)
            est = solve_pnp_lsq(pix, pts, camera)
            assert rotation_error_deg(est.rotation, pose.rotation) < 1e-8 * DEG_PER_RAD
            assert np.linalg.norm(est.translation - pose.translation) < 1e-8

    def test_noisy_monte_carlo(self, camera):
        # 0.5 px pixel noise over 100 seeds: median errors stay small
        rot_errs, trans_rel = [], []
        for seed in range(100):
            pose, pts, pix = make_projected_scene(20, seed=200 + seed)
            noise_rng = np.random.default_rng(900 + seed)
            noisy = pix + noise_rng.normal(0.0, 0.5, pix.shape)
            est = solve_pnp_lsq(noisy, pts, camera)
            rot_errs.append(rotation_error_deg(est.rotation, pose.rotation))
            trans_rel.append(
                np.linalg.norm(est.translation - pose.translation) / pose.translation[2]
            )
        assert np.median(rot_errs) < 0.5
        assert np.median(trans_rel) < 0.01

    def test_coplanar_contract(self, camera):
        # coplanar points: either flagged rank-deficient or solved with a
        # small residual
        rng = np.random.default_rng(24)
        pose = RigidPose(random_rotation(rng), [0.0, 0.0, 1.5])
        pts = rng.uniform(-0.2, 0.2, size=(20, 3))
        pts[:, 2] = 0.0
        pix = project(pose.transform(pts), camera)
        try:
            est = solve_pnp_lsq(pix, pts, camera)
        except RankDeficient:
            return
        reproj = project(est.transform(pts), camera)
        assert np.max(np.linalg.norm(reproj - pix, axis=1)) < 1e-3

    def test_requires_six(self, camera):
        pose, pts, pix = make_projected_scene(5, seed=25)
        with pytest.raises(InsufficientCorrespondences):
            solve_pnp_lsq(pix, pts, camera)


class TestRefinement:
    def test_ground_truth_is_fixed_point(self, camera):
        pose, pts, pix = make_projected_scene(20, seed=26)
        refined = refine_pnp(pose, pix, pts, camera)
        assert np.max(np.abs(refined.rotation - pose.rotation)) < 1e-10
        assert np.max(np.abs(refined.translation - pose.translation)) < 1e-10

    def test_basin_of_convergence(self, camera):
        # 5 degree / 5 cm perturbations recover the exact optimum
        rng = np.random.default_rng(27)
        for seed in range(20):
            pose, pts, pix = make_projected_scene(30, seed=300 + seed)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            start = RigidPose(
                rotation_about_axis(axis, 5.0) @ pose.rotation,
                pose.translation + 0.05 * rng.normal(size=3) / math.sqrt(3),
            )
            refined = refine_pnp(start, pix, pts, camera)
            assert rotation_error_deg(refined.rotation, pose.rotation) < 1e-8 * DEG_PER_RAD
            assert np.linalg.norm(refined.translation - pose.translation) < 1e-8

    def test_jacobian_matches_finite_differences(self, camera):
        from scalepose.geometry import rotation_from_rotvec

        rng = np.random.default_rng(28)
        for seed in range(25):
            pose, pts, pix = make_projected_scene(10, seed=400 + seed)
            start = RigidPose(pose.rotation, pose.translation + [0.01, -0.01, 0.02])
            res0, jac, ok = reprojection_residuals_jacobian(start, pix, pts, camera)

            def residuals(delta):
                rot = rotation_from_rotvec(delta[:3]) @ start.rotation
                cam = pts[ok] @ rot.T + start.translation + delta[3:]
                uv = np.empty((cam.shape[0], 2))
                uv[:, 0] = camera.fx * cam[:, 0] / cam[:, 2] + camera.cx
                uv[:, 1] = camera.fy * cam[:, 1] / cam[:, 2] + camera.cy
                out = np.empty(2 * cam.shape[0])
                out[0::2] = uv[:, 0] - pix[ok, 0]
                out[1::2] = uv[:, 1] - pix[ok, 1]
                return out

            h = 1e-6
            fd = np.empty_like(jac)
            for j in range(6):
                e = np.zeros(6)
                e[j] = h
                fd[:, j] = (residuals(e) - residuals(-e)) / (2 * h)
            scale = np.abs(jac).max()
            assert np.max(np.abs(jac - fd)) < 1e-6 * max(1.0, scale)

    def test_cost_never_increases(self, camera):
        rng = np.random.default_rng(29)
        for seed in range(20):
            pose, pts, pix = make_projected_scene(25, seed=500 + seed)
            noisy = pix + np.random.default_rng(seed).normal(0, 1.0, pix.shape)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            start = RigidPose(
                rotation_about_axis(axis, 8.0) @ pose.rotation,
                pose.translation + 0.05 * rng.normal(size=3),
            )
            _, info = refine_pnp(start, noisy, pts, camera, full_output=True)
            history = info["cost_history"]
            assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_all_points_behind_camera(self, camera):
        pose, pts, pix = make_projected_scene(10, seed=30)
        flipped = RigidPose(pose.rotation, [0.0, 0.0, -3.0])
        with pytest.raises(DivergedBehindCamera):
            refine_pnp(flipped, pix, pts, camera)


class TestRansac:
    def _outlier_scene(self, seed, n=100, n_out=30, pixel_noise=0.0):
        pose, pts, pix = make_projected_scene(n, seed=seed)
        rng = np.random.default_rng(7000 + seed)
        noisy = pix.copy()
        if pixel_noise > 0:
            noisy += rng.normal(0.0, pixel_noise, pix.shape)
        out_idx = rng.choice(n, n_out, replace=False)
        noisy[out_idx] = rng.uniform([0, 0], [640, 480], size=(n_out, 2))
        truth = np.ones(n, dtype=bool)
        truth[out_idx] = False
        return pose, pts, noisy, truth

    def test_outlier_rejection_and_classification(self, camera):
        for seed in range(10):
            pose, pts, noisy, truth = self._outlier_scene(600 + seed)
            result = ransac_pnp(
                noisy, pts, camera, RansacConfig(reprojection_threshold=1.0, rng_seed=seed)
            )
            assert rotation_error_deg(result.pose.rotation, pose.rotation) < 0.1
            assert np.linalg.norm(result.pose.translation - pose.translation) < 1e-3
            assert np.array_equal(result.inlier_mask, truth)

    def test_no_outliers_matches_lsq(self, camera):
        pose, pts, pix = make_projected_scene(40, seed=31)
        direct = solve_pnp_lsq(pix, pts, camera)
        robust = ransac_pnp(pix, pts, camera, RansacConfig(rng_seed=1))
        assert np.max(np.abs(direct.rotation - robust.pose.rotation)) < 1e-9
        assert np.max(np.abs(direct.translation - robust.pose.translation)) < 1e-9
        assert bool(np.all(robust.inlier_mask))

    def test_insufficient_correspondences(self, camera):
        pose, pts, pix = make_projected_scene(3, seed=32)
        with pytest.raises(InsufficientCorrespondences):
            ransac_pnp(pix, pts, camera)

    def test_consensus_not_found_on_garbage(self, camera):
        rng = np.random.default_rng(33)
        img = rng.uniform([0, 0], [640, 480], size=(12, 2))
        mdl = rng.uniform(-0.2, 0.2, size=(12, 3))
        cfg = RansacConfig(reprojection_threshold=1e-7, max_iterations=30, rng_seed=0)
        with pytest.raises(ConsensusNotFound):
            ransac_pnp(img, mdl, camera, cfg)

    def test_deterministic_for_fixed_seed(self, camera):
        pose, pts, noisy, _ = self._outlier_scene(660)
        cfg = RansacConfig(rng_seed=9)
        a = ransac_pnp(noisy, pts, camera, cfg)
        b = ransac_pnp(noisy, pts, camera, cfg)
        assert np.array_equal(a.pose.rotation, b.pose.rotation)
        assert np.array_equal(a.pose.translation, b.pose.translation)
        assert np.array_equal(a.inlier_mask, b.inlier_mask)
        assert a.mean_reprojection_error == b.mean_reprojection_error
        assert a.iterations_used == b.iterations_used

    def test_scale_decoupling_invariance(self, camera):
        # scaling the model by alpha leaves rotation fixed and scales the
        # translation by alpha
        pose, pts, pix = make_projected_scene(50, seed=34)
        base = ransac_pnp(pix, pts, camera, RansacConfig(rng_seed=2))
        for alpha in (0.5, 0.8, 1.25, 2.0):
            scaled = ransac_pnp(pix, scale_model_points(alpha, pts), camera, RansacConfig(rng_seed=2))
            assert np.max(np.abs(scaled.pose.rotation - base.pose.rotation)) < 1e-6
            assert np.max(np.abs(scaled.pose.translation - alpha * base.pose.translation)) < 1e-6

    def test_final_inliers_under_threshold(self, camera):
        from scalepose import _kernels as kernels

        pose, pts, noisy, _ = self._outlier_scene(670, pixel_noise=0.5)
        cfg = RansacConfig(reprojection_threshold=2.0, rng_seed=3)
        result = ransac_pnp(noisy, pts, camera, cfg)
        errors = kernels.reprojection_errors(
            result.pose.rotation, result.pose.translation, pts, noisy,
            camera.fx, camera.fy, camera.cx, camera.cy,
        )
        assert np.all(errors[result.inlier_mask] < cfg.reprojection_threshold)
        assert result.mean_reprojection_error == pytest.approx(
            float(errors[result.inlier_mask].mean())
        )

    def test_adaptive_early_termination_on_clean_data(self, camera):
        pose, pts, pix = make_projected_scene(30, seed=35)
        result = ransac_pnp(pix, pts, camera, RansacConfig(rng_seed=4))
        assert result.iterations_used == 1
        assert result.stop_reason == "confidence"

    def test_stop_reason_at_iteration_cap(self, camera):
        pose, pts, noisy, _ = self._outlier_scene(680, n=60, n_out=40, pixel_noise=0.5)
        result = ransac_pnp(noisy, pts, camera, RansacConfig(max_iterations=25, rng_seed=5))
        assert result.iterations_used == 25
        assert result.stop_reason == "max_iterations"
        assert result.rejected_no_solution > 0

    def test_rejection_counts_bounded_by_iterations(self, camera):
        degenerate = 0
        for seed in range(8):
            pose, pts, noisy, _ = self._outlier_scene(690 + seed, n=40, n_out=16, pixel_noise=0.5)
            # a run of collinear model points makes some samples degenerate
            pts[:20] = pts[0] + np.linspace(-1.0, 1.0, 20)[:, None] * (pts[1] - pts[0])
            noisy[:20] = project(pose.transform(pts[:20]), camera)
            result = ransac_pnp(noisy, pts, camera, RansacConfig(rng_seed=seed))
            rejected = result.rejected_degenerate + result.rejected_no_solution
            assert 0 <= rejected <= result.iterations_used
            degenerate += result.rejected_degenerate
        assert degenerate > 0


# Unit quaternions, kept away from the zero vector before normalizing.
quaternions = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1)


def outlier_problem(quat, size, depth, outlier_fraction, seed):
    """Noiseless inliers of a random pose; outliers moved 20-200 px off
    their true projection, so the true inlier mask is unambiguous."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 61))
    points = rng.uniform(-size, size, size=(n, 3))
    pose = RigidPose(rotation_from_quaternion(quat), [0.1 * depth * size, -0.05 * depth * size, depth * size])
    pixels = project(pose.transform(points), CAMERA)
    outliers = rng.choice(n, size=int(outlier_fraction * n), replace=False)
    angle = rng.uniform(0.0, 2.0 * math.pi, size=len(outliers))
    shift = rng.uniform(20.0, 200.0, size=len(outliers))
    pixels[outliers] += shift[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    truth = np.ones(n, dtype=bool)
    truth[outliers] = False
    return pose, points, pixels, truth


problems = st.builds(
    outlier_problem,
    quat=quaternions,
    size=st.floats(0.05, 0.5),
    depth=st.floats(3.0, 8.0),
    outlier_fraction=st.floats(0.0, 0.4),
    seed=st.integers(0, 2**32 - 1),
)
# A miss chance of 1e-5 per solve keeps the properties from flaking.
SURE = RansacConfig(confidence=0.99999, rng_seed=3)


class TestRansacProperties:
    @settings(max_examples=40, deadline=None)
    @given(problem=problems)
    def test_noiseless_inliers_recover_pose(self, problem):
        pose, points, pixels, truth = problem
        result = ransac_pnp(pixels, points, CAMERA, SURE)
        assert np.max(np.abs(result.pose.rotation - pose.rotation)) < 1e-6
        assert np.max(np.abs(result.pose.translation - pose.translation)) < 1e-6
        assert np.array_equal(result.inlier_mask, truth)

    @settings(max_examples=40, deadline=None)
    @given(problem=problems, alpha=st.floats(0.25, 4.0))
    def test_model_scale_only_scales_translation(self, problem, alpha):
        _, points, pixels, _ = problem
        base = ransac_pnp(pixels, points, CAMERA, SURE)
        scaled = ransac_pnp(pixels, scale_model_points(alpha, points), CAMERA, SURE)
        assert np.max(np.abs(scaled.pose.rotation - base.pose.rotation)) < 1e-9
        assert np.max(np.abs(scaled.pose.translation - alpha * base.pose.translation)) < 1e-9 * max(1.0, alpha)
        assert np.array_equal(scaled.inlier_mask, base.inlier_mask)
        assert scaled.iterations_used == base.iterations_used


class TestScaleModelPoints:
    def test_identity(self):
        pts = np.array([[0.1, 0.0, 0.0]])
        assert np.array_equal(scale_model_points(1.0, pts), pts)

    def test_doubles(self):
        assert np.allclose(scale_model_points(2.0, np.array([[0.1, 0, 0]])), [[0.2, 0, 0]])

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveScale):
            scale_model_points(0.0, np.zeros((1, 3)))


class TestConfigAndRecords:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            RansacConfig(reprojection_threshold=0.0)
        with pytest.raises(ValueError):
            RansacConfig(confidence=1.0)
        with pytest.raises(ValueError):
            RansacConfig(max_iterations=0)

    def test_mismatched_counts_rejected(self, camera):
        with pytest.raises(ValueError):
            ransac_pnp(np.zeros((5, 2)), np.zeros((4, 3)), camera)
