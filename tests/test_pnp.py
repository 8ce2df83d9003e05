import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CAMERA, make_projected_scene
from oracles import reprojection_residuals_jacobian
from scalepose import pnp
from scalepose.errors import (
    ConsensusNotFound,
    DegenerateSample,
    DivergedBehindCamera,
    InsufficientCorrespondences,
    NoRealSolution,
    RankDeficient,
    ScalePoseError,
)
from scalepose.geometry import (
    RigidPose,
    ensure_rotation,
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

    def test_converged_refine_stops_after_one_trial_step(self, camera, monkeypatch):
        # restarted from its own converged pose, a refine evaluates that pose
        # and one trial step, then stops
        normal_eqs, calls = pnp.kernels.reprojection_normal_eqs, []

        def counting(*args):
            calls.append(args)
            return normal_eqs(*args)

        monkeypatch.setattr(pnp.kernels, "reprojection_normal_eqs", counting)
        rng = np.random.default_rng(32)
        for seed in range(30):
            pose, pts, pix = make_projected_scene(25, seed=550 + seed)
            noisy = pix + rng.normal(0, 1.0, pix.shape)
            start = RigidPose(
                rotation_about_axis(rng.normal(size=3), 4.0) @ pose.rotation,
                pose.translation + 0.03 * rng.normal(size=3),
            )
            converged = refine_pnp(start, noisy, pts, camera)
            calls.clear()
            refine_pnp(converged, noisy, pts, camera)
            assert len(calls) <= 2, seed

    @pytest.mark.parametrize("problem", [1615, 4748])
    def test_flat_valley_reaches_the_minimum(self, problem):
        # sweep problems whose refined pose lies in a flat valley of the cost
        # (cond(JtJ) above 1e12): from the pose RANSAC hands to the refine,
        # it ends within 5% of scipy's Levenberg-Marquardt
        from scipy.optimize import least_squares

        from pnp_sweep import make_problem
        from scalepose.geometry import rotation_from_rotvec

        pixels, _, points, _, max_iterations = make_problem(problem)
        starts = []
        with mock.patch.object(pnp, "refine_pnp", lambda *args: starts.append(args) or args[0]):
            ransac_pnp(pixels, points, CAMERA, RansacConfig(2.0, max_iterations, 0.999, problem))
        start, image, model, k = starts[0]

        def residuals(x):
            cam = model @ (rotation_from_rotvec(x[:3]) @ start.rotation).T + start.translation + x[3:]
            return np.concatenate([k.fx * cam[:, 0] / cam[:, 2] + k.cx - image[:, 0],
                                   k.fy * cam[:, 1] / cam[:, 2] + k.cy - image[:, 1]])

        reference = 2.0 * least_squares(residuals, np.zeros(6), method="lm").cost
        _, info = refine_pnp(start, image, model, k, full_output=True)
        assert info["final_cost"] <= 1.05 * reference

    def test_parameter_that_moves_no_residual(self, camera):
        # model points on the camera's x axis through the model origin: a
        # rotation about that axis moves no residual, so a column of J is zero
        model = np.array([[x, 0.0, 0.0] for x in (-0.2, -0.1, 0.05, 0.1, 0.3)])
        pose = RigidPose(np.eye(3), [0.0, 0.0, 2.0])
        noisy = project(pose.transform(model), camera) + np.random.default_rng(0).normal(0, 0.5, (5, 2))
        _, info = refine_pnp(pose, noisy, model, camera, full_output=True)
        assert info["iterations"] > 0
        assert info["final_cost"] < info["cost_history"][0]

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
            scaled = ransac_pnp(pix, alpha * pts, camera, RansacConfig(rng_seed=2))
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
        # With 20 of 60 points outliers, 25 samples all miss the inliers
        # with chance (1 - (2/3)^4)^25 < 0.5%. A consensus of the 40 inliers
        # leaves the 0.999 bound at 32 samples, so the cap stops the run.
        pose, pts, noisy, _ = self._outlier_scene(680, n=60, n_out=20, pixel_noise=0.5)
        result = ransac_pnp(noisy, pts, camera, RansacConfig(max_iterations=25, rng_seed=5))
        assert result.iterations_used == 25
        assert result.stop_reason == "max_iterations"
        assert rotation_error_deg(result.pose.rotation, pose.rotation) < 1.0

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

    def test_counts_samples_without_solution(self, camera):
        # With half the points outliers, about 5% of samples leave no P3P
        # candidate in front of the camera. The 0.999 bound asks for about
        # 108 samples, and all of them have one with chance 0.95^108 < 0.5%.
        pose, pts, noisy, _ = self._outlier_scene(700, n=100, n_out=50, pixel_noise=0.5)
        result = ransac_pnp(noisy, pts, camera, RansacConfig(rng_seed=0))
        assert 0 < result.rejected_no_solution <= result.iterations_used


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
        scaled = ransac_pnp(pixels, alpha * points, CAMERA, SURE)
        assert np.max(np.abs(scaled.pose.rotation - base.pose.rotation)) < 1e-9
        assert np.max(np.abs(scaled.pose.translation - alpha * base.pose.translation)) < 1e-9 * max(1.0, alpha)
        assert np.array_equal(scaled.inlier_mask, base.inlier_mask)
        assert scaled.iterations_used == base.iterations_used


def block_problem(seed, n, outlier_fraction, collinear_fraction, noise, perturbation=0.0):
    """Seeded pixels and model points: a run of collinear model points makes
    some samples degenerate, outliers land anywhere in the image. A nonzero
    ``perturbation`` (meters) moves the run's points off the line by that
    much, so some samples are near-collinear."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-0.1, 0.1, size=(n, 3))
    collinear = int(collinear_fraction * n)
    if collinear:
        steps = np.linspace(-1.0, 1.0, collinear)[:, None]
        points[:collinear] = points[0] + steps * (points[1] - points[0])
        if perturbation:
            points[:collinear] += perturbation * rng.normal(size=(collinear, 3))
    pose = RigidPose(random_rotation(rng), [0.0, 0.0, rng.uniform(0.4, 1.2)])
    pixels = project(pose.transform(points), CAMERA) + rng.normal(0.0, noise, size=(n, 2))
    bad = rng.choice(n, size=int(outlier_fraction * n), replace=False)
    pixels[bad] = rng.uniform([0.0, 0.0], [640.0, 480.0], size=(len(bad), 2))
    return pixels, points


def ransac_outcome(pixels, points, config):
    """Everything a solve reports, as exact values or the error raised."""
    try:
        r = ransac_pnp(pixels, points, CAMERA, config)
    except (ScalePoseError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return (
        repr(r.pose.rotation.tolist()),
        repr(r.pose.translation.tolist()),
        r.inlier_mask.tobytes(),
        repr(r.mean_reprojection_error),
        r.iterations_used,
        r.stop_reason,
        r.rejected_degenerate,
        r.rejected_no_solution,
    )


# Solves with outliers, collinear runs, noise and iteration caps of 1-40.
block_solves = dict(
    problem=st.builds(
        block_problem,
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(6, 80),
        outlier_fraction=st.floats(0.0, 0.6),
        collinear_fraction=st.sampled_from([0.0, 0.5, 0.8]),
        noise=st.floats(0.0, 1.0),
    ),
    max_iterations=st.integers(1, 40),
    confidence=st.sampled_from([0.9, 0.999, 0.99999]),
    rng_seed=st.integers(0, 2**32 - 1),
)


class TestSampleBlockInvariance:
    # A block of one sample is the one-sample-at-a-time loop.
    @settings(max_examples=60, deadline=None)
    @given(**block_solves)
    def test_result_does_not_depend_on_block_size(self, problem, max_iterations, confidence, rng_seed):
        pixels, points = problem
        config = RansacConfig(2.0, max_iterations, confidence, rng_seed)
        outcomes = []
        for block in (1, 3, 8, 64):
            with mock.patch.object(pnp, "SAMPLE_BLOCK", block):
                outcomes.append(ransac_outcome(pixels, points, config))
        assert outcomes[1:] == outcomes[:1] * 3


def reversed_candidates(block):
    """``block`` with each sample's candidates in reverse kernel order."""
    order = np.concatenate([np.arange(a, b)[::-1] for a, b in itertools.pairwise(block.starts)])
    return block._replace(
        rotations=block.rotations[order], translations=block.translations[order], errors=block.errors[order]
    )


class TestCandidateOrder:
    # Every candidate is scored against every point, so the order of one
    # sample's candidates can decide only an exact tie of two poses.
    @settings(max_examples=60, deadline=None)
    @given(**block_solves)
    def test_result_does_not_depend_on_candidate_order(self, problem, max_iterations, confidence, rng_seed):
        pixels, points = problem
        config = RansacConfig(2.0, max_iterations, confidence, rng_seed)
        solve = pnp._p3p_block
        with mock.patch.object(pnp, "_p3p_block", lambda *args: reversed_candidates(solve(*args))):
            flipped = ransac_outcome(pixels, points, config)
        assert flipped == ransac_outcome(pixels, points, config)


def rejection_outcome(pixels, points, config):
    """What a solve reports of its sampling loop, or the error raised."""
    try:
        r = ransac_pnp(pixels, points, CAMERA, config)
    except ScalePoseError as exc:
        return type(exc).__name__, str(exc)
    return r.iterations_used, r.stop_reason, r.rejected_degenerate, r.rejected_no_solution


class TestRejectionScaleInvariance:
    # Scaling the model by a power of two scales every length exactly and
    # leaves every pixel where it was, so the sampling loop must reject the
    # same samples at any model size.
    @settings(max_examples=60, deadline=None)
    @given(
        problem=st.builds(
            block_problem,
            seed=st.integers(0, 2**32 - 1),
            n=st.integers(8, 60),
            outlier_fraction=st.floats(0.0, 0.5),
            collinear_fraction=st.sampled_from([0.5, 0.8]),
            noise=st.sampled_from([0.0, 0.5]),
            perturbation=st.sampled_from([0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-6]),
        ),
        max_iterations=st.integers(1, 200),
        k=st.integers(-8, 20),
        rng_seed=st.integers(0, 2**32 - 1),
    )
    # a near-collinear sample rejected only at the larger size by a
    # collinearity test with an absolute term
    @example(problem=block_problem(1, 30, 0.0, 0.8, 0.0, 1e-10), max_iterations=200, k=17, rng_seed=1)
    def test_rejection_counts_ignore_model_scale(self, problem, max_iterations, k, rng_seed):
        pixels, points = problem
        config = RansacConfig(2.0, max_iterations, 0.999, rng_seed)
        scaled = rejection_outcome(pixels, points * 2.0**k, config)
        assert scaled == rejection_outcome(pixels, points, config)


def thin_problem(seed, size_exp, height_exp, along):
    """Four model points seen noise-free from a random pose. The first three
    form a triangle whose first edge is ``10**size_exp`` m long and whose
    third vertex lies ``along`` edges along it and ``10**height_exp`` edges
    off it, so its twice-area is at least ``10**height_exp / 2`` times its
    longer first-vertex edge squared."""
    rng = np.random.default_rng(seed)
    size = 10.0**size_exp
    u, v = np.linalg.qr(rng.normal(size=(3, 2)))[0].T
    p0 = rng.uniform(-size, size, size=3)
    model = np.stack(
        [p0, p0 + size * u, p0 + size * (along * u + 10.0**height_exp * v), rng.uniform(-size, size, size=3)]
    )
    pose = RigidPose(random_rotation(rng), [0.0, 0.0, 6.0 * size])
    return project(pose.transform(model), CAMERA), model


class TestExactFrames:
    # P3P rotations are products of two triangle frames with no projection
    # onto SO(3), so the frames must be orthonormal to rounding from just
    # above the collinearity mask to well-conditioned triangles.
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size_exp=st.floats(-3.0, 3.0),
        height_exp=st.floats(-9.5, 0.0),
        along=st.floats(-1.0, 1.0),
    )
    # an unorthogonalised plane normal leaves this frame off by 1.0e-7
    @example(seed=1059, size_exp=-3.0, height_exp=-9.5, along=0.5)
    def test_frames_and_candidates_are_rotations(self, seed, size_exp, height_exp, along):
        pixels, model = thin_problem(seed, size_exp, height_exp, along)
        frames, ok = pnp._triad_frames(model[None, :3])
        assert ok[0]
        assert np.abs(frames[0].T @ frames[0] - np.eye(3)).max() <= 1e-14
        assert abs(np.linalg.det(frames[0]) - 1.0) <= 1e-14
        try:
            poses = solve_pnp_minimal(pixels, model, CAMERA)
        except NoRealSolution:
            poses = []
        for pose in poses:
            ensure_rotation(pose.rotation, 1e-12)


def line_model(seed, n, size_exp, height_exp, pinch_exp):
    """``n`` model points at uniform positions along a line through a random
    offset, each moved off it by ``10**height_exp`` of the size (``None``:
    on the line to rounding), with the second point moved to within
    ``10**pinch_exp`` of the size of the first (``None``: left alone)."""
    rng = np.random.default_rng(seed)
    size = 10.0**size_exp
    direction = rng.normal(size=3)
    model = rng.uniform(-size, size, size=3) + size * rng.uniform(-1.0, 1.0, size=(n, 1)) * direction / np.linalg.norm(direction)
    if height_exp is not None:
        model += 10.0**height_exp * size * rng.normal(size=(n, 3))
    if pinch_exp is not None:
        model[1] = model[0] + 10.0**pinch_exp * size * rng.normal(size=3)
    return model


class TestCollinearModel:
    # the rank test before sampling may reject a model only where the
    # triad rule already rejects every ordered triple of its points
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 9),
        size_exp=st.floats(-4.0, 4.0),
        height_exp=st.none() | st.floats(-17.0, -8.0),
        pinch_exp=st.none() | st.floats(-16.0, -6.0),
    )
    def test_rejected_model_has_no_valid_triangle(self, seed, n, size_exp, height_exp, pinch_exp):
        model = line_model(seed, n, size_exp, height_exp, pinch_exp)
        if pnp._collinear(model):
            triples = np.array(list(itertools.permutations(range(n), 3)))
            assert not pnp._triad_frames(model[triples])[1].any()

    @pytest.mark.parametrize("seed", range(5))
    def test_points_on_a_line_are_collinear(self, seed):
        assert pnp._collinear(line_model(seed, 12, 0.0, None, None))
        assert not pnp._collinear(line_model(seed, 12, 0.0, -6.0, None))

    def test_rejected_before_the_first_sample(self, camera):
        pose = RigidPose(random_rotation(np.random.default_rng(37)), [0.0, 0.0, 1.5])
        model = line_model(37, 40, -1.0, None, None)
        pixels = project(pose.transform(model), camera)
        with mock.patch.object(pnp, "_p3p_block", side_effect=AssertionError("sampled")):
            with pytest.raises(ConsensusNotFound, match="collinear"):
                ransac_pnp(pixels, model, camera, RansacConfig(rng_seed=0))


class TestConfigAndRecords:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            RansacConfig(reprojection_threshold=0.0)
        with pytest.raises(ValueError):
            RansacConfig(confidence=1.0)
        with pytest.raises(ValueError):
            RansacConfig(max_iterations=0)
        for threshold in (math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match="reprojection_threshold"):
                RansacConfig(reprojection_threshold=threshold)
        for seed in (-1, 1.5, (1, 2)):
            with pytest.raises(ValueError, match="rng_seed"):
                RansacConfig(rng_seed=seed)

    def test_mismatched_counts_rejected(self, camera):
        with pytest.raises(ValueError):
            ransac_pnp(np.zeros((5, 2)), np.zeros((4, 3)), camera)
