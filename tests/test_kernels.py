"""Kernel contracts: the NumPy kernels must match independent oracles
(numpy.roots, dense NumPy algebra)."""

import numpy as np

from oracles import reprojection_residuals_jacobian
from scalepose import _kernels as kernels
from scalepose.geometry import RigidPose, random_rotation


def _roots_oracle(coeffs):
    r = np.roots(coeffs)
    real = np.sort(r[np.abs(r.imag) < 1e-7].real)
    out = []
    for x in real:
        if not out or abs(x - out[-1]) > 1e-8 * (1 + abs(x)):
            out.append(x)
    return np.asarray(out)


class TestQuarticRoots:
    def test_random_quartics_match_numpy_roots(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            c = rng.normal(size=5)
            mine = kernels.quartic_roots(*c)
            oracle = _roots_oracle(c)
            assert len(mine) == len(oracle)
            if len(mine):
                assert np.max(np.abs(mine - oracle)) < 1e-7

    def test_known_factored_roots(self):
        # (x-1)(x-2)(x-3)(x-4) = x^4 - 10x^3 + 35x^2 - 50x + 24
        roots = kernels.quartic_roots(1, -10, 35, -50, 24)
        assert np.allclose(roots, [1, 2, 3, 4], atol=1e-10)

    def test_no_real_roots(self):
        # (x^2+1)(x^2+4) has no real roots
        assert len(kernels.quartic_roots(1, 0, 5, 0, 4)) == 0

    def test_biquadratic(self):
        # x^4 - 5x^2 + 4 = (x^2-1)(x^2-4)
        roots = kernels.quartic_roots(1, 0, -5, 0, 4)
        assert np.allclose(roots, [-2, -1, 1, 2], atol=1e-10)

    def test_double_root_merged(self):
        # (x-1)^2 (x-3)(x-5)
        roots = kernels.quartic_roots(1, -10, 32, -38, 15)
        assert len(roots) == 3
        assert np.allclose(roots, [1, 3, 5], atol=1e-6)

    def test_degenerate_leading_coefficients(self):
        assert np.allclose(kernels.quartic_roots(0, 1, -6, 11, -6), [1, 2, 3], atol=1e-9)
        assert np.allclose(kernels.quartic_roots(0, 0, 1, -3, 2), [1, 2], atol=1e-10)
        assert np.allclose(kernels.quartic_roots(0, 0, 0, 2, -4), [2], atol=1e-12)
        assert len(kernels.quartic_roots(0, 0, 0, 0, 0)) == 0


def _p3p_instance(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(3, 3))
    pts[:, 2] = np.abs(pts[:, 2]) + 1.2
    dist = np.linalg.norm(pts, axis=1)
    bearings = pts / dist[:, None]
    return pts, bearings, dist


class TestP3PDistances:
    def test_recovers_true_distances(self):
        for seed in range(300):
            pts, bearings, dist = _p3p_instance(seed)
            sets = kernels.p3p_distance_sets(pts, bearings)
            assert len(sets) >= 1
            best = min(np.max(np.abs(s - dist)) for s in sets)
            assert best < 1e-8

    def test_all_solutions_satisfy_constraints(self):
        for seed in range(50):
            pts, bearings, _ = _p3p_instance(seed)
            d01 = np.dot(bearings[0], bearings[1])
            d02 = np.dot(bearings[0], bearings[2])
            d12 = np.dot(bearings[1], bearings[2])
            a2 = np.sum((pts[1] - pts[2]) ** 2)
            b2 = np.sum((pts[0] - pts[2]) ** 2)
            c2 = np.sum((pts[0] - pts[1]) ** 2)
            for s1, s2, s3 in kernels.p3p_distance_sets(pts, bearings):
                assert abs(s2 * s2 + s3 * s3 - 2 * s2 * s3 * d12 - a2) < 1e-8 * (a2 + b2 + c2)
                assert abs(s1 * s1 + s3 * s3 - 2 * s1 * s3 * d02 - b2) < 1e-8 * (a2 + b2 + c2)
                assert abs(s1 * s1 + s2 * s2 - 2 * s1 * s2 * d01 - c2) < 1e-8 * (a2 + b2 + c2)
                assert s1 > 0 and s2 > 0 and s3 > 0

    def test_degenerate_triangle_returns_empty(self):
        pts = np.array([[0.0, 0, 1], [0.0, 0, 1], [1.0, 0, 2]])
        bearings = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        assert len(kernels.p3p_distance_sets(pts, bearings)) == 0


class TestReprojectionKernels:
    def _setup(self, seed, n=40):
        rng = np.random.default_rng(seed)
        rot = random_rotation(rng)
        t = np.array([0.1, -0.05, 1.5]) + 0.1 * rng.normal(size=3)
        obj = rng.uniform(-0.2, 0.2, size=(n, 3))
        pix = rng.uniform([0, 0], [640, 480], size=(n, 2))
        return rot, t, obj, pix

    def test_matches_manual_projection(self):
        rot, t, obj, pix = self._setup(2)
        err = kernels.reprojection_errors(rot, t, obj, pix, 577.5, 577.5, 319.5, 239.5)
        cam = obj @ rot.T + t
        expected = np.hypot(
            577.5 * cam[:, 0] / cam[:, 2] + 319.5 - pix[:, 0],
            577.5 * cam[:, 1] / cam[:, 2] + 239.5 - pix[:, 1],
        )
        assert np.max(np.abs(err - expected)) < 1e-9

    def test_stacked_poses_match_one_pose_at_a_time(self):
        # RANSAC scores a stack of candidate poses at once and relies on
        # getting the bits of one reprojection_errors call per pose
        rng = np.random.default_rng(6)
        rots = np.stack([random_rotation(rng) for _ in range(12)])
        ts = np.array([0.1, -0.05, 0.3]) + 0.5 * rng.normal(size=(12, 3))
        _, _, obj, pix = self._setup(7, n=150)
        cam = obj @ rots.transpose(0, 2, 1) + ts[:, None]
        stacked = kernels.pixel_errors(cam, pix, 577.5, 577.5, 319.5, 239.5)
        assert np.isinf(stacked).any() and np.isfinite(stacked).any()
        for rot, t, row in zip(rots, ts, stacked):
            single = kernels.reprojection_errors(rot, t, obj, pix, 577.5, 577.5, 319.5, 239.5)
            assert np.array_equal(row, single)

    def test_behind_camera_is_inf(self):
        rot = np.eye(3)
        obj = np.array([[0.0, 0.0, -2.0], [0.0, 0.0, 2.0]])
        err = kernels.reprojection_errors(rot, np.zeros(3), obj, np.zeros((2, 2)), 100, 100, 0, 0)
        assert np.isinf(err[0]) and np.isfinite(err[1])

    def test_normal_eqs_match_explicit_jacobian(self, camera):
        rot, t, obj, pix = self._setup(3)
        jtj, jtr, cost, n_valid = kernels.reprojection_normal_eqs(
            rot, t, obj, pix, camera.fx, camera.fy, camera.cx, camera.cy
        )
        res, jac, ok = reprojection_residuals_jacobian(RigidPose(rot, t), pix, obj, camera)
        assert n_valid == int(np.count_nonzero(ok))
        assert np.max(np.abs(jtj - jac.T @ jac)) < 1e-6 * max(1.0, np.abs(jtj).max())
        assert np.max(np.abs(jtr - jac.T @ res)) < 1e-6 * max(1.0, np.abs(jtr).max())
        assert abs(cost - res @ res) < 1e-9 * max(1.0, cost)

