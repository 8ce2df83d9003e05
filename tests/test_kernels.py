"""Kernel contracts: the kernels must match independent oracles
(numpy.roots, dense NumPy algebra, the law-of-cosines constraints)."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import reprojection_residuals_jacobian
from p3p_stress import kernel_args
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
            mine = kernels.quartic_roots(*c.tolist())
            oracle = _roots_oracle(c)
            assert isinstance(mine, list)
            assert len(mine) == len(oracle)
            if mine:
                assert np.max(np.abs(np.array(mine) - oracle)) < 1e-7

    def test_known_factored_roots(self):
        # (x-1)(x-2)(x-3)(x-4) = x^4 - 10x^3 + 35x^2 - 50x + 24
        roots = kernels.quartic_roots(1, -10, 35, -50, 24)
        assert np.allclose(roots, [1, 2, 3, 4], atol=1e-10)

    def test_no_real_roots(self):
        # (x^2+1)(x^2+4) has no real roots
        assert kernels.quartic_roots(1, 0, 5, 0, 4) == []

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
        assert kernels.quartic_roots(0, 0, 0, 0, 0) == []

    def test_nearly_biquadratic(self):
        # a small odd coefficient makes the resolvent cubic's largest root
        # about q^2 / (8 (p^2/4 - r)), far below the rounding of its
        # Cardano form; taken from there, the factor quadratics have no
        # real roots and every real root of the quartic is lost
        for eps in (1e-12, 1e-10, 1e-8, -1e-9):
            for coeffs in ((1, 0, 1, eps, -1), (1, 0, -3, eps, 1)):
                mine = kernels.quartic_roots(*coeffs)
                oracle = _roots_oracle(coeffs)
                assert len(mine) == len(oracle)
                assert np.max(np.abs(np.array(mine) - oracle)) < 1e-7

    def test_small_leading_coefficient(self):
        # eps x^4 puts a root at 1/eps, and Ferrari's depressed quartic
        # carries terms of order eps^-4 that swamp the moderate roots; the
        # large root is only as accurate as its reciprocal, about 1e-16
        for eps in (1e-11, 1e-9, 1e-7, 1e-5):
            expected = [-1.0, 0.5, 2.0, 1.0 / eps]
            mine = kernels.quartic_roots(*(eps * np.poly(expected)).tolist())
            assert len(mine) == 4
            assert np.max(np.abs(np.array(mine[:3]) - expected[:3])) < 1e-12
            assert abs(1.0 / mine[3] - eps) < 1e-15



def _residuals(s, a2, b2, c2, ca, cb, cg):
    """The three law-of-cosines residuals of a distance set."""
    s1, s2, s3 = s
    return (
        s2 * s2 + s3 * s3 - 2 * s2 * s3 * ca - a2,
        s1 * s1 + s3 * s3 - 2 * s1 * s3 * cb - b2,
        s1 * s1 + s2 * s2 - 2 * s1 * s2 * cg - c2,
    )


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
            sets = kernels.p3p_distance_sets(*kernel_args(pts, bearings))
            assert len(sets) >= 1
            best = min(np.max(np.abs(np.array(s) - dist)) for s in sets)
            assert best < 1e-8

    def test_all_solutions_satisfy_constraints(self):
        for seed in range(50):
            pts, bearings, _ = _p3p_instance(seed)
            args = kernel_args(pts, bearings)
            scale = sum(args[:3])
            for s in kernels.p3p_distance_sets(*args):
                assert type(s) is tuple and all(type(v) is float for v in s)
                assert max(map(abs, _residuals(s, *args))) < 1e-8 * scale
                assert min(s) > 0

    def test_no_set_puts_the_camera_at_a_vertex(self):
        # a gridded triangle whose quartic has a root that polishes to a
        # set with a smallest distance of 2.1e-15 (rounding noise) unless
        # such sets are rejected; the block solver would place a sample
        # point at that depth, in front of the camera
        pts = np.array([[-0.75, -0.75, 1.5], [-0.25, -0.75, 1.75], [-0.5, 1.0, 2.25]])
        dist = np.linalg.norm(pts, axis=1)
        sets = kernels.p3p_distance_sets(*kernel_args(pts, pts / dist[:, None]))
        for s in sets:
            assert min(s) > 1e-8 * max(s)
        assert min(np.max(np.abs(np.array(s) - dist)) for s in sets) <= 1e-8 * dist.max()

    def test_nearly_biquadratic_quartic_keeps_the_true_set(self):
        # a camera placed where the quartic's depressed odd coefficient is
        # 2.5e-12 of its even one: the true set needs the resolvent cubic's
        # small root to full relative accuracy
        pts = np.array(
            [
                [0.485319556862743, -0.9593785642971955, 3.1284076748208567],
                [-0.18784892316782945, 0.3516646355481537, 2.581526468569633],
                [-0.5695147384422293, 0.6800736892219748, 3.0869927575236478],
            ]
        )
        dist = np.linalg.norm(pts, axis=1)
        sets = kernels.p3p_distance_sets(*kernel_args(pts, pts / dist[:, None]))
        assert min((np.max(np.abs(np.array(s) - dist)) for s in sets), default=np.inf) <= 1e-8 * dist.max()

    def test_shared_root_keeps_the_true_set(self):
        # the quartic's true root is a double root shared by two solutions,
        # and the discriminant of their quadratic in u, 0 in real
        # arithmetic, rounds to -5.6e-17
        pts = np.array([[1.0, -0.75, 1.5], [0.0, 0.0, 1.5], [-0.5, 0.75, 1.5]])
        dist = np.linalg.norm(pts, axis=1)
        sets = kernels.p3p_distance_sets(*kernel_args(pts, pts / dist[:, None]))
        assert min((np.max(np.abs(np.array(s) - dist)) for s in sets), default=np.inf) <= 1e-8 * dist.max()

    def test_near_vanishing_leading_coefficient_keeps_the_true_set(self):
        # the camera in the triangle's plane, a Hypothesis example of
        # test_well_conditioned_triangles; true distances (2, 1.414, 1.118).
        # The quartic's leading coefficient is 1.1e-10 of its largest, and
        # Ferrari on it gave (-2359.4, 4721.2, 3.7e9) and no set
        pts = np.array([[0.0, 1e-10, 2.0], [0.0, 1.0, 1.0], [0.0, 0.5, 1.0]])
        dist = np.linalg.norm(pts, axis=1)
        sets = kernels.p3p_distance_sets(*kernel_args(pts, pts / dist[:, None]))
        assert min((np.max(np.abs(np.array(s) - dist)) for s in sets), default=np.inf) <= 1e-8 * dist.max()

    def test_degenerate_triangle_returns_empty(self):
        pts = np.array([[0.0, 0, 1], [0.0, 0, 1], [1.0, 0, 2]])
        bearings = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        assert kernels.p3p_distance_sets(*kernel_args(pts, bearings)) == []

    @settings(max_examples=300, deadline=None)
    @given(
        pts=st.lists(
            st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(1.0, 5.0)),
            min_size=3,
            max_size=3,
        )
    )
    def test_well_conditioned_triangles(self, pts):
        # well conditioned: no side under 0.1, no angle of the triangle
        # under 15 degrees, no two rays within 5 degrees, and the camera
        # away from the danger cylinder, where the constraints' Jacobian
        # turns singular
        pts = np.array(pts)
        dist = np.linalg.norm(pts, axis=1)
        bearings = pts / dist[:, None]
        args = kernel_args(pts, bearings)
        a2, b2, c2, ca, cb, cg = args
        side = np.sqrt(args[:3])
        assume(side.min() > 0.1)
        cos_angles = [
            (b2 + c2 - a2) / (2 * side[1] * side[2]),
            (a2 + c2 - b2) / (2 * side[0] * side[2]),
            (a2 + b2 - c2) / (2 * side[0] * side[1]),
        ]
        assume(max(cos_angles) < math.cos(math.radians(15)))
        assume(max(ca, cb, cg) < math.cos(math.radians(5)))
        s1, s2, s3 = dist
        jac = 2 * np.array(
            [[0, s2 - s3 * ca, s3 - s2 * ca], [s1 - s3 * cb, 0, s3 - s1 * cb], [s1 - s2 * cg, s2 - s1 * cg, 0]]
        )
        assume(np.linalg.cond(jac) < 1e3)

        sets = kernels.p3p_distance_sets(*args)
        scale = a2 + b2 + c2
        for s in sets:
            assert max(map(abs, _residuals(s, *args))) <= 1e-10 * scale
            assert min(s) > 0
        assert min((np.max(np.abs(np.array(s) - dist)) for s in sets), default=math.inf) <= 1e-8 * dist.max()


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

