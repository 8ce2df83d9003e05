"""Acceptance suite: one test per release criterion, each asserting the
stated tolerance and printing a PASS line (run with ``pytest -s`` to see
them inline). Budgets are wall-clock seconds on a desktop-class machine.
"""

import math
import time

import numpy as np

from conftest import CAMERA, make_projected_scene
from oracles import iou3d_mc, reprojection_residuals_jacobian
from scalepose.boxes import OrientedBox3, iou3d
from scalepose.evaluation import TABLE_COLUMNS, match_detections, metric_table, record_metrics
from scalepose.geometry import (
    RigidPose,
    random_rotation,
    rotation_about_axis,
    rotation_error_deg,
    umeyama_align,
)
from scalepose.pnp import (
    RansacConfig,
    ransac_pnp,
    refine_pnp,
    solve_pnp_lsq,
)
from scalepose.scale import CategoryStats, OraclePredictor, compute_stats, gt_offset, recover_scale
from scalepose.synth import NoiseSpec, corrupt, run_coupled, run_decoupled, sample_scene

DEG = 180.0 / math.pi


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.1f}s exceeded budget {self.seconds}s"
            )
        return False


def _report(number, name, detail):
    print(f"\nACCEPTANCE {number:02d} {name}: PASS ({detail})")


def test_c01_umeyama_exactness():
    rng = np.random.default_rng(101)
    worst_rot = worst_trans = worst_scale = 0.0
    with Budget(5.0) as budget:
        for _ in range(1000):
            n = int(rng.integers(4, 65))
            src = rng.normal(size=(n, 3))
            s = rng.uniform(0.5, 2.0)
            rot = random_rotation(rng)
            t = rng.normal(size=3)
            dst = s * src @ rot.T + t
            sim = umeyama_align(src, dst)
            worst_rot = max(worst_rot, rotation_error_deg(sim.rotation, rot))
            worst_trans = max(worst_trans, float(np.linalg.norm(sim.translation - t)))
            worst_scale = max(worst_scale, abs(sim.scale - s) / s)
    assert worst_rot < 1e-7
    assert worst_trans < 1e-9
    assert worst_scale < 1e-9
    _report(
        1,
        "umeyama exactness",
        f"1000 sets: rot<{worst_rot:.2e} deg, trans<{worst_trans:.2e} m, "
        f"scale rel<{worst_scale:.2e}, {budget.elapsed:.1f}s",
    )


def test_c02_pnp_exactness():
    worst_rot = worst_trans = 0.0
    with Budget(30.0) as budget:
        for seed in range(1000):
            pose, pts, pix = make_projected_scene(20, seed=10_000 + seed)
            for est in (
                solve_pnp_lsq(pix, pts, CAMERA),
                ransac_pnp(pix, pts, CAMERA, RansacConfig(rng_seed=seed)).pose,
            ):
                worst_rot = max(worst_rot, rotation_error_deg(est.rotation, pose.rotation))
                worst_trans = max(
                    worst_trans, float(np.linalg.norm(est.translation - pose.translation))
                )
    assert worst_rot < 1e-5
    assert worst_trans < 1e-7
    _report(
        2,
        "pnp exactness",
        f"1000 scenes x 2 solvers: rot<{worst_rot:.2e} deg, trans<{worst_trans:.2e} m, "
        f"{budget.elapsed:.1f}s",
    )


def test_c03_ransac_robustness():
    rot_errs, trans_rel = [], []
    tp = fp = fn = 0
    with Budget(60.0) as budget:
        for seed in range(200):
            pose, pts, pix = make_projected_scene(100, seed=20_000 + seed)
            noise_rng = np.random.default_rng(30_000 + seed)
            noisy = pix + noise_rng.normal(0.0, 0.5, pix.shape)
            out_idx = noise_rng.choice(100, 30, replace=False)
            noisy[out_idx] = noise_rng.uniform([0, 0], [640, 480], size=(30, 2))
            truth = np.ones(100, dtype=bool)
            truth[out_idx] = False

            result = ransac_pnp(
                noisy, pts, CAMERA, RansacConfig(reprojection_threshold=2.0, rng_seed=seed)
            )
            rot_errs.append(rotation_error_deg(result.pose.rotation, pose.rotation))
            trans_rel.append(
                np.linalg.norm(result.pose.translation - pose.translation)
                / np.linalg.norm(pose.translation)
            )
            tp += int(np.sum(result.inlier_mask & truth))
            fp += int(np.sum(result.inlier_mask & ~truth))
            fn += int(np.sum(~result.inlier_mask & truth))
    f1 = 2 * tp / (2 * tp + fp + fn)
    assert np.median(rot_errs) < 0.5
    assert np.median(trans_rel) < 0.01
    assert f1 > 0.99
    _report(
        3,
        "ransac robustness",
        f"200 scenes, 30% outliers: median rot {np.median(rot_errs):.3f} deg, "
        f"median trans {100 * np.median(trans_rel):.3f}% of distance, F1 {f1:.4f}, "
        f"{budget.elapsed:.1f}s",
    )


def test_c04_decoupling_invariance():
    offsets = (-0.20, -0.10, 0.10, 0.20)
    worst_spread = 0.0
    worst_ratio_err = 0.0
    for i, category in enumerate(("bottle", "camera", "laptop", "mug")):
        for trial in range(3):
            scene = sample_scene(category, rng_seed=40_000 + 10 * i + trial)
            observations = corrupt(scene, NoiseSpec(), seed=0)
            t_norm = np.linalg.norm(scene.pose.translation)
            rots = []
            for rel in (0.0,) + offsets:
                result = run_decoupled(scene, observations, OraclePredictor(rel_error=rel))
                rots.append(result.rotation_error_deg)
                ratio = np.linalg.norm(result.pose.translation) / t_norm
                expected = result.estimated_scale / scene.scale
                worst_ratio_err = max(worst_ratio_err, abs(ratio - expected) / expected)
            worst_spread = max(worst_spread, max(rots) - min(rots))
    assert worst_spread < 0.01
    assert worst_ratio_err < 0.01
    _report(
        4,
        "decoupling invariance",
        f"rotation spread {worst_spread:.2e} deg over +/-20% scale error; "
        f"translation ratio off by {worst_ratio_err:.2e}",
    )


def test_c05_coupled_degradation():
    levels = (0.0, 0.02, 0.05, 0.1)
    coupled_medians = {}
    decoupled_medians = {}
    for level in levels:
        coupled, decoupled = [], []
        for trial in range(100):
            scene = sample_scene("camera", rng_seed=50_000 + trial)
            observations = corrupt(scene, NoiseSpec(depth_rel_noise=level), seed=60_000 + trial)
            coupled.append(run_coupled(scene, observations).rotation_error_deg)
            decoupled.append(
                run_decoupled(scene, observations, OraclePredictor()).rotation_error_deg
            )
        coupled_medians[level] = float(np.median(coupled))
        decoupled_medians[level] = float(np.median(decoupled))

    assert coupled_medians[0.05] > 0.1
    for a, b in zip(levels, levels[1:]):
        assert coupled_medians[a] < coupled_medians[b], coupled_medians
    base = decoupled_medians[0.0]
    for level in levels[1:]:
        assert abs(decoupled_medians[level] - base) <= 0.1 * base + 1e-12
    _report(
        5,
        "coupled degradation",
        "coupled median rot "
        + " -> ".join(f"{coupled_medians[l]:.3f}" for l in levels)
        + f" deg over depth noise {levels}; decoupled flat at {base:.2e} deg",
    )


def test_c06_iou_exact_vs_monte_carlo():
    rng = np.random.default_rng(601)
    worst = 0.0
    with Budget(120.0) as budget:
        # closed forms first
        cube = OrientedBox3(RigidPose(np.eye(3), np.zeros(3)), (1, 1, 1))
        offset = OrientedBox3(RigidPose(np.eye(3), [0.5, 0, 0]), (1, 1, 1))
        assert abs(iou3d(cube, cube) - 1.0) < 1e-9
        assert abs(iou3d(cube, offset) - 1.0 / 3.0) < 1e-9

        for seed in range(200):
            r1, r2 = random_rotation(rng), random_rotation(rng)
            t1 = rng.uniform(-0.5, 0.5, 3)
            t2 = t1 + rng.uniform(-0.5, 0.5, 3) * 0.6
            a = OrientedBox3(RigidPose(r1, t1), rng.uniform(0.3, 1.6, 3))
            b = OrientedBox3(RigidPose(r2, t2), rng.uniform(0.3, 1.6, 3))
            exact = iou3d(a, b)
            estimate = iou3d_mc(a, b, 1_000_000, seed=seed)
            worst = max(worst, abs(exact - estimate))
    assert worst <= 0.01
    _report(
        6,
        "iou exact vs monte carlo",
        f"200 pairs at 1e6 samples: worst |exact-mc| {worst:.4f}, {budget.elapsed:.1f}s",
    )


def test_c07_metric_harness_fixture():
    from test_evaluation import fixture_records

    detections, gts = fixture_records()
    table = metric_table(record_metrics(match_detections(detections, gts), gts))
    expected = {
        "bowl": [11 / 12, 1 / 2, 11 / 12, 11 / 12, 11 / 12],
        "camera": [1.0, 5 / 9, 5 / 9, 2 / 3, 1 / 3],
    }
    expected_mean = [23 / 24, 19 / 36, 53 / 72, 19 / 24, 5 / 8]
    for category, values in expected.items():
        assert np.allclose(table.row(category), values, atol=1e-12)
    assert np.allclose(table.mean, expected_mean, atol=1e-12)
    assert TABLE_COLUMNS == ("IoU50", "IoU75", "10cm", "10°", "10°10cm")
    header = table.to_text().splitlines()[0]
    assert all(column in header for column in TABLE_COLUMNS)
    _report(
        7,
        "metric harness",
        "10-record fixture reproduces hand-computed mAP exactly; "
        "columns IoU50/IoU75/10cm/10deg/10deg10cm",
    )


def test_c08_scale_algebra():
    rng = np.random.default_rng(801)
    gt = rng.uniform(1e-3, 1e3, size=100_000)
    anchors = rng.uniform(1e-3, 1e3, size=100_000)
    worst = 0.0
    for i in range(100_000):
        stats = CategoryStats("x", anchors[i], 0.0, 1)
        recovered = recover_scale(stats, gt_offset(gt[i], stats)).scale
        worst = max(worst, abs(recovered - gt[i]) / max(1.0, gt[i]))
    assert worst <= 1e-12

    scales = rng.uniform(0.05, 2.0, size=1000)
    stats = compute_stats("bowl", scales)
    mean = sum(scales) / len(scales)
    var = sum((x - mean) ** 2 for x in scales) / len(scales)
    assert abs(stats.mean_scale - mean) < 1e-12
    assert abs(stats.std_dev - math.sqrt(var)) < 1e-12

    hand = compute_stats("mug", [1.0, 3.0])
    assert hand.mean_scale == 2.0
    assert hand.std_dev == 1.0
    _report(
        8,
        "scale algebra",
        f"1e5 round trips worst rel err {worst:.2e}; population sigma([1,3]) = 1.0",
    )


def test_c09_determinism(tmp_path):
    from scalepose.cli import main

    args = [
        "simulate",
        "--categories", "mug", "can",
        "--trials", "3",
        "--depth-noise", "0,0.05",
        "--seed", "0",
        "--output", str(tmp_path / "a.csv"),
    ]
    assert main(args) == 0
    args[-1] = str(tmp_path / "b.csv")
    assert main(args) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a_summary.csv").read_bytes() == (tmp_path / "b_summary.csv").read_bytes()

    pose, pts, pix = make_projected_scene(60, seed=901)
    noise_rng = np.random.default_rng(902)
    noisy = pix.copy()
    idx = noise_rng.choice(60, 18, replace=False)
    noisy[idx] = noise_rng.uniform([0, 0], [640, 480], size=(18, 2))
    cfg = RansacConfig(rng_seed=17)
    a = ransac_pnp(noisy, pts, CAMERA, cfg)
    b = ransac_pnp(noisy, pts, CAMERA, cfg)
    assert np.array_equal(a.pose.rotation, b.pose.rotation)
    assert np.array_equal(a.pose.translation, b.pose.translation)
    assert np.array_equal(a.inlier_mask, b.inlier_mask)
    assert a.mean_reprojection_error == b.mean_reprojection_error
    assert a.iterations_used == b.iterations_used
    _report(9, "determinism", "simulate CSVs byte-identical; ransac bit-identical per seed")


def test_c10_refinement_validity():
    from scalepose.geometry import rotation_from_rotvec

    worst_jac = 0.0
    rng = np.random.default_rng(1001)
    for seed in range(100):
        pose, pts, pix = make_projected_scene(12, seed=70_000 + seed)
        start = RigidPose(
            rotation_about_axis(rng.normal(size=3), rng.uniform(1.0, 8.0))
            @ pose.rotation,
            pose.translation + 0.03 * rng.normal(size=3),
        )
        res0, jac, ok = reprojection_residuals_jacobian(start, pix, pts, CAMERA)

        def residuals(delta):
            rot = rotation_from_rotvec(delta[:3]) @ start.rotation
            cam = pts[ok] @ rot.T + start.translation + delta[3:]
            out = np.empty(2 * cam.shape[0])
            out[0::2] = CAMERA.fx * cam[:, 0] / cam[:, 2] + CAMERA.cx - pix[ok, 0]
            out[1::2] = CAMERA.fy * cam[:, 1] / cam[:, 2] + CAMERA.cy - pix[ok, 1]
            return out

        h = 1e-6
        fd = np.empty_like(jac)
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            fd[:, j] = (residuals(e) - residuals(-e)) / (2 * h)
        worst_jac = max(worst_jac, np.max(np.abs(jac - fd)) / max(1.0, np.abs(jac).max()))
    assert worst_jac < 1e-6

    violations = 0
    for seed in range(50):
        pose, pts, pix = make_projected_scene(25, seed=80_000 + seed)
        noisy = pix + np.random.default_rng(seed).normal(0, 1.0, pix.shape)
        start = RigidPose(
            rotation_about_axis(rng.normal(size=3), 6.0) @ pose.rotation,
            pose.translation + 0.04 * rng.normal(size=3),
        )
        _, info = refine_pnp(start, noisy, pts, CAMERA, full_output=True)
        history = info["cost_history"]
        violations += sum(1 for a, b in zip(history, history[1:]) if b > a + 1e-12)
    assert violations == 0
    _report(
        10,
        "refinement validity",
        f"jacobian vs finite differences: worst rel {worst_jac:.2e}; "
        "cost non-increasing on 50 scenes",
    )
