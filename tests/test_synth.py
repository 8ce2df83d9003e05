import csv
import io

import numpy as np
import pytest

from scalepose.errors import PlacementFailed, UnknownCategory
from scalepose.evaluation import metric_table, record_metrics
from scalepose.geometry import rotation_about_axis, rotation_error_symmetric_deg
from scalepose.nocs import bbox_diagonal
from scalepose.pnp import RansacConfig, ransac_pnp, scale_model_points
from scalepose.scale import CategoryStats, MeanScalePredictor, OraclePredictor
from scalepose.synth import (
    CATEGORIES,
    DEFAULT_CATEGORY_STATS,
    NoiseSpec,
    PoseRanges,
    SyntheticScene,
    corrupt,
    make_canonical_model,
    run_coupled,
    run_decoupled,
    run_grid,
    sample_scene,
)
from test_evaluation import reference_ap

IMAGE_BOUNDS = np.array([640.0, 480.0])


class TestCanonicalModels:
    @pytest.mark.parametrize("category", CATEGORIES)
    def test_prior_invariants(self, category):
        model, extents = make_canonical_model(category, 192)
        assert abs(bbox_diagonal(model.points) - 1.0) < 1e-9
        assert np.max(np.abs(model.points.mean(axis=0))) < 1e-9
        assert abs(np.linalg.norm(extents) - 1.0) < 1e-9
        assert len(model) >= 100

    @pytest.mark.parametrize("category", CATEGORIES)
    def test_deterministic(self, category):
        a, ea = make_canonical_model(category, 128)
        b, eb = make_canonical_model(category, 128)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(ea, eb)

    @pytest.mark.parametrize("category", ["bottle", "can"])
    def test_cylinder_categories_rotationally_symmetric(self, category):
        # a 30 degree spin about y maps the set near itself
        model, _ = make_canonical_model(category, 256)
        pts = model.points
        spun = pts @ rotation_about_axis([0, 1, 0], 30.0).T
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        spacing = np.sqrt(d2.min(axis=1)).mean()
        nn = np.sqrt(np.min(np.sum((spun[:, None, :] - pts[None, :, :]) ** 2, axis=2), axis=1))
        assert nn.max() < 2.0 * spacing

    def test_unknown_category(self):
        with pytest.raises(UnknownCategory):
            make_canonical_model("teapot", 64)

    def test_minimum_point_count(self):
        with pytest.raises(ValueError):
            make_canonical_model("mug", 16)


class TestSampleScene:
    def test_deterministic(self):
        a = sample_scene("bowl", 3)
        b = sample_scene("bowl", 3)
        assert np.array_equal(a.pixels, b.pixels)
        assert np.array_equal(a.pose.rotation, b.pose.rotation)
        assert a.scale == b.scale

    def test_projections_inside_frame(self):
        for seed in range(10):
            scene = sample_scene("laptop", seed)
            assert np.all(scene.pixels >= 0)
            assert np.all(scene.pixels <= IMAGE_BOUNDS)
            assert np.all(scene.depths > 0)

    def test_self_consistency_with_solver(self):
        # clean observations plus the true scale reproduce the gt pose
        from scalepose.geometry import rotation_error_deg

        scene = sample_scene("camera", 11)
        metric = scale_model_points(scene.scale, scene.model.points)
        result = ransac_pnp(scene.pixels, metric, scene.intrinsics, RansacConfig(rng_seed=0))
        assert rotation_error_deg(result.pose.rotation, scene.pose.rotation) < 1e-6
        assert np.linalg.norm(result.pose.translation - scene.pose.translation) < 1e-6

    def test_scale_draw_respects_truncation(self):
        stats = CategoryStats("mug", 0.2, 0.08, 10)
        lows = []
        for seed in range(60):
            scene = sample_scene("mug", seed, scale_stats=stats)
            lows.append(scene.scale)
        assert min(lows) > max(1e-6, 0.2 - 3 * 0.08)

    def test_placement_failure_when_invalid(self):
        ranges = PoseRanges(z_min=0.1, z_max=0.15, margin_px=5.0)
        stats = CategoryStats("laptop", 3.0, 0.0, 1)  # object larger than the window allows
        with pytest.raises(PlacementFailed):
            sample_scene("laptop", 0, pose_ranges=ranges, scale_stats=stats)


def _hand_scene(n=1000, seed=0):
    """Scene stub with many points for statistical checks on corrupt()."""
    rng = np.random.default_rng(seed)
    model, extents = make_canonical_model("camera", 64)
    pix = rng.uniform([50, 50], [590, 430], size=(n, 2))
    depths = rng.uniform(0.8, 1.8, size=n)
    from scalepose.geometry import RigidPose
    from scalepose.synth import DEFAULT_INTRINSICS

    return SyntheticScene(
        category="camera",
        pose=RigidPose(np.eye(3), [0.0, 0.0, 1.0]),
        scale=0.2,
        model=model,
        canonical_extents=extents,
        intrinsics=DEFAULT_INTRINSICS,
        pixels=pix,
        depths=depths,
    )


class TestCorrupt:
    def test_zero_spec_is_identity(self):
        scene = _hand_scene(200)
        out = corrupt(scene, NoiseSpec(), seed=1)
        assert np.array_equal(out.pixels, scene.pixels)
        assert np.array_equal(out.pseudo_depths, scene.depths)
        assert not out.outlier_mask.any()

    def test_exact_outlier_count(self):
        scene = _hand_scene(100)
        out = corrupt(scene, NoiseSpec(outlier_fraction=0.3), seed=2)
        assert int(out.outlier_mask.sum()) == 30
        changed = np.any(out.pixels != scene.pixels, axis=1)
        assert np.array_equal(changed, out.outlier_mask)

    def test_floor_rounding(self):
        scene = _hand_scene(10)
        out = corrupt(scene, NoiseSpec(outlier_fraction=0.35), seed=3)
        assert int(out.outlier_mask.sum()) == 3

    def test_empirical_pixel_noise_sigma(self):
        scene = _hand_scene(100_000)
        out = corrupt(scene, NoiseSpec(pixel_noise_sigma=1.5), seed=4)
        residual = (out.pixels - scene.pixels).ravel()
        assert abs(residual.std() - 1.5) < 0.05 * 1.5

    def test_empirical_depth_noise_sigma(self):
        scene = _hand_scene(100_000)
        out = corrupt(scene, NoiseSpec(depth_rel_noise=0.05), seed=5)
        rel = out.pseudo_depths / scene.depths - 1.0
        assert abs(rel.std() - 0.05) < 0.05 * 0.05

    def test_deterministic(self):
        scene = _hand_scene(500)
        spec = NoiseSpec(pixel_noise_sigma=0.5, outlier_fraction=0.2, depth_rel_noise=0.05)
        a = corrupt(scene, spec, seed=6)
        b = corrupt(scene, spec, seed=6)
        assert np.array_equal(a.pixels, b.pixels)
        assert np.array_equal(a.pseudo_depths, b.pseudo_depths)
        assert np.array_equal(a.outlier_mask, b.outlier_mask)

    def test_channels_independent(self):
        # changing depth noise must not change pixels or outliers
        scene = _hand_scene(500)
        a = corrupt(scene, NoiseSpec(pixel_noise_sigma=0.5, depth_rel_noise=0.0), seed=7)
        b = corrupt(scene, NoiseSpec(pixel_noise_sigma=0.5, depth_rel_noise=0.1), seed=7)
        assert np.array_equal(a.pixels, b.pixels)
        assert np.array_equal(a.outlier_mask, b.outlier_mask)


class TestPipelines:
    def test_decoupled_exact_with_oracle(self):
        scene = sample_scene("can", 21)
        out = run_decoupled(scene, corrupt(scene, NoiseSpec(), 0), OraclePredictor())
        assert out.rotation_error_deg < 0.01
        assert out.translation_error_cm < 0.01
        assert out.iou > 0.999

    def test_decoupled_rotation_immune_to_scale_offset(self):
        # mean-scale predictor with a far-off anchor: rotation unaffected
        scene = sample_scene("bottle", 22)
        obs = corrupt(scene, NoiseSpec(), 0)
        for anchor in (0.6 * scene.scale, scene.scale, 1.7 * scene.scale):
            stats = CategoryStats("bottle", anchor, 0.0, 1)
            out = run_decoupled(scene, obs, MeanScalePredictor(), stats=stats)
            assert out.rotation_error_deg < 0.01

    def test_decoupled_translation_proportional_to_scale_error(self):
        scene = sample_scene("mug", 23)
        obs = corrupt(scene, NoiseSpec(), 0)
        t_norm = np.linalg.norm(scene.pose.translation)
        for rel in (-0.2, -0.1, 0.1, 0.2):
            out = run_decoupled(scene, obs, OraclePredictor(rel_error=rel))
            expected = abs(rel) * t_norm * 100.0
            assert out.translation_error_cm == pytest.approx(expected, rel=0.1)

    def test_coupled_exact_without_depth_noise(self):
        scene = sample_scene("bowl", 24)
        out = run_coupled(scene, corrupt(scene, NoiseSpec(), 0))
        assert out.rotation_error_deg < 1e-6
        assert out.translation_error_cm < 1e-6
        assert abs(out.estimated_scale - scene.scale) < 1e-6

    def test_coupled_degrades_and_decoupled_does_not(self):
        rot_coupled, rot_decoupled = [], []
        for seed in range(20):
            scene = sample_scene("camera", 400 + seed)
            obs = corrupt(scene, NoiseSpec(depth_rel_noise=0.05), seed=seed)
            rot_coupled.append(run_coupled(scene, obs).rotation_error_deg)
            rot_decoupled.append(
                run_decoupled(scene, obs, OraclePredictor()).rotation_error_deg
            )
        assert np.median(rot_coupled) > 0.1
        assert np.median(rot_decoupled) < 0.01


class TestGrid:
    def test_deterministic_csv(self):
        specs = [NoiseSpec(), NoiseSpec(depth_rel_noise=0.05)]
        a = run_grid(["mug"], specs, trials=2, master_seed=0)
        b = run_grid(["mug"], specs, trials=2, master_seed=0)
        assert a.trials_csv() == b.trials_csv()
        assert a.summary_csv() == b.summary_csv()

    def test_different_seed_differs(self):
        specs = [NoiseSpec(depth_rel_noise=0.05)]
        a = run_grid(["mug"], specs, trials=2, master_seed=0)
        b = run_grid(["mug"], specs, trials=2, master_seed=1)
        assert a.trials_csv() != b.trials_csv()

    def test_full_factorial_layout(self):
        specs = [NoiseSpec(), NoiseSpec(pixel_noise_sigma=0.5)]
        grid = run_grid(["mug", "can"], specs, trials=3, master_seed=2)
        assert len(grid.trials) == 2 * 2 * 3 * 2  # categories x specs x trials x pipelines
        assert {r.pipeline for r in grid.trials} == {"decoupled", "coupled"}

    def test_records_feed_metric_table(self):
        grid = run_grid(["mug"], [NoiseSpec()], trials=3, master_seed=3)
        detections, gts = grid.to_records("decoupled")
        table = metric_table(record_metrics(detections, gts))
        assert np.allclose(table.values, 1.0)  # clean scenes solve exactly

    def test_summary_contains_ap_columns(self):
        grid = run_grid(["can"], [NoiseSpec()], trials=2, master_seed=4)
        header = grid.summary_csv().splitlines()[0]
        for column in ("IoU50", "IoU75", "10cm", "10deg", "10deg10cm"):
            assert column in header

    def test_symmetric_summary_recomputable_from_trials(self):
        # can is symmetric about y: the trials rows, the error medians and the
        # 10° AP must all use the same, symmetry-aware, rotation error
        grid = run_grid(["can"], [NoiseSpec(0.5, 0, 0, 0.1)], trials=8)
        for r in grid.trials:
            assert r.rotation_error_deg == rotation_error_symmetric_deg(
                r.pose.rotation, r.gt_pose.rotation, [0.0, 1.0, 0.0]
            )
        trials = list(csv.DictReader(io.StringIO(grid.trials_csv())))
        for row in csv.DictReader(io.StringIO(grid.summary_csv())):
            rot = [float(t["rotation_error_deg"]) for t in trials if t["pipeline"] == row["pipeline"]]
            assert float(row["median_rotation_error_deg"]) == np.median(rot)
            assert float(row["mean_rotation_error_deg"]) == np.mean(rot)
            hits = [r <= 10.0 for r in rot]
            assert float(row["10deg"]) == reference_ap([1.0] * len(rot), hits, len(rot))

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_grid(["mug"], [NoiseSpec()], trials=0)

    def test_mean_scale_ablation_structure(self):
        # anchor-only vs offset-informed scale on clean pixels: rotation
        # metrics tie while the offset arm wins the size-sensitive columns
        from scalepose.evaluation import TABLE_COLUMNS

        stats = {"mug": CategoryStats("mug", 0.14, 0.028, 100)}  # wide scale spread
        kwargs = dict(trials=12, master_seed=11, stats_by_category=stats)
        tables = {}
        for kind in ("mean", "oracle"):
            grid = run_grid(["mug"], [NoiseSpec()], predictor_kind=kind, **kwargs)
            detections, gts = grid.to_records("decoupled")
            tables[kind] = metric_table(record_metrics(detections, gts))
        cols_mean = dict(zip(TABLE_COLUMNS, tables["mean"].mean))
        cols_oracle = dict(zip(TABLE_COLUMNS, tables["oracle"].mean))
        assert cols_mean["10°"] == cols_oracle["10°"] == 1.0
        assert cols_oracle["IoU75"] == 1.0
        assert cols_oracle["IoU75"] > cols_mean["IoU75"]

    def test_unknown_predictor_kind(self):
        with pytest.raises(ValueError):
            run_grid(["mug"], [NoiseSpec()], trials=1, predictor_kind="transformer")


class TestDefaults:
    def test_stats_cover_all_categories(self):
        assert set(DEFAULT_CATEGORY_STATS) == set(CATEGORIES)

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(pixel_noise_sigma=-1.0)
        with pytest.raises(ValueError):
            NoiseSpec(outlier_fraction=1.0)
