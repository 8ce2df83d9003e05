import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalepose import synth
from scalepose.boxes import iou3d
from scalepose.errors import ConsensusNotFound, PlacementFailed, UnknownCategory
from scalepose.evaluation import RecordMetrics, metric_table
from scalepose.geometry import rotation_about_axis, rotation_error_deg, rotation_error_symmetric_deg
from scalepose.nocs import bbox_diagonal
from scalepose.pnp import RansacConfig, ransac_pnp
from scalepose.scale import CategoryStats, gt_offset, recover_scale
from scalepose.synth import (
    CATEGORIES,
    DEFAULT_CATEGORY_STATS,
    CorruptedObservations,
    NoiseSpec,
    SyntheticScene,
    corrupt,
    make_canonical_model,
    run_coupled,
    run_decoupled,
    run_grid,
    sample_scene,
    solve_canonical,
)
from oracles import estimate_box, reference_grid
from test_evaluation import reference_ap

IMAGE_BOUNDS = np.array([640.0, 480.0])


def oracle_offset(scene, rel=0.0):
    """The grid's oracle offset: the scene's true scale times ``1 + rel``,
    relative to the category anchor."""
    return gt_offset(scene.scale * (1.0 + rel), DEFAULT_CATEGORY_STATS[scene.category])


def decoupled_metrics(grid):
    """Metric columns of a one-category grid's decoupled results, from the
    IoU and errors each result stores against its own truth (the pairing
    is known by construction, so nothing is matched)."""
    rows = [(r, iou) for r, iou in zip(grid.trials, grid.ious) if r.pipeline == "decoupled"]
    (category,) = {r.category for r, _ in rows}
    return RecordMetrics(
        categories=(category,),
        n_gt=(len(rows),),
        starts=(0, len(rows)),
        iou=np.array([iou for _, iou in rows]),
        rot_err_deg=np.array([r.rotation_error_deg for r, _ in rows]),
        trans_err_cm=np.array([r.translation_error_cm for r, _ in rows]),
    )


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

    def test_unknown_category(self, monkeypatch):
        for call in (lambda: make_canonical_model("teapot", 64), lambda: sample_scene("teapot", 0)):
            with pytest.raises(UnknownCategory):
                call()
        # the grid rejects the name before it samples a first scene
        monkeypatch.setattr(synth, "sample_scene", None)
        with pytest.raises(UnknownCategory):
            run_grid(["mug", "teapot"], [NoiseSpec()], 1)

    def test_minimum_point_count(self):
        with pytest.raises(ValueError):
            make_canonical_model("mug", 16)

    def test_built_once_and_read_only(self):
        model, extents = make_canonical_model("bowl", 96)
        again, again_extents = make_canonical_model("bowl", 96)
        assert again is model and again_extents is extents
        for arr in (model.points, extents):
            with pytest.raises(ValueError):
                arr[0] = 0.0


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
        metric = scene.scale * scene.model.points
        result = ransac_pnp(scene.pixels, metric, scene.intrinsics, RansacConfig(rng_seed=0))
        assert rotation_error_deg(result.pose.rotation, scene.pose.rotation) < 1e-6
        assert np.linalg.norm(result.pose.translation - scene.pose.translation) < 1e-6

    def test_scale_draw_respects_truncation(self, monkeypatch):
        monkeypatch.setitem(DEFAULT_CATEGORY_STATS, "mug", CategoryStats("mug", 0.2, 0.08, 10))
        lows = []
        for seed in range(60):
            scene = sample_scene("mug", seed)
            lows.append(scene.scale)
        assert min(lows) > max(1e-6, 0.2 - 3 * 0.08)

    def test_placement_failure_when_invalid(self, monkeypatch):
        # 4 * 3.0 m of standoff lies beyond Z_MAX, so no depth is valid
        monkeypatch.setitem(DEFAULT_CATEGORY_STATS, "laptop", CategoryStats("laptop", 3.0, 0.0, 1))
        with pytest.raises(PlacementFailed):
            sample_scene("laptop", 0)


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
        out = run_decoupled(scene, solve_canonical(scene, corrupt(scene, NoiseSpec(), 0)), oracle_offset(scene))
        assert out.rotation_error_deg < 0.01
        assert out.translation_error_cm < 0.01
        estimated = estimate_box(out.pose, out.estimated_scale, out.canonical_extents)
        truth = estimate_box(out.gt_pose, out.gt_scale, out.canonical_extents)
        assert iou3d(estimated, truth) > 0.999

    def test_decoupled_rotation_immune_to_scale_offset(self):
        # a scale far from the truth leaves rotation unaffected
        scene = sample_scene("bottle", 22)
        solved = solve_canonical(scene, corrupt(scene, NoiseSpec(), 0))
        for factor in (0.6, 1.0, 1.7):
            out = run_decoupled(scene, solved, oracle_offset(scene, factor - 1.0))
            assert out.rotation_error_deg < 0.01

    def test_decoupled_translation_proportional_to_scale_error(self):
        scene = sample_scene("mug", 23)
        solved = solve_canonical(scene, corrupt(scene, NoiseSpec(), 0))
        t_norm = np.linalg.norm(scene.pose.translation)
        for rel in (-0.2, -0.1, 0.1, 0.2):
            out = run_decoupled(scene, solved, oracle_offset(scene, rel))
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
                run_decoupled(scene, solve_canonical(scene, obs), oracle_offset(scene)).rotation_error_deg
            )
        assert np.median(rot_coupled) > 0.1
        assert np.median(rot_decoupled) < 0.01


class TestCanonicalSolve:
    """The decoupled arm rescales one RANSAC solve of the unit-diagonal
    model instead of solving the model scaled to its recovered size."""

    @settings(max_examples=60, deadline=None)
    @given(
        category=st.sampled_from(CATEGORIES),
        seed=st.integers(0, 2**32 - 1),
        pixel_noise=st.floats(0.3, 1.0),
        outliers=st.floats(0.0, 0.5),
        rel=st.floats(-0.3, 0.5),
    )
    def test_rescaled_solve_matches_a_solve_of_the_scaled_model(self, category, seed, pixel_noise, outliers, rel):
        scene = sample_scene(category, seed, point_count=96)
        obs = corrupt(scene, NoiseSpec(pixel_noise, outliers), seed)
        delta = oracle_offset(scene, rel)
        scale = recover_scale(DEFAULT_CATEGORY_STATS[category], delta)
        metric = scale * scene.model.points
        try:
            canonical = solve_canonical(scene, obs)
        except ConsensusNotFound:
            with pytest.raises(ConsensusNotFound):
                ransac_pnp(obs.pixels, metric, scene.intrinsics)
            return
        fresh = ransac_pnp(obs.pixels, metric, scene.intrinsics)
        assert np.array_equal(canonical.inlier_mask, fresh.inlier_mask)
        assert canonical.iterations_used == fresh.iterations_used

        out = run_decoupled(scene, canonical, delta)
        assert out.estimated_scale == scale
        assert rotation_error_deg(out.pose.rotation, fresh.pose.rotation) <= 1e-5
        t = fresh.pose.translation
        assert np.linalg.norm(out.pose.translation - t) <= 1e-7 * np.linalg.norm(t)

    @settings(max_examples=40, deadline=None)
    @given(
        category=st.sampled_from(CATEGORIES),
        seed=st.integers(0, 2**32 - 1),
        outliers=st.floats(0.0, 0.5),
        depth_noise=st.floats(0.0, 0.1),
        factor=st.floats(0.5, 2.0),
    )
    def test_coupled_rotation_ignores_a_global_depth_scale(self, category, seed, outliers, depth_noise, factor):
        # a global depth factor is a similarity, which Umeyama absorbs: a
        # scale error that only rescales the pseudo-depths tests nothing
        scene = sample_scene(category, seed, point_count=96)
        obs = corrupt(scene, NoiseSpec(0.5, outliers, 0.0, depth_noise), seed)
        scaled = CorruptedObservations(obs.pixels, factor * obs.pseudo_depths, obs.outlier_mask)
        a = run_coupled(scene, obs).pose.rotation
        b = run_coupled(scene, scaled).pose.rotation
        assert rotation_error_deg(a, b) <= 1e-9


class TestGrid:
    def test_category_rows_ignore_the_rest_of_the_grid(self):
        spec = NoiseSpec(0.5, 0.2, 0.1, 0.05)
        alone = run_grid(["mug"], [spec], trials=2, master_seed=6, point_count=64)
        shared = run_grid(
            ["camera", "mug"],
            [NoiseSpec(), spec, NoiseSpec(1.0, 0.0, -0.1, 0.0)],
            trials=2,
            master_seed=6,
            point_count=64,
        )
        key = ["mug"] + [repr(v) for v in (0.5, 0.2, 0.1, 0.05)]

        def rows(text):
            return [line for line in text.splitlines() if [line.split(",")[0]] + line.split(",")[2:6] == key]

        assert len(rows(alone.trials_csv())) == 4
        assert rows(alone.trials_csv()) == rows(shared.trials_csv())
        assert len(rows(alone.summary_csv())) == 2
        assert rows(alone.summary_csv()) == rows(shared.summary_csv())

    def test_cells_share_each_trial_scene(self):
        specs = [NoiseSpec(), NoiseSpec(1.0, 0.2, 0.3, 0.1), NoiseSpec(0.0, 0.0, -0.2, 0.0)]
        grid = run_grid(["camera", "mug"], specs, trials=3, master_seed=2, point_count=64)
        scenes = {}
        for r in grid.trials:
            scenes.setdefault((r.category, r.trial), set()).add(
                (r.gt_scale, r.gt_pose.rotation.tobytes(), r.gt_pose.translation.tobytes())
            )
        assert len(scenes) == 6
        assert all(len(seen) == 1 for seen in scenes.values())

    @pytest.mark.parametrize(
        "categories, specs",
        [
            (["mug", "camera", "mug"], [NoiseSpec()]),
            (["mug"], [NoiseSpec(0.5), NoiseSpec(), NoiseSpec(0.5)]),
        ],
        ids=["category", "noise-spec"],
    )
    def test_rejects_repeated_cells(self, monkeypatch, categories, specs):
        # repeated cells would be identical copies that the summary merges
        # into one cell counting each trial twice
        monkeypatch.setattr(synth, "sample_scene", None)
        with pytest.raises(ValueError, match="must not repeat"):
            run_grid(categories, specs, trials=1)

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
        table = metric_table(decoupled_metrics(grid))
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

        kwargs = dict(trials=12, master_seed=11)
        tables = {}
        for kind in ("mean", "oracle"):
            grid = run_grid(["mug"], [NoiseSpec()], predictor_kind=kind, **kwargs)
            tables[kind] = metric_table(decoupled_metrics(grid))
        cols_mean = dict(zip(TABLE_COLUMNS, tables["mean"].mean))
        cols_oracle = dict(zip(TABLE_COLUMNS, tables["oracle"].mean))
        assert cols_mean["10°"] == cols_oracle["10°"] == 1.0
        assert cols_oracle["IoU75"] == 1.0
        assert cols_oracle["IoU75"] > cols_mean["IoU75"]

    # Every axis draws from the same levels, so cells repeat a value across
    # different axes as well as along one.
    @settings(max_examples=25, deadline=None)
    @given(
        categories=st.lists(st.sampled_from(("can", "mug")), min_size=1, max_size=2, unique=True),
        levels=st.lists(st.tuples(*[st.sampled_from((0.0, 0.1, 0.2))] * 4), min_size=1, max_size=5, unique=True),
        trials=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        predictor_kind=st.sampled_from(("oracle", "mean")),
    )
    @example(["can", "mug"], [(0.1, 0.1, 0.1, 0.1), (0.1, 0.1, 0.0, 0.1), (0.1, 0.1, 0.1, 0.0)], 2, 0, "mean")
    @example(["mug"], [(0.0, 0.2, 0.1, 0.0), (0.0, 0.2, 0.0, 0.1), (0.2, 0.0, 0.1, 0.0)], 3, 1, "oracle")
    def test_shared_rows_match_the_per_cell_loop(self, categories, levels, trials, seed, predictor_kind):
        specs = [NoiseSpec(*spec) for spec in levels]
        kwargs = dict(master_seed=seed, point_count=32, predictor_kind=predictor_kind)
        grid = run_grid(categories, specs, trials, **kwargs)
        reference = reference_grid(categories, specs, trials, **kwargs)
        assert grid.trials_csv() == reference.trials_csv()
        assert grid.summary_csv() == reference.summary_csv()

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
        bad = {
            "pixel_noise_sigma": (math.nan, math.inf),
            "outlier_fraction": (math.nan,),
            "scale_rel_error": (-1.0, -2.0, math.nan, math.inf, -math.inf),
            "depth_rel_noise": (math.nan, math.inf),
        }
        for name, values in bad.items():
            for value in values:
                with pytest.raises(ValueError, match=name):
                    NoiseSpec(**{name: value})
        NoiseSpec(scale_rel_error=-0.5)
