"""End-to-end CLI behavior: file contracts, exit codes, idempotence."""

import argparse
import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import scalepose
import writers
from scalepose import cli, errors, fileio
from scalepose.cli import build_parser, main
from scalepose.evaluation import DetectionRecord, GroundTruthBox
from scalepose.geometry import rotation_error_deg
from scalepose.pnp import RansacConfig
from scalepose.scale import CategoryStats
from scalepose.synth import NoiseSpec, corrupt, run_grid, sample_scene
from test_golden import EVALUATE_FILES, GOLDEN, SIMULATE_ARGS, evaluate_args


@pytest.fixture
def solve_fixture(tmp_path):
    scene = sample_scene("laptop", rng_seed=5)
    corr = tmp_path / "corr.json"
    intr = tmp_path / "intrinsics.json"
    stats = tmp_path / "stats.json"
    writers.save_correspondences(scene.pixels, scene.model.points, str(corr))
    writers.save_intrinsics(scene.intrinsics, str(intr))
    fileio.save_stats([CategoryStats("laptop", scene.scale, 0.01, 5)], str(stats))
    return scene, corr, intr, stats


class TestSolve:
    def test_recovers_fixture_pose(self, tmp_path, solve_fixture):
        scene, corr, intr, stats = solve_fixture
        out = tmp_path / "pose.json"
        rc = main(
            [
                "solve",
                "--correspondences", str(corr),
                "--intrinsics", str(intr),
                "--stats", str(stats),
                "--category", "laptop",
                "--delta", "0.0",
                "--output", str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        rot = np.asarray(payload["pose"]["rotation"]).reshape(3, 3)
        assert rotation_error_deg(rot, scene.pose.rotation) < 1e-6
        trans = np.asarray(payload["pose"]["translation"])
        assert np.linalg.norm(trans - scene.pose.translation) < 1e-6
        assert payload["scale"] == pytest.approx(scene.scale)
        assert payload["inlier_count"] == len(scene.pixels)
        assert payload["rng_seed"] == 0
        assert payload["stop_reason"] == "confidence"
        rejected = payload["rejected_degenerate"] + payload["rejected_no_solution"]
        assert 0 <= rejected <= payload["iterations_used"]

    def test_missing_file_exits_one(self, tmp_path, solve_fixture, capsys):
        _, _, intr, _ = solve_fixture
        rc = main(
            [
                "solve",
                "--correspondences", str(tmp_path / "absent.json"),
                "--intrinsics", str(intr),
                "--output", str(tmp_path / "o.json"),
            ]
        )
        assert rc == 1
        assert "absent.json" in capsys.readouterr().err

    def test_three_points_exits_two(self, tmp_path, solve_fixture, capsys):
        scene, _, intr, _ = solve_fixture
        corr3 = tmp_path / "c3.json"
        writers.save_correspondences(scene.pixels[:3], scene.model.points[:3], str(corr3))
        rc = main(
            [
                "solve",
                "--correspondences", str(corr3),
                "--intrinsics", str(intr),
                "--scale", "0.4",
                "--output", str(tmp_path / "o.json"),
            ]
        )
        assert rc == 2
        assert "InsufficientCorrespondences" in capsys.readouterr().err

    def test_matrix_route(self, tmp_path, solve_fixture):
        # one-hot matrix reproduces the direct correspondence solve
        scene, corr, intr, stats = solve_fixture
        n = len(scene.model)
        model_path = tmp_path / "model.json"
        writers.save_nocs_model(scene.model, str(model_path), category="laptop")
        matrix_path = tmp_path / "c.json"
        triplets = [[i, i, 1.0] for i in range(n)]
        fileio.dump_json({"rows": n, "cols": n, "triplets": triplets}, str(matrix_path))
        out = tmp_path / "pose_matrix.json"
        rc = main(
            [
                "solve",
                "--correspondences", str(corr),
                "--intrinsics", str(intr),
                "--stats", str(stats),
                "--category", "laptop",
                "--model", str(model_path),
                "--matrix", str(matrix_path),
                "--output", str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        rot = np.asarray(payload["pose"]["rotation"]).reshape(3, 3)
        assert rotation_error_deg(rot, scene.pose.rotation) < 1e-6

    def test_idempotent_output(self, tmp_path, solve_fixture):
        scene, corr, intr, stats = solve_fixture
        args = [
            "solve",
            "--correspondences", str(corr),
            "--intrinsics", str(intr),
            "--scale", f"{scene.scale!r}",
            "--output", str(tmp_path / "a.json"),
        ]
        assert main(args) == 0
        first = (tmp_path / "a.json").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "a.json").read_bytes() == first

    def test_usage_error_exits_one(self, capsys):
        assert main(["solve", "--no-such-flag"]) == 1

    def test_non_finite_values_exit_one(self, tmp_path, solve_fixture, capsys):
        _, _, intr, _ = solve_fixture
        bad = tmp_path / "nan.json"
        bad.write_text(
            json.dumps(
                [{"image": [float("nan"), 1.0], "model": [0.0, 0.0, 0.0]}] * 4
            )
        )
        rc = main(
            [
                "solve",
                "--correspondences", str(bad),
                "--intrinsics", str(intr),
                "--scale", "1.0",
                "--output", str(tmp_path / "o.json"),
            ]
        )
        assert rc == 1
        assert "non-finite" in capsys.readouterr().err

    def test_scale_moves_only_the_translation(self, tmp_path):
        # the pose is solved on the canonical model and only its translation
        # is multiplied by the scale, so no scale reaches the rotation, the
        # consensus or the iteration count
        scene = sample_scene("mug", rng_seed=3)
        obs = corrupt(scene, NoiseSpec(pixel_noise_sigma=1.0, outlier_fraction=0.3), 3)
        corr, intr, stats = tmp_path / "corr.json", tmp_path / "intr.json", tmp_path / "stats.json"
        writers.save_correspondences(obs.pixels, scene.model.points, str(corr))
        writers.save_intrinsics(scene.intrinsics, str(intr))
        fileio.save_stats([CategoryStats("mug", scene.scale, 0.01, 5)], str(stats))

        def solve(*flags):
            out = tmp_path / "pose.json"
            argv = ["solve", "--correspondences", str(corr), "--intrinsics", str(intr), "--output", str(out)]
            assert main(argv + list(flags)) == 0
            return json.loads(out.read_text())

        base = solve()
        assert base["scale"] == 1.0
        runs = [solve("--stats", str(stats), "--category", "mug", "--delta", repr(d)) for d in (-0.3, 0.1, 1.0, 3.0)]
        runs.append(solve("--scale", "0.37"))
        for run in runs:
            assert run["scale"] != 1.0
            for key in ("inlier_mask", "iterations_used", "mean_reprojection_error"):
                assert run[key] == base[key]
            assert run["pose"]["rotation"] == base["pose"]["rotation"]
            expected = run["scale"] * np.asarray(base["pose"]["translation"])
            assert run["pose"]["translation"] == expected.tolist()


class TestEvaluate:
    @pytest.fixture
    def records(self, tmp_path):
        grid = run_grid(["mug", "can"], [NoiseSpec()], trials=2, master_seed=7)
        rows = [r for r in grid.trials if r.pipeline == "decoupled"]
        detections = [
            DetectionRecord(r.category, 1.0, r.pose, r.estimated_scale, r.canonical_extents) for r in rows
        ]
        gts = [GroundTruthBox(r.category, r.gt_pose, r.gt_scale, r.canonical_extents) for r in rows]
        pred = tmp_path / "pred.jsonl"
        gt = tmp_path / "gt.jsonl"
        pred.write_text(writers.detections_jsonl(detections))
        gt.write_text(writers.ground_truths_jsonl(gts))
        return pred, gt

    def test_perfect_predictions_all_hundred(self, tmp_path, records, capsys):
        pred, gt = records
        out = tmp_path / "report"
        rc = main(
            ["evaluate", "--predictions", str(pred), "--ground-truth", str(gt), "--output-dir", str(out)]
        )
        assert rc == 0
        text = (out / "metrics.txt").read_text(encoding="utf-8")
        assert "100.0" in text
        assert "rotation error: symmetry-aware" in text
        header = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "category,IoU50,IoU75,10cm,10°,10°10cm"
        for metric in ("iou", "rotation_deg", "translation_cm"):
            assert (out / f"curve_{metric}.csv").exists()

    def test_symmetry_off_labeled(self, tmp_path, records):
        pred, gt = records
        out = tmp_path / "raw"
        rc = main(
            [
                "evaluate",
                "--predictions", str(pred),
                "--ground-truth", str(gt),
                "--output-dir", str(out),
                "--symmetry", "off",
            ]
        )
        assert rc == 0
        assert "raw geodesic" in (out / "metrics.txt").read_text(encoding="utf-8")

    def test_schema_error_reports_line(self, tmp_path, records, capsys):
        pred, gt = records
        bad = tmp_path / "bad.jsonl"
        lines = pred.read_text().splitlines()
        lines[1] = '{"category": "mug"}'
        bad.write_text("\n".join(lines) + "\n")
        rc = main(
            ["evaluate", "--predictions", str(bad), "--ground-truth", str(gt), "--output-dir", str(tmp_path / "r")]
        )
        assert rc == 1
        assert ":2" in capsys.readouterr().err

    def test_unmatched_category_warns(self, tmp_path, records, capsys):
        pred, gt = records
        extra = tmp_path / "extra.jsonl"
        line = json.dumps(
            {
                "category": "teapot",
                "confidence": 1.0,
                "pose": {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, 1]},
                "scale": 0.2,
                "canonical_extents": [0.6, 0.6, 0.52915026221291805],
            }
        )
        extra.write_text(pred.read_text() + line + "\n")
        rc = main(
            ["evaluate", "--predictions", str(extra), "--ground-truth", str(gt), "--output-dir", str(tmp_path / "r2")]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "teapot" in err and "omitted" in err

    @pytest.mark.parametrize(
        "flag, grid", [("--rotation-grid", "5,1"), ("--iou-grid", "nan"), ("--translation-grid", "1,inf")]
    )
    def test_bad_grid_writes_no_report(self, tmp_path, records, capsys, flag, grid):
        pred, gt = records
        out = tmp_path / "report"
        out.mkdir()
        args = ["evaluate", "--predictions", str(pred), "--ground-truth", str(gt), "--output-dir", str(out)]
        assert main(args + [flag, grid]) == 1
        assert "threshold grid must be" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_idempotent_reports(self, tmp_path, records):
        pred, gt = records
        out = tmp_path / "rep"
        args = ["evaluate", "--predictions", str(pred), "--ground-truth", str(gt), "--output-dir", str(out)]
        assert main(args) == 0
        blobs = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(args) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == blobs


class TestSimulate:
    def test_deterministic_and_summary(self, tmp_path, capsys):
        args = [
            "simulate",
            "--categories", "mug",
            "--trials", "2",
            "--depth-noise", "0,0.05",
            "--seed", "0",
            "--output", str(tmp_path / "exp.csv"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "decoupled" in out and "coupled" in out
        first = (tmp_path / "exp.csv").read_bytes()
        first_summary = (tmp_path / "exp_summary.csv").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "exp.csv").read_bytes() == first
        assert (tmp_path / "exp_summary.csv").read_bytes() == first_summary

    def test_zero_trials_exits_one(self, tmp_path):
        rc = main(
            ["simulate", "--trials", "0", "--output", str(tmp_path / "x.csv")]
        )
        assert rc == 1

    def test_unknown_category_exits_one(self, tmp_path, capsys):
        rc = main(
            ["simulate", "--categories", "spoon", "--trials", "1", "--output", str(tmp_path / "x.csv")]
        )
        assert rc == 1
        assert "spoon" in capsys.readouterr().err

    def test_config_file_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "categories": ["can"],
                    "trials": 1,
                    "depth_noise": [0.0],
                    "output": str(tmp_path / "from_config.csv"),
                }
            )
        )
        rc = main(["simulate", "--config", str(cfg)])
        assert rc == 0
        content = (tmp_path / "from_config.csv").read_text()
        assert "can,decoupled" in content

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"speed": "fast"}))
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "speed" in capsys.readouterr().err

    def test_env_var_default_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCALEPOSE_OUT_DIR", str(tmp_path / "envout"))
        rc = main(["simulate", "--categories", "mug", "--trials", "1", "--depth-noise", "0"])
        assert rc == 0
        assert (tmp_path / "envout" / "experiment.csv").exists()
        assert (tmp_path / "envout" / "experiment_summary.csv").exists()


class TestStats:
    def test_two_value_example(self, tmp_path):
        scales = tmp_path / "scales.jsonl"
        scales.write_text('{"category": "mug", "scale": 1.0}\n{"category": "mug", "scale": 3.0}\n')
        out = tmp_path / "stats.json"
        rc = main(["stats", "--input", str(scales), "--output", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data == [{"category": "mug", "mean_scale": 2.0, "std_dev": 1.0, "count": 2}]

    def test_categories_sorted(self, tmp_path):
        scales = tmp_path / "scales.jsonl"
        scales.write_text(
            '{"category": "mug", "scale": 1.0}\n'
            '{"category": "bottle", "scale": 0.3}\n'
            '{"category": "mug", "scale": 1.2}\n'
        )
        out = tmp_path / "stats.json"
        csv = tmp_path / "sigma.csv"
        rc = main(["stats", "--input", str(scales), "--output", str(out), "--csv", str(csv)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert [d["category"] for d in data] == ["bottle", "mug"]
        lines = csv.read_text().splitlines()
        assert lines[0] == "category,std_dev"
        assert lines[1].startswith("bottle,")

    def test_matches_compute_stats_oracle(self, tmp_path):
        from scalepose.scale import compute_stats
        from scalepose.synth import CATEGORIES

        rng = np.random.default_rng(8)
        rows = []
        expected = {}
        for cat in CATEGORIES:
            values = rng.uniform(0.05, 0.6, size=rng.integers(3, 12)).tolist()
            expected[cat] = compute_stats(cat, values)
            rows += [json.dumps({"category": cat, "scale": v}) for v in values]
        scales = tmp_path / "scales.jsonl"
        scales.write_text("\n".join(rows) + "\n")
        out = tmp_path / "stats.json"
        assert main(["stats", "--input", str(scales), "--output", str(out)]) == 0
        loaded = fileio.load_stats(str(out))
        for cat, stats in expected.items():
            assert loaded[cat] == stats

    def test_non_positive_scale_reports_line(self, tmp_path, capsys):
        scales = tmp_path / "scales.jsonl"
        scales.write_text('{"category": "mug", "scale": 1.0}\n{"category": "mug", "scale": -2.0}\n')
        rc = main(["stats", "--input", str(scales), "--output", str(tmp_path / "o.json")])
        assert rc == 1
        assert ":2" in capsys.readouterr().err


def test_csv_reports_read_back_with_comma_and_quote_in_category(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    category = 'mug,"large"'
    listing = [{"category": category, "scale": 0.1}, {"category": category, "scale": 0.2},
               {"category": "can", "scale": 0.3}]
    (tmp_path / "in.jsonl").write_text("".join(json.dumps(r) + "\n" for r in listing))
    assert main(["stats", "--input", "in.jsonl", "--output", "s.json", "--csv", "sigma.csv"]) == 0
    truth = {**GROUND_TRUTH, "category": category}
    (tmp_path / "g.jsonl").write_text(json.dumps(truth) + "\n")
    (tmp_path / "p.jsonl").write_text(json.dumps({**truth, "confidence": 0.9}) + "\n")
    assert main(EVALUATE) == 0
    reports = ["sigma.csv", *(f"out/{name}" for name in ("metrics.csv", "curve_iou.csv"))]
    for name in reports:
        with open(tmp_path / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows), name
        assert category in [row[0] for row in rows] + rows[0], name


CORRESPONDENCES = [{"image": [320.0, 240.0], "model": [0.0, 0.0, 0.0]}] * 4
INTRINSICS = {"fx": 577.5, "fy": 577.5, "cx": 319.5, "cy": 239.5}
SOLVE = ["solve", "--correspondences", "c.json", "--intrinsics", "k.json", "--output", "o.json"]
GROUND_TRUTH = {
    "category": "mug",
    "pose": {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, 1]},
    "scale": 0.2,
    "canonical_extents": [0.5, 0.5, 0.5],
}
SIMULATE = ["simulate", "--categories", "mug", "--trials", "1", "--points", "32"]
EVALUATE = ["evaluate", "--predictions", "p.jsonl", "--ground-truth", "g.jsonl", "--output-dir", "out"]
MUG_STATS = {"category": "mug", "mean_scale": 0.14, "std_dev": 0.015, "count": 100}
SOLVE_MUG = SOLVE + ["--stats", "s.json", "--category", "mug"]


@pytest.mark.parametrize(
    "files, argv, error",
    [
        pytest.param(
            {"c.json": [{"image": 5, "model": [0, 0, 0]}], "k.json": INTRINSICS},
            SOLVE, "error: c.json: ", id="image-not-a-list",
        ),
        pytest.param(
            {"c.json": CORRESPONDENCES, "k.json": {**INTRINSICS, "fx": [1]}},
            SOLVE, "error: k.json: ", id="focal-not-a-number",
        ),
        pytest.param(
            {"c.json": CORRESPONDENCES, "k.json": {**INTRINSICS, "cx": float("inf")}},
            SOLVE, "error: k.json: ", id="principal-point-infinite",
        ),
        pytest.param(
            {"c.json": CORRESPONDENCES, "k.json": INTRINSICS, "m.json": {"rows": [1], "cols": 4}},
            SOLVE + ["--model", "m.json", "--matrix", "m.json"], "error: m.json: ",
            id="matrix-rows-not-a-number",
        ),
        pytest.param(
            {"s.json": {"trials": "3"}}, ["simulate", "--config", "s.json"], "error: s.json: ",
            id="trials-not-an-integer",
        ),
        pytest.param(
            {"s.json": {"pixel_noise": 0.5}}, ["simulate", "--config", "s.json"], "error: s.json: ",
            id="noise-not-a-list",
        ),
        pytest.param(
            {}, ["simulate", "--categories", "mug", "--trials", "1", "--pixel-noise", ","],
            "error: argument --pixel-noise: ", id="empty-noise-axis",
        ),
        pytest.param(
            {}, SIMULATE + ["--pixel-noise", "abc"],
            "error: argument --pixel-noise: expected one or more comma-separated floats, got 'abc'",
            id="noise-not-a-number",
        ),
        pytest.param(
            {"c.json": CORRESPONDENCES, "k.json": INTRINSICS}, SOLVE + ["--threshold", "inf"],
            "error: reprojection_threshold must be finite", id="threshold-infinite",
        ),
        pytest.param(
            {"c.json": CORRESPONDENCES, "k.json": INTRINSICS}, SOLVE + ["--seed", "-1"],
            "error: rng_seed must be a non-negative integer", id="solve-seed-negative",
        ),
        pytest.param(
            {}, ["simulate", "--categories", "mug", "--trials", "1", "--seed", "-1"],
            "error: master_seed must be a non-negative integer", id="simulate-seed-negative",
        ),
        pytest.param(
            {}, ["simulate", "--categories", "mug", "mug", "--trials", "1", "--points", "32"],
            "error: categories must not repeat", id="simulate-category-repeated",
        ),
        pytest.param(
            {}, SIMULATE + ["--depth-noise", "0,0"], "error: noise specs must not repeat",
            id="simulate-noise-repeated",
        ),
        *[
            pytest.param(
                {}, SIMULATE + [flag, value], f"error: {field} must be finite",
                id=f"{flag[2:]}-{value}",
            )
            for flag, field, value in [
                ("--pixel-noise", "pixel_noise_sigma", "nan"),
                ("--depth-noise", "depth_rel_noise", "nan"),
                ("--depth-noise", "depth_rel_noise", "inf"),
                ("--scale-error", "scale_rel_error", "-1"),
                ("--scale-error", "scale_rel_error", "nan"),
            ]
        ],
        pytest.param(
            {"s.json": {"pixel_noise": [float("nan")]}}, SIMULATE + ["--config", "s.json"],
            "error: pixel_noise_sigma must be finite", id="config-noise-nan",
        ),
        *[
            pytest.param(
                {"s.json": {"predictor": value}}, SIMULATE + ["--config", "s.json"],
                "error: s.json: predictor", id=f"config-predictor-{value}",
            )
            for value in (None, "noisy")
        ],
        *[
            pytest.param(
                {"c.json": CORRESPONDENCES, "k.json": INTRINSICS, "s.json": [entry]},
                SOLVE_MUG + extra, f"error: s.json: entry 0: {error}", id=case,
            )
            for case, entry, extra, error in [
                ("stats-mean-infinite", {**MUG_STATS, "mean_scale": float("inf")}, [], "mean scale"),
                ("stats-mean-infinite-delta", {**MUG_STATS, "mean_scale": float("inf")}, ["--delta", "0.1"],
                 "mean scale"),
                ("stats-mean-zero", {**MUG_STATS, "mean_scale": 0}, [], "mean scale"),
                ("stats-std-nan", {**MUG_STATS, "std_dev": float("nan")}, [], "std_dev"),
                ("stats-count-infinite", {**MUG_STATS, "count": float("inf")}, [], "cannot convert"),
                ("stats-count-missing", {k: v for k, v in MUG_STATS.items() if k != "count"}, [],
                 "missing required field 'count'"),
            ]
        ],
        pytest.param(
            {"c.json": CORRESPONDENCES, "k.json": INTRINSICS}, SOLVE + ["--scale", "inf"],
            "error: --scale must be positive and finite", id="solve-scale-infinite",
        ),
        pytest.param(
            {"c.json": CORRESPONDENCES, "k.json": INTRINSICS, "s.json": [MUG_STATS]},
            SOLVE_MUG + ["--delta", "nan"], "error: delta must be finite", id="solve-delta-nan",
        ),
        *[
            pytest.param(
                {"c.json": CORRESPONDENCES, "k.json": INTRINSICS, "s.json": entries},
                SOLVE_MUG, f"error: s.json: entry {error}", id=case,
            )
            for case, entries, error in [
                ("stats-category-repeated", [MUG_STATS, {**MUG_STATS, "mean_scale": 0.5}],
                 "1: category 'mug' repeats"),
                ("stats-count-fractional", [{**MUG_STATS, "count": 1.7}], "0: count must be a whole number"),
            ]
        ],
        pytest.param(
            {"in.jsonl": {"category": "mug", "scale": float("inf")}},
            ["stats", "--input", "in.jsonl", "--output", "o.json"],
            "error: in.jsonl:1: scale must be positive and finite", id="stats-scale-infinite",
        ),
        # no file exists: these flags must be rejected before any is read
        *[
            pytest.param({}, SOLVE + extra, f"error: {error}", id=case)
            for case, extra, error in [
                ("solve-scale-with-stats", ["--scale", "0.3", "--stats", "s.json"],
                 "--scale cannot be combined with --stats"),
                ("solve-scale-with-category", ["--scale", "0.3", "--category", "mug"],
                 "--scale cannot be combined with --category"),
                ("solve-scale-with-delta", ["--scale", "0.3", "--delta", "0.1"],
                 "--scale cannot be combined with --delta"),
                ("solve-category-without-stats", ["--category", "mug"], "--category and --delta need --stats"),
                ("solve-model-without-matrix", ["--model", "m.json"], "--model and --matrix must be given together"),
                ("solve-stats-without-category", ["--stats", "s.json"],
                 "--stats needs --category to select the anchor"),
            ]
        ],
        pytest.param(
            {"c.json": CORRESPONDENCES, "k.json": INTRINSICS, "s.json": [{**MUG_STATS, "category": "bowl"}]},
            SOLVE_MUG, "error: category 'mug' not present in s.json", id="stats-category-missing",
        ),
        pytest.param(
            {"c.json": [{"image": [320.0, 240.0]}] * 4, "k.json": INTRINSICS}, SOLVE,
            "error: c.json: records lack 'model' coordinates and no --matrix/--model pair was given",
            id="correspondences-without-model",
        ),
        # a str payload is written as it stands, not as JSON
        pytest.param(
            {"c.json": CORRESPONDENCES, "k.json": '{"fx": 577.5,'}, SOLVE, "error: k.json: invalid JSON",
            id="json-invalid",
        ),
        pytest.param(
            {"c.json": {"image": [320.0, 240.0]}, "k.json": INTRINSICS}, SOLVE,
            "error: c.json: expected top-level list", id="json-wrong-top-level-type",
        ),
        pytest.param(
            {"in.jsonl": [{"category": "mug", "scale": 1.0}]}, ["stats", "--input", "in.jsonl", "--output", "o.json"],
            "error: in.jsonl:1 is not an object", id="jsonl-record-not-an-object",
        ),
        pytest.param(
            {"in.jsonl": ""}, ["stats", "--input", "in.jsonl", "--output", "o.json"],
            "error: in.jsonl: no scale records", id="jsonl-empty",
        ),
        pytest.param(
            {"c.json": [{"image": [320.0, 240.0], "model": [0.0, 0.0]}], "k.json": INTRINSICS}, SOLVE,
            "error: c.json: entry 0: model must be [x, y, z]", id="correspondence-model-two-numbers",
        ),
        pytest.param(
            {"c.json": [], "k.json": INTRINSICS}, SOLVE, "error: c.json: empty correspondence list",
            id="correspondences-empty",
        ),
        pytest.param(
            {"p.jsonl": {**GROUND_TRUTH, "confidence": float("nan")}, "g.jsonl": GROUND_TRUTH},
            EVALUATE, "error: p.jsonl:1: ", id="confidence-nan",
        ),
        pytest.param(
            {"p.jsonl": {**GROUND_TRUTH, "confidence": 0.9, "scale": 0}, "g.jsonl": GROUND_TRUTH},
            EVALUATE, "error: p.jsonl:1: scale", id="scale-zero",
        ),
        pytest.param(
            {"p.jsonl": {**GROUND_TRUTH, "confidence": 0.9}, "g.jsonl": {**GROUND_TRUTH, "scale": float("nan")}},
            EVALUATE, "error: g.jsonl:1: scale", id="scale-nan",
        ),
        pytest.param(
            {"p.jsonl": {**GROUND_TRUTH, "confidence": 0.9, "canonical_extents": [0.5, 0, 0.5]},
             "g.jsonl": GROUND_TRUTH},
            EVALUATE, "error: p.jsonl:1: canonical_extents", id="extent-zero",
        ),
        # a bool or a string where a number belongs
        *[
            pytest.param(
                {"c.json": CORRESPONDENCES, "k.json": {**INTRINSICS, "fx": value}}, SOLVE,
                "error: k.json: fx must be a number", id=f"focal-{case}",
            )
            for case, value in [("bool", True), ("string", "577.5")]
        ],
        *[
            pytest.param(
                {"c.json": CORRESPONDENCES, "k.json": INTRINSICS, "s.json": [{**MUG_STATS, **entry}]},
                SOLVE_MUG, f"error: s.json: entry 0: {error}", id=case,
            )
            for case, entry, error in [
                ("stats-mean-string", {"mean_scale": "0.14"}, "mean_scale must be a number"),
                ("stats-count-bool", {"count": True}, "count must be a whole number"),
            ]
        ],
        pytest.param(
            {"p.jsonl": {**GROUND_TRUTH, "confidence": 0.9, "scale": True}, "g.jsonl": GROUND_TRUTH},
            EVALUATE, "error: p.jsonl:1: scale must be a number", id="detection-scale-bool",
        ),
        pytest.param(
            {"p.jsonl": {**GROUND_TRUTH, "confidence": 0.9},
             "g.jsonl": {**GROUND_TRUTH, "canonical_extents": [0.5, "0.6", 0.5]}},
            EVALUATE, "error: g.jsonl:1: canonical_extents", id="extent-string",
        ),
        pytest.param(
            {"in.jsonl": {"category": "mug", "scale": True}},
            ["stats", "--input", "in.jsonl", "--output", "o.json"],
            "error: in.jsonl:1: scale must be a number", id="stats-scale-bool",
        ),
        *[
            pytest.param(
                {"c.json": CORRESPONDENCES, "k.json": INTRINSICS, "m.json": model, "x.json": matrix},
                SOLVE + ["--model", "m.json", "--matrix", "x.json"], error, id=case,
            )
            for case, model, matrix, error in [
                ("model-point-bool", {"points": [[0.0, 0.0, True]]}, {"rows": 4, "cols": 1, "data": [1, 1, 1, 1]},
                 "error: m.json: points"),
                ("matrix-data-string", {"points": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]},
                 {"rows": 4, "cols": 2, "data": [0.5, "0.5"] * 4}, "error: x.json: data"),
                # far too large to allocate: refused on its stated size alone
                ("matrix-rows-oversized", {"points": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]},
                 {"rows": 1000000, "cols": 1000000, "triplets": []},
                 "error: x.json: matrix has 1000000 rows but correspondences file has 4 pixels"),
                ("matrix-cols-oversized", {"points": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]},
                 {"rows": 4, "cols": 10**12, "triplets": []},
                 "error: x.json: matrix has 1000000000000 columns but model has 2 points"),
                ("matrix-rows-zero", {"points": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]},
                 {"rows": 0, "cols": 2, "triplets": []}, "error: x.json: rows and cols must be positive"),
                ("matrix-without-entries", {"points": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]},
                 {"rows": 4, "cols": 2}, "error: x.json: need either 'data' or 'triplets'"),
                ("matrix-triplet-two-numbers", {"points": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]},
                 {"rows": 4, "cols": 2, "triplets": [[0, 1]]}, "error: x.json: triplets must be [row, col, value]"),
                ("matrix-triplet-out-of-bounds", {"points": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]},
                 {"rows": 4, "cols": 2, "triplets": [[0, 2, 1.0]]},
                 "error: x.json: triplet index (0, 2) out of bounds"),
            ]
        ],
        pytest.param(
            # a category without ground truth is never matched, so only the
            # loader sees this record
            {"p.jsonl": {**GROUND_TRUTH, "category": "teapot", "confidence": 0.9, "scale": -1.0},
             "g.jsonl": GROUND_TRUTH},
            EVALUATE, "error: p.jsonl:1: scale", id="scale-negative-unmatched-category",
        ),
    ],
)
def test_malformed_input_is_a_typed_error(tmp_path, monkeypatch, capsys, files, argv, error):
    monkeypatch.chdir(tmp_path)
    for name, payload in files.items():
        (tmp_path / name).write_text(payload if isinstance(payload, str) else json.dumps(payload))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert any(line.startswith(error) for line in err.splitlines()), err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


# valid JSON-lines on line 1, bytes that are not UTF-8 on line 2
NOT_UTF8_LINES = b'{"category": "mug", "scale": 1.0}\n{"category": "m\xe9g", "scale": 2.0}\n'


@pytest.mark.parametrize(
    "argv, path",
    [
        pytest.param(SOLVE[:2] + ["d"] + SOLVE[3:], "d", id="solve-input-is-a-directory"),
        pytest.param(["stats", "--input", "d", "--output", "o.json"], "d", id="stats-input-is-a-directory"),
        pytest.param(SOLVE[:2] + ["latin1.json"] + SOLVE[3:], "latin1.json", id="json-not-utf8"),
        pytest.param(["stats", "--input", "latin1.jsonl", "--output", "o.json"], "latin1.jsonl",
                     id="jsonl-not-utf8"),
        pytest.param(EVALUATE[:-1] + ["f.txt"], os.path.join("f.txt", "metrics.csv"),
                     id="evaluate-output-dir-is-a-file"),
        pytest.param(SIMULATE + ["--output", "f.txt/x.csv"], "f.txt/x.csv", id="simulate-output-under-a-file"),
        # a later output that cannot be written: the earlier ones are not written either
        pytest.param(["stats", "--input", "in.jsonl", "--output", "o.json", "--csv", "f.txt/x.csv"], "f.txt/x.csv",
                     id="stats-csv-under-a-file"),
        pytest.param(SIMULATE + ["--output", "t.csv", "--summary", "f.txt/s.csv"], "f.txt/s.csv",
                     id="simulate-summary-under-a-file"),
        pytest.param(EVALUATE[:-1] + ["rep"], os.path.join("rep", "metrics.txt"),
                     id="evaluate-report-is-a-directory"),
        # two outputs at one file: the second write would replace the first
        pytest.param(["stats", "--input", "in.jsonl", "--output", "o.json", "--csv", "o.json"], "o.json",
                     id="stats-csv-is-the-output"),
        pytest.param(SIMULATE + ["--output", "t.csv", "--summary", os.path.join(".", "t.csv")],
                     os.path.join(".", "t.csv"), id="simulate-summary-is-the-output"),
    ],
)
def test_unusable_path_is_an_input_error(tmp_path, monkeypatch, capsys, argv, path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "rep" / "metrics.txt").mkdir(parents=True)
    (tmp_path / "in.jsonl").write_text(json.dumps({"category": "mug", "scale": 1.0}))
    (tmp_path / "f.txt").write_text("a file, not a directory\n")
    (tmp_path / "latin1.json").write_bytes(json.dumps(CORRESPONDENCES).encode()[:-1] + b', "\xe9"]')
    (tmp_path / "latin1.jsonl").write_bytes(NOT_UTF8_LINES)
    (tmp_path / "k.json").write_text(json.dumps(INTRINSICS))
    (tmp_path / "p.jsonl").write_text(json.dumps({**GROUND_TRUTH, "confidence": 0.9}))
    (tmp_path / "g.jsonl").write_text(json.dumps(GROUND_TRUTH))
    inputs = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: cannot "), err
    assert "Traceback" not in err
    assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == inputs  # no output written


@pytest.mark.parametrize(
    "argv, stub",
    [
        pytest.param(SIMULATE + ["--output", "t.csv", "--summary", "f.txt/s.csv"], "run_grid", id="simulate"),
        pytest.param(SOLVE[:-1] + ["f.txt/p.json"], "ransac_pnp", id="solve"),
    ],
)
def test_outputs_are_checked_before_the_work(tmp_path, monkeypatch, capsys, argv, stub):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.txt").write_text("a file, not a directory\n")
    (tmp_path / "c.json").write_text(json.dumps(CORRESPONDENCES))
    (tmp_path / "k.json").write_text(json.dumps(INTRINSICS))
    inputs = sorted(tmp_path.rglob("*"))
    calls = []
    monkeypatch.setattr(cli, stub, lambda *args, **kwargs: calls.append(args))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[-1]}: cannot write"), err
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == inputs


def test_solve_defaults_are_the_ransac_config_defaults():
    args = build_parser().parse_args(SOLVE)
    config = RansacConfig()
    assert (args.threshold, args.max_iterations, args.confidence, args.seed) == (
        config.reprojection_threshold, config.max_iterations, config.confidence, config.rng_seed,
    )


def test_files_are_utf8_whatever_the_locale(tmp_path):
    """Under an ASCII locale ``evaluate`` still writes its ``10°`` headers
    byte for byte and ``stats`` reads a UTF-8 category; the console stays
    UTF-8 so that only the files are tested."""
    listing = tmp_path / "scales.jsonl"
    listing.write_bytes('{"category": "café", "scale": 0.1}\n{"category": "café", "scale": 0.2}\n'.encode())
    src = os.path.dirname(os.path.dirname(os.path.abspath(scalepose.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONIOENCODING": "utf-8"}
    commands = [evaluate_args(tmp_path / "report"), ["stats", "--input", str(listing), "--output", str(tmp_path / "s.json")]]
    for argv in commands:
        result = subprocess.run(
            [sys.executable, "-c", "from scalepose.cli import entry; entry()", *argv],
            env=env, capture_output=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
    for name in EVALUATE_FILES:
        assert (tmp_path / "report" / name).read_bytes() == (GOLDEN / "evaluate" / name).read_bytes(), name
    assert list(fileio.load_stats(str(tmp_path / "s.json"))) == ["café"]


def test_every_package_error_is_an_input_or_a_solver_error():
    """``main`` exits 1 on an ``InputError`` and 2 on a ``SolverError``, so
    every error class of the package is exactly one of the two; the base
    class itself is never raised."""
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.ScalePoseError)]
    assert len(classes) > 3
    for cls in classes:
        if cls is not errors.ScalePoseError:
            assert issubclass(cls, errors.InputError) != issubclass(cls, errors.SolverError), cls


class TestOneParser:
    """``main`` parses with one parser per process, built on its first call."""

    @pytest.fixture
    def parsers_built(self, monkeypatch):
        """Every ``argparse.ArgumentParser`` constructed while the fixture is
        active, subparsers included."""
        built = []
        original = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(type(parser))
            original(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        return built

    def test_no_parser_built_after_the_first_call(self, tmp_path, solve_fixture, parsers_built):
        _, corr, intr, _ = solve_fixture
        scales = tmp_path / "scales.jsonl"
        scales.write_text('{"category": "mug", "scale": 1.0}\n{"category": "mug", "scale": 2.0}\n')
        stats = ["stats", "--input", str(scales), "--output", str(tmp_path / "stats_out.json")]
        commands = [
            stats,
            ["solve", "--correspondences", str(corr), "--intrinsics", str(intr),
             "--scale", "1.0", "--output", str(tmp_path / "pose.json")],
            evaluate_args(tmp_path / "eval"),
            SIMULATE + ["--depth-noise", "0", "--output", str(tmp_path / "sim.csv")],
        ]
        assert main(stats) == 0
        parsers_built.clear()
        for argv in commands:
            assert main(argv) == 0, argv[0]
        assert parsers_built == []

    def test_import_builds_no_parser(self):
        # a fresh interpreter, so that no earlier call has built the parser
        child = "\n".join([
            "import argparse",
            "built = []",
            "original = argparse.ArgumentParser.__init__",
            "def counted(parser, *args, **kwargs):",
            "    built.append(type(parser))",
            "    original(parser, *args, **kwargs)",
            "argparse.ArgumentParser.__init__ = counted",
            "import scalepose.cli",
            "print(len(built))",
        ])
        src = os.path.dirname(os.path.dirname(os.path.abspath(scalepose.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, text=True, check=True, timeout=60
        )
        assert result.stdout.strip() == "0"

    def test_calls_share_no_state(self, tmp_path):
        # a config run writes its keys onto the parsed arguments and a usage
        # error stops a parse half way; neither may reach the next call
        cfg = tmp_path / "s.json"
        cfg.write_text(
            json.dumps(
                {
                    "categories": ["can"],
                    "pixel_noise": [2.0],
                    "outlier_fraction": [0.1],
                    "scale_error": [0.2],
                    "depth_noise": [0.0],
                    "trials": 1,
                    "seed": 9,
                    "points": 32,
                    "predictor": "mean",
                    "output": str(tmp_path / "cfg.csv"),
                    "summary": str(tmp_path / "cfg_summary.csv"),
                }
            )
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert main(["simulate", "--categories", "mug", "--trials"]) == 1
        trials, summary = tmp_path / "trials.csv", tmp_path / "summary.csv"
        assert main(SIMULATE_ARGS + ["--output", str(trials), "--summary", str(summary)]) == 0
        assert trials.read_bytes() == (GOLDEN / "simulate" / "trials.csv").read_bytes()
        assert summary.read_bytes() == (GOLDEN / "simulate" / "summary.csv").read_bytes()
