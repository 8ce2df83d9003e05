"""Workload ``solve_outliers``: one operation is one ``scalepose solve``.

Each problem scales a canonical model from the category anchor plus an
offset and recovers its pose from 100-200 correspondences, a share of them
outliers. The strata below fix each round's make-up, so every seed and
every round asks for the same mix of work; only the geometry is random.
The top stratum runs RANSAC into its 1000-iteration cap and is more than a
tenth of the round, so the 90th latency percentile falls inside it.
"""

import json
import os

import numpy as np

import fixtures
from fixtures import CAMERA, CATEGORIES, IMAGE_H, IMAGE_W
from reference import project_pose, rotation_error_deg, translation_error_cm

# (outlier fraction, pixel noise sigma in px, RANSAC confidence, problems
# per round). The 0.2 stratum spans the median. The top stratum asks for a
# confidence its adaptive bound cannot reach within 1000 iterations, so it
# runs to the cap, while the chance that none of those 1000 samples is
# all inliers stays below 1e-6.
STRATA = (
    (0.1, 0.5, 0.999, 5),
    (0.2, 0.5, 0.999, 9),
    (0.3, 0.75, 0.999, 1),
    (0.4, 0.75, 0.999, 1),
    (0.5, 1.0, 0.999, 1),
    (0.64, 1.0, 0.99999, 3),
)
THRESHOLD_PX = 2.0
# A found pose is within a few degrees of the truth; missing every
# all-inlier sample leaves an arbitrary rotation.
MAX_ROT_ERR_DEG = 10.0
MIN_INLIER_F1 = 0.6
DECOUPLING_SOLVES = 3
DECOUPLING_RATIOS = (0.9, 1.1)


class Workload:
    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.camera_path = os.path.join(workdir, "camera.json")
        self.stats_path = os.path.join(workdir, "stats.json")
        fixtures.write_json(self.camera_path, CAMERA)
        fixtures.write_json(self.stats_path, fixtures.stats_records())

    def round(self, r):
        plan = [stratum[:3] for stratum in STRATA for _ in range(stratum[3])]
        return [self._problem(r, i, *stratum) for i, stratum in enumerate(plan)]

    def input_files(self, ops):
        return [self.camera_path, self.stats_path] + [op["corr"] for op in ops]

    def _problem(self, r, i, fraction, sigma, confidence):
        rng = np.random.default_rng([self.seed, r, i])
        category = CATEGORIES[(r * 7 + i) % len(CATEGORIES)]
        n = int(rng.integers(100, 201))
        canon = fixtures.canonical_points(category, n, rng)
        scale = fixtures.draw_scale(rng, category)
        delta = scale / fixtures.mean_scale(category) - 1.0
        rotation = fixtures.random_rotation(rng)
        depth = scale * rng.uniform(3.0, 4.5)
        centre = np.array([CAMERA["cx"], CAMERA["cy"]]) + rng.uniform([-90, -60], [90, 60])
        translation = depth * np.array(
            [(centre[0] - CAMERA["cx"]) / CAMERA["fx"], (centre[1] - CAMERA["cy"]) / CAMERA["fy"], 1.0]
        )
        pixels = fixtures.project(scale * canon @ rotation.T + translation)
        pixels += rng.normal(0.0, sigma, size=pixels.shape)
        outlier = np.zeros(n, dtype=bool)
        picked = rng.choice(n, size=int(round(fraction * n)), replace=False)
        outlier[picked] = True
        pixels[picked] = rng.uniform([0.0, 0.0], [IMAGE_W, IMAGE_H], size=(len(picked), 2))

        stem = os.path.join(self.workdir, f"r{r}", f"p{i:02d}")
        corr = stem + "_corr.json"
        fixtures.write_json(
            corr, [{"image": list(p), "model": list(m)} for p, m in zip(pixels.tolist(), canon.tolist())]
        )
        op = {
            "corr": corr,
            "output": stem + "_pose.json",
            "category": category,
            "delta": delta,
            "ransac_seed": fixtures.seed_int(self.seed, r, i, 1),
            "canon": canon,
            "pixels": pixels,
            "outlier": outlier,
            "rotation": rotation,
            "translation": translation,
            "fraction": fraction,
            "confidence": confidence,
        }
        op["argv"] = self._argv(op, delta, op["output"])
        return op

    def _argv(self, op, delta, output):
        return [
            "solve", "--correspondences", op["corr"], "--intrinsics", self.camera_path,
            "--stats", self.stats_path, "--category", op["category"], f"--delta={delta!r}",
            "--threshold", repr(THRESHOLD_PX),
            "--confidence", repr(op["confidence"]), "--seed", str(op["ransac_seed"]), "--output", output,
        ]

    def check(self, ops, run_op):
        """Check every solve; return (failures, accuracy metrics)."""
        failures = []
        rot_errs, trans_errs = [], []
        for op in ops:
            with open(op["output"]) as fh:
                out = json.load(fh)
            problem = f"{op['output']}: "
            anchor = fixtures.mean_scale(op["category"])
            scale = anchor + anchor * op["delta"]
            if abs(out["scale"] - scale) > 1e-12 * scale:
                failures.append(problem + f"scale {out['scale']!r} is not anchor * (1 + delta)")
            rot = np.asarray(out["pose"]["rotation"]).reshape(3, 3)
            trans = np.asarray(out["pose"]["translation"])
            if np.abs(rot.T @ rot - np.eye(3)).max() > 1e-9 or abs(np.linalg.det(rot) - 1.0) > 1e-9:
                failures.append(problem + "rotation is not proper")
            pix, front = project_pose(rot, trans, scale * op["canon"])
            err = np.where(front, np.linalg.norm(pix - op["pixels"], axis=1), np.inf)
            mask = np.asarray(out["inlier_mask"], dtype=bool)
            clear = np.abs(err - THRESHOLD_PX) > 1e-9
            if not np.array_equal(mask[clear], (err < THRESHOLD_PX)[clear]):
                failures.append(problem + "inlier mask differs from error < threshold")
            if out["inlier_count"] != int(mask.sum()):
                failures.append(problem + "inlier_count differs from the mask")
            true_pos = int(np.count_nonzero(mask & ~op["outlier"]))
            f1 = 2.0 * true_pos / (mask.sum() + np.count_nonzero(~op["outlier"]))
            if f1 < MIN_INLIER_F1:
                failures.append(problem + f"inlier F1 {f1:.3f} against the known outliers")
            rot_errs.append(rotation_error_deg(rot, op["rotation"]))
            trans_errs.append(translation_error_cm(trans, op["translation"]))
            if rot_errs[-1] > MAX_ROT_ERR_DEG:
                failures.append(problem + f"rotation error {rot_errs[-1]:.3f} deg")
        failures += self._check_decoupling(ops, run_op)
        accuracy = {"rot_err_p50_deg": float(np.median(rot_errs)),
                    "trans_err_p50_cm": float(np.median(trans_errs))}
        return failures, accuracy

    def _check_decoupling(self, ops, run_op):
        """Solving with the scale off by a ratio keeps the rotation and
        scales the translation by that ratio."""
        failures = []
        easiest = sorted(ops, key=lambda op: op["fraction"])
        for op in easiest[:DECOUPLING_SOLVES]:
            with open(op["output"]) as fh:
                base = json.load(fh)["pose"]
            for ratio in DECOUPLING_RATIOS:
                output = op["output"].replace(".json", f"_x{ratio}.json")
                delta = (1.0 + op["delta"]) * ratio - 1.0
                if run_op(self._argv(op, delta, output)) != 0:
                    failures.append(f"{output}: scaled solve failed")
                    continue
                with open(output) as fh:
                    pose = json.load(fh)["pose"]
                rot_a = np.asarray(base["rotation"]).reshape(3, 3)
                rot_b = np.asarray(pose["rotation"]).reshape(3, 3)
                t_a = ratio * np.asarray(base["translation"])
                t_b = np.asarray(pose["translation"])
                if rotation_error_deg(rot_a, rot_b) > 1e-6:
                    failures.append(f"{output}: rotation moved with the scale")
                if np.linalg.norm(t_a - t_b) > 1e-8 * np.linalg.norm(t_a):
                    failures.append(f"{output}: translation did not scale by {ratio}")
        return failures
