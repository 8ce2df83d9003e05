"""RANSAC-PnP results pinned bit for bit.

``tests/golden/ransac.json`` holds the result of ``ransac_pnp`` on each
problem below, captured from the serial one-sample-at-a-time loop before
hypotheses were scored in blocks: ``iterations_used``, the inlier mask, the
mean inlier error and the pose as ``repr`` floats, or the error class name.
The block-batched loop must reproduce every value exactly.

The problems cover 4 to 200 points, 0 to 70% outliers, two runs into the
1000-iteration cap, one run into a 200-iteration cap, models with collinear
point runs (so some samples are degenerate) and two typed failures.

Regenerate only for a deliberate change of RANSAC semantics:
``PYTHONPATH=src python tests/test_ransac_golden.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import CAMERA
from scalepose.errors import SolverError
from scalepose.geometry import RigidPose, project, random_rotation
from scalepose.pnp import RansacConfig, ransac_pnp

GOLDEN = Path(__file__).parent / "golden" / "ransac.json"

# name: (seed, points, outlier fraction, pixel noise, collinear points,
#        threshold px, max iterations, confidence)
PROBLEMS = {
    "n4_clean": (1, 4, 0.0, 0.0, 0, 2.0, 1000, 0.999),
    "n5_noisy": (2, 5, 0.0, 0.5, 0, 2.0, 1000, 0.999),
    "n6_one_outlier": (3, 6, 0.17, 0.0, 0, 2.0, 1000, 0.999),
    "n8_half_outliers": (4, 8, 0.5, 0.3, 0, 2.0, 1000, 0.999),
    "n10_20pct": (5, 10, 0.2, 0.5, 0, 2.0, 1000, 0.999),
    "n20_clean": (6, 20, 0.0, 0.0, 0, 2.0, 1000, 0.999),
    "n25_noise_2px": (7, 25, 0.0, 2.0, 0, 2.0, 1000, 0.999),
    "n30_10pct": (8, 30, 0.1, 1.0, 0, 2.0, 1000, 0.999),
    "n50_30pct": (9, 50, 0.3, 0.5, 0, 2.0, 1000, 0.999),
    "n70_45pct": (10, 70, 0.45, 1.5, 0, 2.0, 1000, 0.999),
    "n80_40pct": (11, 80, 0.4, 0.75, 0, 2.0, 1000, 0.999),
    "n90_55pct": (12, 90, 0.55, 1.0, 0, 2.0, 1000, 0.999),
    "n100_50pct": (13, 100, 0.5, 1.0, 0, 2.0, 1000, 0.999),
    "n100_25pct_thr4": (14, 100, 0.25, 1.0, 0, 4.0, 1000, 0.999),
    "n120_70pct_cap": (15, 120, 0.7, 1.0, 0, 2.0, 1000, 0.99999),
    "n200_70pct_cap": (16, 200, 0.7, 1.0, 0, 2.0, 1000, 0.99999),
    "n150_60pct_cap200": (17, 150, 0.6, 1.0, 0, 2.0, 200, 0.999),
    "n160_35pct": (18, 160, 0.35, 0.75, 0, 2.0, 1000, 0.999),
    "n200_10pct_thr1": (19, 200, 0.1, 0.3, 0, 1.0, 1000, 0.999),
    "n200_clean_noisy": (20, 200, 0.0, 0.3, 0, 2.0, 1000, 0.999),
    "n14_10_collinear_15pct": (21, 14, 0.15, 0.3, 10, 2.0, 1000, 0.999),
    "n40_15_collinear_20pct": (22, 40, 0.2, 0.5, 15, 2.0, 1000, 0.999),
    "n60_30_collinear_30pct": (23, 60, 0.3, 0.5, 30, 2.0, 1000, 0.999),
    "n10_all_collinear": (24, 10, 0.0, 0.0, 10, 2.0, 40, 0.999),
    "n3_too_few": (25, 3, 0.0, 0.0, 0, 2.0, 1000, 0.999),
}


def build_problem(seed, n, outliers, noise, collinear):
    """Seeded pixels and metric model points for one problem."""
    rng = np.random.default_rng(seed)
    size = rng.uniform(0.05, 0.5)
    points = rng.uniform(-size, size, size=(n, 3))
    if collinear:
        direction = rng.normal(size=3)
        steps = rng.uniform(-1.0, 1.0, size=collinear)
        points[:collinear] = points[0] + size * steps[:, None] * direction / np.linalg.norm(direction)
    depth = size * rng.uniform(3.0, 6.0)
    offset = rng.uniform(-0.15, 0.15, size=2) * depth
    pose = RigidPose(random_rotation(rng), [offset[0], offset[1], depth])
    pixels = project(pose.transform(points), CAMERA) + rng.normal(0.0, noise, size=(n, 2))
    bad = rng.choice(n, size=int(round(outliers * n)), replace=False)
    pixels[bad] = rng.uniform([0.0, 0.0], [640.0, 480.0], size=(len(bad), 2))
    return pixels, points


def solve(name):
    seed, n, outliers, noise, collinear, threshold, max_iterations, confidence = PROBLEMS[name]
    pixels, points = build_problem(seed, n, outliers, noise, collinear)
    config = RansacConfig(threshold, max_iterations, confidence, rng_seed=seed)
    try:
        result = ransac_pnp(pixels, points, CAMERA, config)
    except SolverError as exc:
        return {"error": type(exc).__name__}
    return {
        "iterations_used": result.iterations_used,
        "inlier_mask": "".join("1" if v else "0" for v in result.inlier_mask),
        "mean_reprojection_error": repr(result.mean_reprojection_error),
        "rotation": [repr(float(v)) for v in result.pose.rotation.ravel()],
        "translation": [repr(float(v)) for v in result.pose.translation],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_every_problem(golden):
    assert sorted(golden) == sorted(PROBLEMS)
    iterations = [v.get("iterations_used") for v in golden.values()]
    assert iterations.count(1000) >= 2
    assert {"ConsensusNotFound", "InsufficientCorrespondences"} <= {
        v.get("error") for v in golden.values()
    }


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_matches_golden(golden, name):
    assert solve(name) == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: solve(name) for name in PROBLEMS}, indent=1) + "\n")
