"""Inputs shared by the workloads, built from NumPy and a seed only.

Nothing here imports ``scalepose``: the benchmark's inputs must not move
when the program changes. Category shapes, sizes and the camera are the
benchmark's own, chosen at desk scale.
"""

import json
import os

import numpy as np

CATEGORIES = ("bottle", "bowl", "camera", "can", "laptop", "mug")
SYMMETRIC = frozenset({"bottle", "bowl", "can"})

IMAGE_W, IMAGE_H = 640, 480
CAMERA = {"fx": 577.5, "fy": 577.5, "cx": 319.5, "cy": 239.5}

# (shape, side ratios before normalising to a unit diagonal, mean scale m, std m)
_SPECS = {
    "bottle": ("cylinder", (0.36, 1.0, 0.36), 0.26, 0.040),
    "bowl": ("bowl", (1.0, 0.42, 1.0), 0.19, 0.025),
    "camera": ("box", (1.0, 0.66, 0.52), 0.17, 0.030),
    "can": ("cylinder", (0.56, 1.0, 0.56), 0.13, 0.015),
    "laptop": ("box", (1.0, 0.72, 0.78), 0.46, 0.040),
    "mug": ("cylinder", (0.74, 1.0, 0.74), 0.14, 0.015),
}


def canonical_extents(category):
    """Box side lengths of the unit-diagonal canonical model."""
    ratios = np.asarray(_SPECS[category][1], dtype=np.float64)
    return ratios / np.linalg.norm(ratios)


def stats_records():
    """Category scale statistics in the layout ``scalepose solve --stats`` reads."""
    return [
        {"category": c, "mean_scale": _SPECS[c][2], "std_dev": _SPECS[c][3], "count": 100}
        for c in CATEGORIES
    ]


def mean_scale(category):
    return _SPECS[category][2]


def draw_scale(rng, category):
    """Metric scale within 1.5 standard deviations of the category mean."""
    _, _, mean, std = _SPECS[category]
    return float(mean + std * rng.uniform(-1.5, 1.5))


def canonical_points(category, n, rng):
    """``n`` surface points of the category shape, inside its canonical box."""
    shape = _SPECS[category][0]
    half = canonical_extents(category) / 2.0
    if shape == "box":
        face = rng.integers(0, 6, size=n)
        pts = rng.uniform(-1.0, 1.0, size=(n, 3))
        axis = face % 3
        pts[np.arange(n), axis] = np.where(face < 3, -1.0, 1.0)
    elif shape == "cylinder":
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        y = rng.uniform(-1.0, 1.0, size=n)
        radius = np.where(rng.uniform(size=n) < 0.8, 1.0, np.sqrt(rng.uniform(size=n)))
        y = np.where(radius < 1.0, np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0), y)
        pts = np.column_stack([radius * np.cos(theta), y, radius * np.sin(theta)])
    else:  # bowl: lower half of an ellipsoid shell plus its rim
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        phi = rng.uniform(0.0, 0.5 * np.pi, size=n)
        pts = np.column_stack(
            [np.sin(phi) * np.cos(theta), 1.0 - 2.0 * np.cos(phi), np.sin(phi) * np.sin(theta)]
        )
    return pts * half


def random_rotation(rng):
    """Uniform rotation from a normalised Gaussian quaternion."""
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def axis_angle(axis, angle_deg):
    """Rotation by ``angle_deg`` about ``axis`` (Rodrigues)."""
    k = np.asarray(axis, dtype=np.float64)
    k = k / np.linalg.norm(k)
    a = np.radians(angle_deg)
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + np.sin(a) * kx + (1.0 - np.cos(a)) * (kx @ kx)


def project(points_cam):
    """Pinhole projection of camera-frame points to pixels."""
    z = points_cam[:, 2]
    return np.column_stack(
        [
            CAMERA["fx"] * points_cam[:, 0] / z + CAMERA["cx"],
            CAMERA["fy"] * points_cam[:, 1] / z + CAMERA["cy"],
        ]
    )


def seed_int(*parts):
    """A 32-bit integer seed drawn from a seed sequence over ``parts``."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def write_json(path, obj):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh)
