"""Synthetic desk-scale experiments contrasting decoupled and coupled
pose/size recovery.

Scenes are generated from procedural category shapes (no CAD models or
images): a ground-truth pose and metric scale, pinhole projections of the
model points, and per-point ground-truth depths. Controlled corruption
(pixel noise, uniform outliers, systematic scale error, relative depth
noise) feeds two estimation arms:

* decoupled -- scale from the category anchor plus a relative offset, pose
  from RANSAC-PnP on the unit-diagonal model with its translation scaled
  by that scale (depth never enters);
* coupled   -- back-project pixels with (noisy) pseudo-depths and fit a
  similarity transform, so depth error reaches rotation and scale jointly.

Every random draw flows from recorded seeds; repeated runs are
bit-identical.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .boxes import box_stack, iou3d_pairs
from .boxes import iou3d  # noqa: F401 -- kept for perfbench/spans.py, which wraps this name
from .errors import PlacementFailed, UnknownCategory
from .evaluation import category_rotation_error_deg, csv_text, padded_groups, table_ap
from .geometry import (
    CameraIntrinsics,
    RigidPose,
    backproject,
    project,
    random_rotation,
    translation_error_cm,
    umeyama_align,
)
from .nocs import NocsModel, normalize_model
from .pnp import PnPResult, ransac_pnp
from .scale import CategoryStats, gt_offset, recover_scale

CATEGORIES = ("bottle", "bowl", "camera", "can", "laptop", "mug")

IMAGE_WIDTH = 640
IMAGE_HEIGHT = 480

DEFAULT_INTRINSICS = CameraIntrinsics(fx=577.5, fy=577.5, cx=319.5, cy=239.5)

# Simulator-only scale statistics (meters, bbox diagonal); desk-scale
# plausible values. Scenes draw their true scale from these, and the
# decoupled arm takes its anchor from them.
DEFAULT_CATEGORY_STATS = {
    "bottle": CategoryStats("bottle", 0.26, 0.045, 100),
    "bowl": CategoryStats("bowl", 0.19, 0.025, 100),
    "camera": CategoryStats("camera", 0.17, 0.035, 100),
    "can": CategoryStats("can", 0.13, 0.015, 100),
    "laptop": CategoryStats("laptop", 0.46, 0.040, 100),
    "mug": CategoryStats("mug", 0.14, 0.015, 100),
}


# Placement envelope for scene sampling (camera at origin, +z ahead): the
# object's depth range in meters and the image margin, in pixels, that every
# projected point keeps.
Z_MIN = 0.6
Z_MAX = 2.0
MARGIN_PX = 24.0


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption levels; all zero means clean observations. Every level
    is finite; a relative scale error must leave the scale positive."""

    pixel_noise_sigma: float = 0.0
    outlier_fraction: float = 0.0
    scale_rel_error: float = 0.0
    depth_rel_noise: float = 0.0

    def __post_init__(self):
        for name, valid, rule in (
            ("pixel_noise_sigma", lambda v: v >= 0, ">= 0"),
            ("outlier_fraction", lambda v: 0 <= v < 1, "in [0, 1)"),
            ("scale_rel_error", lambda v: v > -1, "> -1"),
            ("depth_rel_noise", lambda v: v >= 0, ">= 0"),
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and valid(value)):
                raise ValueError(f"{name} must be finite and {rule}, got {value}")


@dataclass(frozen=True)
class SyntheticScene:
    category: str
    pose: RigidPose
    scale: float
    model: NocsModel
    canonical_extents: np.ndarray
    intrinsics: CameraIntrinsics
    pixels: np.ndarray  # (N, 2) ground-truth projections
    depths: np.ndarray  # (N,) ground-truth camera-frame z

    def __post_init__(self):
        for name in ("canonical_extents", "pixels", "depths"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class CorruptedObservations:
    pixels: np.ndarray
    pseudo_depths: np.ndarray
    outlier_mask: np.ndarray

    def __post_init__(self):
        for name, dtype in (("pixels", np.float64), ("pseudo_depths", np.float64), ("outlier_mask", bool)):
            arr = np.asarray(getattr(self, name), dtype=dtype).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class ExperimentResult:
    """One trial of one pipeline, with errors against ground truth."""

    category: str
    pipeline: str  # "decoupled" | "coupled"
    noise: NoiseSpec
    trial: int
    rotation_error_deg: float
    translation_error_cm: float
    estimated_scale: float
    gt_scale: float
    pose: RigidPose
    gt_pose: RigidPose
    canonical_extents: tuple[float, float, float]

    def __post_init__(self):
        values = (self.rotation_error_deg, self.translation_error_cm, self.estimated_scale, self.gt_scale)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite experiment result: {values}")


# -- procedural category shapes ------------------------------------------------

def _ring(radius, y, count, phase=0.0):
    theta = 2.0 * np.pi * np.arange(count) / count + phase
    return np.column_stack([radius * np.cos(theta), np.full(count, float(y)), radius * np.sin(theta)])


def _lateral_rings(radius, y0, y1, budget):
    """Cylinder side wall as stacked rings; ring sizes are multiples of 12
    so the sampled wall keeps 30-degree rotational symmetry."""
    per_ring = 12 * max(1, round(budget / 12 / max(2, round(math.sqrt(budget / 24)))))
    n_rings = max(2, round(budget / per_ring))
    ys = np.linspace(y0, y1, n_rings)
    return np.vstack([_ring(radius, y, per_ring) for y in ys])


def _disk_rings(radius, y, budget):
    rows = []
    n_rings = max(1, round(math.sqrt(budget / 12)))
    for i in range(1, n_rings + 1):
        r = radius * i / n_rings
        count = 12 * max(1, round(budget * (2 * i - 1) / (n_rings ** 2) / 12))
        rows.append(_ring(r, y, count))
    return np.vstack(rows)


def _box_surface(size, center, budget):
    """Grid-sampled surface of an axis-aligned box."""
    sx, sy, sz = size
    areas = np.array([sy * sz, sy * sz, sx * sz, sx * sz, sx * sy, sx * sy])
    weights = areas / areas.sum()
    rows = []
    for face, w in enumerate(weights):
        n_face = max(4, round(budget * w))
        axis = face // 2
        sign = 1.0 if face % 2 == 0 else -1.0
        dims = [d for d in range(3) if d != axis]
        n0 = max(2, round(math.sqrt(n_face * size[dims[0]] / size[dims[1]])))
        n1 = max(2, round(n_face / n0))
        g0 = np.linspace(-size[dims[0]] / 2, size[dims[0]] / 2, n0)
        g1 = np.linspace(-size[dims[1]] / 2, size[dims[1]] / 2, n1)
        gg0, gg1 = np.meshgrid(g0, g1, indexing="ij")
        pts = np.zeros((gg0.size, 3))
        pts[:, axis] = sign * size[axis] / 2
        pts[:, dims[0]] = gg0.ravel()
        pts[:, dims[1]] = gg1.ravel()
        rows.append(pts + np.asarray(center))
    return np.vstack(rows)


def _hemisphere(radius, budget):
    """Open bowl: spherical cap from the bottom pole up to the rim."""
    rows = [np.array([[0.0, -radius, 0.0]])]
    n_bands = max(3, round(math.sqrt(budget / 10)))
    for i in range(1, n_bands + 1):
        phi = 0.5 * np.pi * i / n_bands
        count = 12 * max(1, round(budget * math.sin(phi) / n_bands / 8 / 12 * 8))
        rows.append(_ring(radius * math.sin(phi), -radius * math.cos(phi), count))
    return np.vstack(rows)


def _handle_arc(attach_x, budget):
    """Mug handle: arc of small rings in the x-y plane."""
    major, tube = 0.32, 0.05
    rows = []
    n_arc = max(6, budget // 8)
    for i in range(n_arc):
        ang = -0.45 * np.pi + 0.9 * np.pi * i / (n_arc - 1)
        cx = attach_x + major * math.cos(ang) - 0.1
        cy = major * math.sin(ang) * 0.8
        circ = 2.0 * np.pi * np.arange(8) / 8
        rows.append(
            np.column_stack(
                [
                    cx + tube * np.cos(circ) * math.cos(ang),
                    cy + tube * np.cos(circ) * math.sin(ang),
                    tube * np.sin(circ),
                ]
            )
        )
    return np.vstack(rows)


def _raw_category_points(category, n):
    if category == "bottle":
        return np.vstack(
            [
                _lateral_rings(0.30, -0.60, 0.25, round(n * 0.62)),
                _lateral_rings(0.11, 0.30, 0.60, round(n * 0.20)),
                _disk_rings(0.30, -0.60, round(n * 0.12)),
                _disk_rings(0.11, 0.60, round(n * 0.06)),
            ]
        )
    if category == "can":
        return np.vstack(
            [
                _lateral_rings(0.33, -0.50, 0.50, round(n * 0.66)),
                _disk_rings(0.33, -0.50, round(n * 0.17)),
                _disk_rings(0.33, 0.50, round(n * 0.17)),
            ]
        )
    if category == "bowl":
        return _hemisphere(0.5, n)
    if category == "camera":
        return _box_surface((1.0, 0.62, 0.72), (0.0, 0.0, 0.0), n)
    if category == "laptop":
        base = _box_surface((1.0, 0.05, 0.72), (0.0, 0.025, 0.0), round(n * 0.5))
        screen = _box_surface((1.0, 0.72, 0.05), (0.0, 0.0, 0.0), round(n * 0.5))
        # tilt the screen back ~110 degrees and hinge it at the rear edge
        tilt = math.radians(20.0)
        rot = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, math.cos(tilt), -math.sin(tilt)],
                [0.0, math.sin(tilt), math.cos(tilt)],
            ]
        )
        screen = (screen + np.array([0.0, 0.36, 0.0])) @ rot.T + np.array([0.0, 0.05, -0.36])
        return np.vstack([base, screen])
    if category == "mug":
        return np.vstack(
            [
                _lateral_rings(0.33, -0.45, 0.45, round(n * 0.60)),
                _disk_rings(0.33, -0.45, round(n * 0.15)),
                _handle_arc(0.33, round(n * 0.25)),
            ]
        )
    raise UnknownCategory(f"unknown category {category!r}; supported: {CATEGORIES}")


@functools.lru_cache(maxsize=None)
def make_canonical_model(category, point_count=256):
    """Deterministic canonical point model for a category.

    Points are sampled on parametric stand-in surfaces (cylinders, a
    hemisphere, boxes, hinged slabs, a cylinder with handle) and normalized
    to the canonical convention (centered, unit bbox diagonal). The actual
    count lands near ``point_count`` (complete rings/grids are never
    truncated). Returns ``(model, canonical_extents)``, both read-only and
    built once per ``(category, point_count)`` for the process.
    """
    if point_count < 32:
        raise ValueError(f"point_count must be >= 32, got {point_count}")
    raw = _raw_category_points(category, int(point_count))
    pts, _ = normalize_model(raw)
    extents = pts.max(axis=0) - pts.min(axis=0)
    extents.flags.writeable = False
    return NocsModel(pts), extents


# -- scene sampling --------------------------------------------------------------

def _draw_scale(rng, stats: CategoryStats):
    lower = max(1e-6, stats.mean_scale - 3.0 * stats.std_dev)
    for _ in range(256):
        s = rng.normal(stats.mean_scale, stats.std_dev)
        if s > lower:
            return float(s)
    return stats.mean_scale


def sample_scene(category, rng_seed, point_count=256) -> SyntheticScene:
    """Place one object fully inside the frame and record its projections.

    The ground-truth scale is drawn from the category's
    :data:`DEFAULT_CATEGORY_STATS` entry, Normal(mean, sigma) truncated to
    stay positive and above mean - 3 sigma. Placement rejection-samples the
    pose until every projected point lies inside the image margins; after
    100 attempts :class:`PlacementFailed` is raised. The camera is
    :data:`DEFAULT_INTRINSICS`.
    """
    model, extents = make_canonical_model(category, point_count)
    stats = DEFAULT_CATEGORY_STATS[category]
    rng = np.random.default_rng(rng_seed)
    lo = np.array([MARGIN_PX, MARGIN_PX])
    hi = np.array([IMAGE_WIDTH - MARGIN_PX, IMAGE_HEIGHT - MARGIN_PX])

    for _ in range(100):
        rotation = random_rotation(rng)
        s_gt = _draw_scale(rng, stats)
        # keep the object at a few object-diagonals of standoff so its full
        # extent fits the frame
        z_lo = max(Z_MIN, 4.0 * s_gt)
        if z_lo >= Z_MAX:
            continue
        z = rng.uniform(z_lo, Z_MAX)
        target = rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
        translation = backproject(target, z, DEFAULT_INTRINSICS)
        pose = RigidPose(rotation, translation)
        cam_pts = pose.transform(s_gt * model.points)
        if np.any(cam_pts[:, 2] <= 0.05):
            continue
        pix = project(cam_pts, DEFAULT_INTRINSICS)
        if np.all((pix >= lo) & (pix <= hi)):
            return SyntheticScene(
                category=category,
                pose=pose,
                scale=s_gt,
                model=model,
                canonical_extents=extents,
                intrinsics=DEFAULT_INTRINSICS,
                pixels=pix,
                depths=cam_pts[:, 2],
            )
    raise PlacementFailed(f"could not place {category!r} within 100 attempts (seed {rng_seed})")


def corrupt(scene: SyntheticScene, noise: NoiseSpec, seed) -> CorruptedObservations:
    """Apply controlled corruption to a scene's observations.

    Channels draw from independent child streams of ``seed``, so e.g.
    raising depth noise never changes which pixels get noise or which
    points become outliers. Exactly floor(outlier_fraction * N) points are
    replaced by uniform in-frame pixels and flagged in the mask.
    """
    n = scene.pixels.shape[0]
    pix_rng, out_rng, depth_rng = (
        np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(3)
    )

    pixels = scene.pixels.copy()
    if noise.pixel_noise_sigma > 0:
        pixels += pix_rng.normal(0.0, noise.pixel_noise_sigma, size=pixels.shape)

    outlier_mask = np.zeros(n, dtype=bool)
    k = int(noise.outlier_fraction * n)
    if k > 0:
        idx = out_rng.choice(n, size=k, replace=False)
        outlier_mask[idx] = True
        pixels[idx, 0] = out_rng.uniform(0.0, IMAGE_WIDTH, size=k)
        pixels[idx, 1] = out_rng.uniform(0.0, IMAGE_HEIGHT, size=k)

    pseudo_depths = scene.depths.copy()
    if noise.depth_rel_noise > 0:
        pseudo_depths *= 1.0 + depth_rng.normal(0.0, noise.depth_rel_noise, size=n)

    return CorruptedObservations(pixels, pseudo_depths, outlier_mask)


# -- estimation arms -------------------------------------------------------------

def _result(scene, pipeline, noise, trial, est_pose, est_scale):
    return ExperimentResult(
        category=scene.category,
        pipeline=pipeline,
        noise=noise,
        trial=trial,
        rotation_error_deg=category_rotation_error_deg(
            scene.category, est_pose.rotation, scene.pose.rotation
        ),
        translation_error_cm=translation_error_cm(est_pose.translation, scene.pose.translation),
        estimated_scale=est_scale,
        gt_scale=scene.scale,
        pose=est_pose,
        gt_pose=scene.pose,
        canonical_extents=tuple(scene.canonical_extents),
    )


def solve_canonical(scene: SyntheticScene, corrupted: CorruptedObservations) -> PnPResult:
    """RANSAC-PnP of the corrupted pixels on the scene's unit-diagonal
    model: the decoupled arm's pose up to the scale of its translation."""
    return ransac_pnp(corrupted.pixels, scene.model.points, scene.intrinsics)


def run_decoupled(
    scene: SyntheticScene,
    canonical: PnPResult,
    delta: float,
    noise: NoiseSpec = NoiseSpec(),
    trial: int = 0,
) -> ExperimentResult:
    """Scale from the category anchor in :data:`DEFAULT_CATEGORY_STATS` plus
    the relative offset ``delta``; pose ``(R, scale t)`` from the
    :func:`solve_canonical` result ``(R, t)``.

    RANSAC-PnP on the model scaled by s is, to rounding, the unit-model
    solve with its translation times s, with the same inlier mask and
    iteration count, so one solve serves every scale of a scene. The
    ``solve`` command applies the same rule to its canonical model.
    """
    scale = recover_scale(DEFAULT_CATEGORY_STATS[scene.category], delta)
    pose = RigidPose(canonical.pose.rotation, scale * canonical.pose.translation)
    return _result(scene, "decoupled", noise, trial, pose, scale)


def run_coupled(
    scene: SyntheticScene,
    corrupted: CorruptedObservations,
    noise: NoiseSpec = NoiseSpec(),
    trial: int = 0,
) -> ExperimentResult:
    """Depth-backprojection baseline: similarity fit of model to point cloud.

    Pixels are lifted with their pseudo-depths and a scale-estimating
    Procrustes alignment maps canonical points onto them, so depth error
    propagates into rotation, translation, and scale together.
    """
    cam_points = backproject(corrupted.pixels, corrupted.pseudo_depths, scene.intrinsics)
    sim = umeyama_align(scene.model.points, cam_points)
    pose = RigidPose(sim.rotation, sim.translation)
    return _result(scene, "coupled", noise, trial, pose, sim.scale)


# -- factorial grid ----------------------------------------------------------------

# The rules ``run_grid`` knows for the decoupled arm's offset.
PREDICTOR_KINDS = ("oracle", "mean")

_NOISE_COLUMNS = ("pixel_noise_sigma", "outlier_fraction", "scale_rel_error", "depth_rel_noise")

_TRIAL_CSV_HEADER = (
    "category", "pipeline", *_NOISE_COLUMNS, "trial", "rotation_error_deg",
    "translation_error_cm", "iou", "estimated_scale", "gt_scale",
)

_SUMMARY_CSV_HEADER = (
    "category", "pipeline", *_NOISE_COLUMNS, "trials", "median_rotation_error_deg",
    "mean_rotation_error_deg", "median_translation_error_cm", "mean_translation_error_cm",
    "mean_iou", "IoU50", "IoU75", "10cm", "10deg", "10deg10cm",
)


def _noise_cells(noise):
    return [getattr(noise, column) for column in _NOISE_COLUMNS]


@dataclass(frozen=True)
class GridResult:
    trials: tuple[ExperimentResult, ...]
    ious: tuple[float, ...]  # each trial's IoU, of its estimated box against the true one

    def trials_csv(self):
        rows = [
            [r.category, r.pipeline, *_noise_cells(r.noise), str(r.trial), r.rotation_error_deg,
             r.translation_error_cm, iou, r.estimated_scale, r.gt_scale]
            for r, iou in zip(self.trials, self.ious)
        ]
        return csv_text(_TRIAL_CSV_HEADER, rows)

    def summary_csv(self):
        """One row per (category, noise, pipeline) cell, in first-seen order.

        Every figure comes from the errors stored with the cell's results
        and from their ``ious``; the AP columns rank the results in trial
        order, since every simulated detection has confidence 1. One AP
        call scores every cell, its columns padded with NaN (a miss at
        every threshold) to the largest cell.
        """
        cells = {}
        for r, iou in zip(self.trials, self.ious):
            cells.setdefault((r.category, r.noise, r.pipeline), []).append(
                (r.rotation_error_deg, r.translation_error_cm, iou)
            )
        starts = np.cumsum([0] + [len(cell) for cell in cells.values()]).tolist()
        rot, trans, ious = np.array([row for cell in cells.values() for row in cell]).reshape(-1, 3).T.copy()
        aps = table_ap(*(padded_groups(c, starts) for c in (ious, rot, trans)), np.diff(starts)).tolist()
        rows = []
        for (category, noise, pipeline), lo, hi, ap in zip(cells, starts, starts[1:], aps):
            rows.append(
                [category, pipeline, *_noise_cells(noise), str(hi - lo), np.median(rot[lo:hi]),
                 rot[lo:hi].mean(), np.median(trans[lo:hi]), trans[lo:hi].mean(), ious[lo:hi].mean(), *ap]
            )
        return csv_text(_SUMMARY_CSV_HEADER, rows)


def run_grid(
    categories,
    noise_specs,
    trials,
    master_seed=0,
    point_count=192,
    predictor_kind="oracle",
) -> GridResult:
    """Full factorial (category x noise point x trial) over both pipelines.

    Every axis is paired. Trial ``trial`` of a category samples its scene
    from seed ``(master_seed, CATEGORIES.index(category), trial, 0)`` and
    corrupts it from ``(..., trial, 1)``, so every cell of the category
    shares that scene, and each noise channel draws the same variates,
    scaled by the cell's level. The two arms share the corruption. The
    grid is a pure function of its arguments, and a category's rows do
    not depend on the other categories or noise points beside it.

    Each fact is computed once. A scene is sampled per (category, trial),
    and a :func:`solve_canonical` runs per (category, trial, pixel noise,
    outlier fraction), since only those levels move the pixels. Each row
    is built once from the inputs its arm reads: a coupled row, with its
    :func:`corrupt`, per (category, trial, pixel noise, outlier fraction,
    depth noise), and a decoupled row, which rescales the solve, per
    (category, trial, pixel noise, outlier fraction, offset). Every other
    cell sharing those inputs gets a copy carrying its own ``noise``, and
    each distinct row's IoU is measured once. The decoupled arm's offset
    from the category anchor is the oracle's, ``gt_offset`` of the trial's
    true scale times ``1 + scale_rel_error`` (``predictor_kind="oracle"``),
    or 0, the bare category mean that ignores the instance (``"mean"``,
    the anchor-only ablation arm), so a ``"mean"`` row is shared across
    scale errors too.

    A repeated category or noise point raises ``ValueError``: its cells
    would be copies that the summary merges into one cell counting each
    trial twice.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not (isinstance(master_seed, (int, np.integer)) and master_seed >= 0):
        raise ValueError(f"master_seed must be a non-negative integer, got {master_seed!r}")
    if predictor_kind not in PREDICTOR_KINDS:
        raise ValueError(f"predictor_kind must be 'oracle' or 'mean', got {predictor_kind!r}")
    categories = list(categories)
    noise_specs = list(noise_specs)
    unknown = [c for c in categories if c not in CATEGORIES]
    if unknown:
        raise UnknownCategory(f"unknown categories {unknown}; supported: {CATEGORIES}")
    for name, values in (("categories", categories), ("noise specs", noise_specs)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValueError(f"{name} must not repeat, got {repeated[0]!r} twice")

    rows, at = [], {}  # each distinct row once, and its position by key
    cells = []  # (position of the row, the cell's noise), in output order
    for category in categories:
        key = CATEGORIES.index(category)
        stats = DEFAULT_CATEGORY_STATS[category]
        scenes = [
            sample_scene(category, rng_seed=(master_seed, key, trial, 0), point_count=point_count)
            for trial in range(trials)
        ]
        solved = {}
        for noise in noise_specs:
            for trial, scene in enumerate(scenes):
                pixels = (category, trial, noise.pixel_noise_sigma, noise.outlier_fraction)
                coupled = ("coupled", *pixels, noise.depth_rel_noise)
                if coupled not in at:
                    observations = corrupt(scene, noise, seed=(master_seed, key, trial, 1))
                    if pixels not in solved:
                        solved[pixels] = solve_canonical(scene, observations)
                    at[coupled] = len(rows)
                    rows.append(run_coupled(scene, observations, noise=noise, trial=trial))
                if predictor_kind == "mean":
                    delta = 0.0
                else:
                    delta = gt_offset(scene.scale * (1.0 + noise.scale_rel_error), stats)
                decoupled = ("decoupled", *pixels, delta)
                if decoupled not in at:
                    at[decoupled] = len(rows)
                    rows.append(run_decoupled(scene, solved[pixels], delta, noise=noise, trial=trial))
                cells += [(at[decoupled], noise), (at[coupled], noise)]
    extents = [r.canonical_extents for r in rows]
    estimated = box_stack([r.pose for r in rows], [r.estimated_scale for r in rows], extents)
    truth = box_stack([r.gt_pose for r in rows], [r.gt_scale for r in rows], extents)
    ious = iou3d_pairs(estimated, truth).tolist()
    results = tuple(
        rows[i] if rows[i].noise is noise else replace(rows[i], noise=noise) for i, noise in cells
    )
    return GridResult(results, tuple(ious[i] for i, _ in cells))
