"""Synthetic desk-scale experiments contrasting decoupled and coupled
pose/size recovery.

Scenes are generated from procedural category shapes (no CAD models or
images): a ground-truth pose and metric scale, pinhole projections of the
model points, and per-point ground-truth depths. Controlled corruption
(pixel noise, uniform outliers, systematic scale error, relative depth
noise) feeds two estimation arms:

* decoupled -- scale from a category anchor plus predicted offset, pose
  from RANSAC-PnP on the scaled model (depth never enters);
* coupled   -- back-project pixels with (noisy) pseudo-depths and fit a
  similarity transform, so depth error reaches rotation and scale jointly.

Every random draw flows from recorded seeds; repeated runs are
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import box_from_estimate, iou3d
from .errors import PlacementFailed, UnknownCategory
from .evaluation import DetectionRecord, GroundTruthBox, category_rotation_error_deg, table_ap
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
from .pnp import ransac_pnp, scale_model_points
from .scale import (
    CategoryStats,
    MeanScalePredictor,
    OraclePredictor,
    ScaleObservation,
    recover_scale,
)

CATEGORIES = ("bottle", "bowl", "camera", "can", "laptop", "mug")

IMAGE_WIDTH = 640
IMAGE_HEIGHT = 480

DEFAULT_INTRINSICS = CameraIntrinsics(fx=577.5, fy=577.5, cx=319.5, cy=239.5)

# Simulator-only scale statistics (meters, bbox diagonal); desk-scale
# plausible values, exposed so callers can substitute measured ones.
DEFAULT_CATEGORY_STATS = {
    "bottle": CategoryStats("bottle", 0.26, 0.045, 100),
    "bowl": CategoryStats("bowl", 0.19, 0.025, 100),
    "camera": CategoryStats("camera", 0.17, 0.035, 100),
    "can": CategoryStats("can", 0.13, 0.015, 100),
    "laptop": CategoryStats("laptop", 0.46, 0.040, 100),
    "mug": CategoryStats("mug", 0.14, 0.015, 100),
}


@dataclass(frozen=True)
class PoseRanges:
    """Placement envelope for scene sampling (camera at origin, +z ahead)."""

    z_min: float = 0.6
    z_max: float = 2.0
    margin_px: float = 24.0

    def __post_init__(self):
        if not 0 < self.z_min < self.z_max:
            raise ValueError(f"need 0 < z_min < z_max, got {self.z_min}, {self.z_max}")


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption levels; all zero means clean observations."""

    pixel_noise_sigma: float = 0.0
    outlier_fraction: float = 0.0
    scale_rel_error: float = 0.0
    depth_rel_noise: float = 0.0

    def __post_init__(self):
        if self.pixel_noise_sigma < 0 or self.depth_rel_noise < 0:
            raise ValueError("noise sigmas must be >= 0")
        if not 0 <= self.outlier_fraction < 1:
            raise ValueError(f"outlier_fraction must be in [0, 1), got {self.outlier_fraction}")


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
    iou: float
    estimated_scale: float
    gt_scale: float
    pose: RigidPose
    gt_pose: RigidPose
    canonical_extents: tuple[float, float, float]

    def __post_init__(self):
        values = (self.rotation_error_deg, self.translation_error_cm, self.iou,
                  self.estimated_scale, self.gt_scale)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite experiment result: {values}")

    def to_ground_truth(self):
        return GroundTruthBox(self.category, self.gt_pose, self.gt_scale, self.canonical_extents)

    def to_detection(self):
        """Confidence-1 detection pre-matched to this trial's own ground truth
        (pairing is known by construction; no geometric matching needed)."""
        return DetectionRecord(
            self.category,
            1.0,
            self.pose,
            self.estimated_scale,
            self.canonical_extents,
            ground_truth=self.to_ground_truth(),
        )


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


def make_canonical_model(category, point_count=256):
    """Deterministic canonical point model for a category.

    Points are sampled on parametric stand-in surfaces (cylinders, a
    hemisphere, boxes, hinged slabs, a cylinder with handle) and normalized
    to the canonical convention (centered, unit bbox diagonal). The actual
    count lands near ``point_count`` (complete rings/grids are never
    truncated). Returns ``(model, canonical_extents)``.
    """
    if point_count < 32:
        raise ValueError(f"point_count must be >= 32, got {point_count}")
    raw = _raw_category_points(category, int(point_count))
    pts, _ = normalize_model(raw)
    extents = pts.max(axis=0) - pts.min(axis=0)
    return NocsModel(pts), extents


# -- scene sampling --------------------------------------------------------------

def _draw_scale(rng, stats: CategoryStats):
    lower = max(1e-6, stats.mean_scale - 3.0 * stats.std_dev)
    for _ in range(256):
        s = rng.normal(stats.mean_scale, stats.std_dev)
        if s > lower:
            return float(s)
    return stats.mean_scale


def sample_scene(
    category,
    rng_seed,
    pose_ranges: PoseRanges | None = None,
    scale_stats: CategoryStats | None = None,
    point_count=256,
) -> SyntheticScene:
    """Place one object fully inside the frame and record its projections.

    The ground-truth scale is drawn from Normal(mean, sigma) truncated to
    stay positive and above mean - 3 sigma. Placement rejection-samples the
    pose until every projected point lies inside the image margins; after
    100 attempts :class:`PlacementFailed` is raised. The camera is
    :data:`DEFAULT_INTRINSICS`.
    """
    ranges = pose_ranges or PoseRanges()
    stats = scale_stats or DEFAULT_CATEGORY_STATS[category]
    model, extents = make_canonical_model(category, point_count)
    rng = np.random.default_rng(rng_seed)
    lo = np.array([ranges.margin_px, ranges.margin_px])
    hi = np.array([IMAGE_WIDTH - ranges.margin_px, IMAGE_HEIGHT - ranges.margin_px])

    for _ in range(100):
        rotation = random_rotation(rng)
        s_gt = _draw_scale(rng, stats)
        # keep the object at a few object-diagonals of standoff so its full
        # extent fits the frame
        z_lo = max(ranges.z_min, 4.0 * s_gt)
        if z_lo >= ranges.z_max:
            continue
        z = rng.uniform(z_lo, ranges.z_max)
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
        iou=iou3d(
            box_from_estimate(est_pose, est_scale, scene.canonical_extents),
            box_from_estimate(scene.pose, scene.scale, scene.canonical_extents),
        ),
        estimated_scale=est_scale,
        gt_scale=scene.scale,
        pose=est_pose,
        gt_pose=scene.pose,
        canonical_extents=tuple(scene.canonical_extents),
    )


def run_decoupled(
    scene: SyntheticScene,
    corrupted: CorruptedObservations,
    predictor,
    stats: CategoryStats | None = None,
    noise: NoiseSpec = NoiseSpec(),
    trial: int = 0,
) -> ExperimentResult:
    """Scale from the predictor, pose from RANSAC-PnP on the scaled model."""
    stats = stats or DEFAULT_CATEGORY_STATS[scene.category]
    observation = ScaleObservation(scene.category, gt_scale=scene.scale)
    delta = predictor.predict_offset(observation, stats)
    prediction = recover_scale(stats, delta)
    metric_points = scale_model_points(prediction.scale, scene.model.points)
    solved = ransac_pnp(corrupted.pixels, metric_points, scene.intrinsics)
    return _result(scene, "decoupled", noise, trial, solved.pose, prediction.scale)


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
    sim = umeyama_align(scene.model.points, cam_points, estimate_scale=True)
    pose = RigidPose(sim.rotation, sim.translation)
    return _result(scene, "coupled", noise, trial, pose, sim.scale)


# -- factorial grid ----------------------------------------------------------------

_TRIAL_CSV_HEADER = (
    "category,pipeline,pixel_noise_sigma,outlier_fraction,scale_rel_error,"
    "depth_rel_noise,trial,rotation_error_deg,translation_error_cm,iou,"
    "estimated_scale,gt_scale"
)

_SUMMARY_CSV_HEADER = (
    "category,pipeline,pixel_noise_sigma,outlier_fraction,scale_rel_error,"
    "depth_rel_noise,trials,median_rotation_error_deg,mean_rotation_error_deg,"
    "median_translation_error_cm,mean_translation_error_cm,mean_iou,"
    "IoU50,IoU75,10cm,10deg,10deg10cm"
)


@dataclass(frozen=True)
class GridResult:
    trials: tuple[ExperimentResult, ...]

    def to_records(self, pipeline):
        """Detections and ground truths for the evaluation suite.

        The detections come pre-matched to their own trial's ground truth,
        so they feed ``record_metrics`` directly; no geometric matching
        pass is needed (or appropriate) for simulator output.
        """
        rows = [r for r in self.trials if r.pipeline == pipeline]
        return [r.to_detection() for r in rows], [r.to_ground_truth() for r in rows]

    def trials_csv(self):
        lines = [_TRIAL_CSV_HEADER]
        for r in self.trials:
            ns = r.noise
            lines.append(
                ",".join(
                    [r.category, r.pipeline]
                    + [repr(float(v)) for v in (ns.pixel_noise_sigma, ns.outlier_fraction,
                                                ns.scale_rel_error, ns.depth_rel_noise)]
                    + [str(r.trial)]
                    + [
                        repr(float(v))
                        for v in (
                            r.rotation_error_deg,
                            r.translation_error_cm,
                            r.iou,
                            r.estimated_scale,
                            r.gt_scale,
                        )
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def summary_rows(self):
        """One row per (category, noise, pipeline) cell, in first-seen order.

        Every figure comes from the stored errors and IoU of the cell's
        results; the AP columns rank the results in trial order, since
        every simulated detection has confidence 1.
        """
        cells = {}
        for r in self.trials:
            cells.setdefault((r.category, r.noise, r.pipeline), []).append(r)
        rows = []
        for (category, noise, pipeline), cell in cells.items():
            rot = np.array([r.rotation_error_deg for r in cell])
            trans = np.array([r.translation_error_cm for r in cell])
            ious = np.array([r.iou for r in cell])
            rows.append(
                {
                    "category": category,
                    "pipeline": pipeline,
                    "noise": noise,
                    "trials": len(cell),
                    "median_rotation_error_deg": float(np.median(rot)),
                    "mean_rotation_error_deg": float(rot.mean()),
                    "median_translation_error_cm": float(np.median(trans)),
                    "mean_translation_error_cm": float(trans.mean()),
                    "mean_iou": float(ious.mean()),
                    "ap": table_ap(ious, rot, trans, len(cell)),
                }
            )
        return rows

    def summary_csv(self):
        lines = [_SUMMARY_CSV_HEADER]
        for row in self.summary_rows():
            ns = row["noise"]
            lines.append(
                ",".join(
                    [row["category"], row["pipeline"]]
                    + [repr(float(v)) for v in (ns.pixel_noise_sigma, ns.outlier_fraction,
                                                ns.scale_rel_error, ns.depth_rel_noise)]
                    + [str(row["trials"])]
                    + [
                        repr(float(row[k]))
                        for k in (
                            "median_rotation_error_deg",
                            "mean_rotation_error_deg",
                            "median_translation_error_cm",
                            "mean_translation_error_cm",
                            "mean_iou",
                        )
                    ]
                    + [repr(float(v)) for v in row["ap"]]
                )
            )
        return "\n".join(lines) + "\n"


def run_grid(
    categories,
    noise_specs,
    trials,
    master_seed=0,
    stats_by_category=None,
    point_count=192,
    predictor_kind="oracle",
) -> GridResult:
    """Full factorial (category x noise point x trial) over both pipelines.

    Per trial, one scene and one corruption are shared by the two arms so
    comparisons are paired. The decoupled arm's scale predictor is either
    the oracle with the noise spec's systematic ``scale_rel_error``
    (``predictor_kind="oracle"``) or the mean-scale baseline that ignores
    the instance entirely (``"mean"``, the anchor-only ablation arm). Seeds
    derive from (master_seed, cell, trial), making the whole grid a pure
    function of its arguments.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if predictor_kind not in ("oracle", "mean"):
        raise ValueError(f"predictor_kind must be 'oracle' or 'mean', got {predictor_kind!r}")
    categories = list(categories)
    noise_specs = list(noise_specs)
    stats_map = dict(DEFAULT_CATEGORY_STATS)
    if stats_by_category:
        stats_map.update(stats_by_category)

    results = []
    for cell, (category, noise) in enumerate(
        (c, s) for c in categories for s in noise_specs
    ):
        stats = stats_map[category]
        if predictor_kind == "mean":
            predictor = MeanScalePredictor()
        else:
            predictor = OraclePredictor(rel_error=noise.scale_rel_error)
        for trial in range(trials):
            scene = sample_scene(
                category,
                rng_seed=(master_seed, cell, trial, 0),
                scale_stats=stats,
                point_count=point_count,
            )
            observations = corrupt(scene, noise, seed=(master_seed, cell, trial, 1))
            results.append(
                run_decoupled(
                    scene,
                    observations,
                    predictor,
                    stats=stats,
                    noise=noise,
                    trial=trial,
                )
            )
            results.append(run_coupled(scene, observations, noise=noise, trial=trial))
    return GridResult(tuple(results))
