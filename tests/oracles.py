"""Reference implementations the tests compare the package against.

They are independent of the code they check: box corners and a seeded
Monte-Carlo IoU for the exact oriented-box IoU, an explicit residual
Jacobian for the Gauss-Newton normal equations, the two-pass
evaluation that the one-pass ``match_detections`` replaced, and the
per-cell simulate loop that ``run_grid``'s shared rows replaced.
"""

from collections import Counter

import numpy as np

from scalepose.boxes import OrientedBox3, iou3d
from scalepose.errors import EmptyRecordSet
from scalepose.evaluation import RecordMetrics, category_rotation_error_deg
from scalepose.geometry import translation_error_cm
from scalepose.pnp import _validate_inputs
from scalepose.scale import gt_offset
from scalepose.synth import (
    CATEGORIES,
    DEFAULT_CATEGORY_STATS,
    GridResult,
    corrupt,
    run_coupled,
    run_decoupled,
    sample_scene,
    solve_canonical,
)


_CORNER_SIGNS = np.array(
    [
        [-1, -1, -1],
        [+1, -1, -1],
        [+1, +1, -1],
        [-1, +1, -1],
        [-1, -1, +1],
        [+1, -1, +1],
        [+1, +1, +1],
        [-1, +1, +1],
    ],
    dtype=np.float64,
)


def corners(box: OrientedBox3):
    """World-frame corner positions, (8, 3)."""
    return box.pose.transform(_CORNER_SIGNS * (box.extents / 2.0))


def points_in_box_mask(points, rotation, translation, half_extents):
    """Boolean mask of points inside an oriented box (boundary counts as in)."""
    points = np.asarray(points, dtype=np.float64)
    rotation = np.asarray(rotation, dtype=np.float64)
    translation = np.asarray(translation, dtype=np.float64)
    half_extents = np.asarray(half_extents, dtype=np.float64)
    local = (points - translation) @ rotation
    return np.all(np.abs(local) <= half_extents, axis=1)


def contains(box: OrientedBox3, points):
    """Boolean mask of points inside the box (boundary included)."""
    return points_in_box_mask(
        np.atleast_2d(np.asarray(points, dtype=np.float64)),
        box.pose.rotation,
        box.pose.translation,
        box.extents / 2.0,
    )


def iou3d_mc(a: OrientedBox3, b: OrientedBox3, samples, seed=0) -> float:
    """Monte-Carlo IoU: rejection sampling in the union's bounding volume.

    Deterministic for a fixed seed; an independent oracle for the exact
    method.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    both = np.vstack([corners(a), corners(b)])
    lo = both.min(axis=0)
    hi = both.max(axis=0)
    rng = np.random.default_rng(seed)
    n_inter = 0
    n_union = 0
    remaining = int(samples)
    chunk = 262_144
    while remaining > 0:
        take = min(chunk, remaining)
        remaining -= take
        pts = rng.uniform(lo, hi, size=(take, 3))
        in_a = contains(a, pts)
        in_b = contains(b, pts)
        n_inter += int(np.count_nonzero(in_a & in_b))
        n_union += int(np.count_nonzero(in_a | in_b))
    if n_union == 0:
        return 0.0
    return n_inter / n_union


def reprojection_residuals_jacobian(pose, image_points, model_points, intrinsics):
    """Residual vector and analytic Jacobian of the refinement cost.

    Residuals are (2k,) for the k points at positive depth; the Jacobian is
    (2k, 6) over the local parameters (axis-angle increment, translation
    increment) evaluated at zero. Kept independent of the kernels so tests
    can cross-check both against finite differences.
    """
    image, model = _validate_inputs(image_points, model_points)
    k = intrinsics
    rx = model @ pose.rotation.T
    pc = rx + pose.translation
    ok = pc[:, 2] > 0
    rx, pc, px = rx[ok], pc[ok], image[ok]
    x, y, z = pc[:, 0], pc[:, 1], pc[:, 2]
    invz = 1.0 / z

    res = np.empty(2 * len(px))
    res[0::2] = k.fx * x * invz + k.cx - px[:, 0]
    res[1::2] = k.fy * y * invz + k.cy - px[:, 1]

    jac = np.empty((2 * len(px), 6))
    au = k.fx * invz
    bu = -k.fx * x * invz * invz
    av = k.fy * invz
    cv = -k.fy * y * invz * invz
    jac[0::2, 0] = bu * rx[:, 1]
    jac[0::2, 1] = au * rx[:, 2] - bu * rx[:, 0]
    jac[0::2, 2] = -au * rx[:, 1]
    jac[0::2, 3] = au
    jac[0::2, 4] = 0.0
    jac[0::2, 5] = bu
    jac[1::2, 0] = -av * rx[:, 2] + cv * rx[:, 1]
    jac[1::2, 1] = -cv * rx[:, 0]
    jac[1::2, 2] = av * rx[:, 0]
    jac[1::2, 3] = 0.0
    jac[1::2, 4] = av
    jac[1::2, 5] = cv
    return res, jac, ok


def _confidence_order(records):
    """Indices by descending confidence; input order breaks ties."""
    return np.argsort(-np.array([r.confidence for r in records], dtype=np.float64), kind="stable")


def estimate_box(pose, scale, canonical_extents):
    """The box of a pose/scale estimate: its extents are the scale times the
    canonical extents, the product ``boxes.box_stack`` forms."""
    return OrientedBox3(pose, float(scale) * np.asarray(canonical_extents, dtype=np.float64))


def _box(record):
    """The box of one detection or ground-truth record."""
    return estimate_box(record.pose, record.scale, record.canonical_extents)


def reference_pose_metrics(detection, gt, use_symmetry=True):
    """IoU, rotation error (deg) and translation error (cm) of one matched pair."""
    return {
        "iou": iou3d(_box(detection), _box(gt)),
        "rot_err_deg": category_rotation_error_deg(
            detection.category, detection.pose.rotation, gt.pose.rotation, use_symmetry
        ),
        "trans_err_cm": translation_error_cm(detection.pose.translation, gt.pose.translation),
    }


def reference_record_metrics(detections, ground_truths, use_symmetry=True):
    """Matching and metric columns in two passes.

    Pass one visits all detections in one global confidence order and gives
    each the untaken same-category truth of highest positive IoU. Pass two
    groups the matched pairs by ground-truth category, orders each group by
    confidence again and measures every matched pair afresh, IoU included.
    """
    detections = list(detections)
    gt_boxes = [_box(gt) for gt in ground_truths]
    taken = [False] * len(ground_truths)
    matched = [None] * len(detections)
    for idx in _confidence_order(detections):
        det = detections[idx]
        det_box = _box(det)
        best_j = -1
        best_iou = 0.0
        for j, gt in enumerate(ground_truths):
            if taken[j] or gt.category != det.category:
                continue
            overlap = iou3d(det_box, gt_boxes[j])
            if overlap > best_iou:
                best_iou = overlap
                best_j = j
        if best_j >= 0:
            taken[best_j] = True
            matched[idx] = ground_truths[best_j]

    n_gt = Counter(gt.category for gt in ground_truths)
    if not n_gt:
        raise EmptyRecordSet("no ground-truth categories to evaluate")
    by_category = {cat: [] for cat in sorted(n_gt)}
    skipped = []
    for det, gt in zip(detections, matched):
        by_category.get(det.category, skipped).append((det, gt))
    groups = [[pairs[i] for i in _confidence_order([det for det, _ in pairs])] for pairs in by_category.values()]
    width = max(len(group) for group in groups)
    columns = {key: np.full((len(groups), width), np.nan) for key in ("iou", "rot_err_deg", "trans_err_cm")}
    for i, group in enumerate(groups):
        for rank, (det, gt) in enumerate(group):
            if gt is not None:
                for key, value in reference_pose_metrics(det, gt, use_symmetry).items():
                    columns[key][i, rank] = value
    return RecordMetrics(
        categories=tuple(by_category),
        n_gt=tuple(n_gt[cat] for cat in by_category),
        **columns,
        skipped_categories=tuple(sorted({det.category for det, _ in skipped})),
    )


def reference_grid(categories, noise_specs, trials, master_seed=0, point_count=192, predictor_kind="oracle"):
    """``run_grid`` as a plain per-cell loop: every (category, noise point,
    trial) samples its scene, corrupts it, solves it and runs both arms
    afresh, and every row's IoU is measured on its own."""
    results = []
    for category in categories:
        key = CATEGORIES.index(category)
        for noise in noise_specs:
            for trial in range(trials):
                scene = sample_scene(category, rng_seed=(master_seed, key, trial, 0), point_count=point_count)
                observations = corrupt(scene, noise, seed=(master_seed, key, trial, 1))
                if predictor_kind == "mean":
                    delta = 0.0
                else:
                    delta = gt_offset(scene.scale * (1.0 + noise.scale_rel_error), DEFAULT_CATEGORY_STATS[category])
                canonical = solve_canonical(scene, observations)
                results.append(run_decoupled(scene, canonical, delta, noise=noise, trial=trial))
                results.append(run_coupled(scene, observations, noise=noise, trial=trial))
    ious = [
        iou3d(
            estimate_box(r.pose, r.estimated_scale, r.canonical_extents),
            estimate_box(r.gt_pose, r.gt_scale, r.canonical_extents),
        )
        for r in results
    ]
    return GridResult(tuple(results), tuple(ious))
