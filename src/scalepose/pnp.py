"""Perspective-n-Point pose solving from 2D-3D correspondences.

The pose path of the decoupled pipeline: the pose is solved on the
canonical-space model points and its callers multiply only the translation
by the metric scale, so errors in the scale estimate cannot bend the
rotation (scaling model points by alpha leaves every reprojection unchanged
when the translation scales by alpha with them).

Solvers:

* :func:`solve_pnp_minimal` -- P3P on three points plus a disambiguation
  point: one sample of the block solver inside RANSAC;
* :func:`solve_pnp_lsq`     -- DLT initialization + Levenberg-Marquardt
  refinement for 6+ correspondences;
* :func:`refine_pnp`        -- Levenberg-Marquardt reprojection refinement;
* :func:`ransac_pnp`        -- robust loop with adaptive termination that
  solves and scores its samples in blocks, then replays them in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels as kernels
from .errors import (
    ConsensusNotFound,
    DegenerateSample,
    DimensionMismatch,
    DivergedBehindCamera,
    InsufficientCorrespondences,
    NoRealSolution,
    RankDeficient,
)
from .geometry import (
    CameraIntrinsics,
    RigidPose,
    _frozen,
    backproject,
    nearest_rotation,
    rotation_from_rotvec,
)

MINIMAL_SAMPLE_SIZE = 4

# RANSAC samples solved and scored together. A block's arrays hold up to
# 4 * SAMPLE_BLOCK candidates against every point. A larger fixed block
# slows solves that stop within a few samples, since each sample is one
# scalar P3P call and work past the stop point is thrown away; a block that
# starts at 8 and grows would speed up long solves instead.
SAMPLE_BLOCK = 8

# Levenberg-Marquardt termination (step norm, predicted cost decrease,
# accepted-step cap) and initial damping, relative to diag(JtJ).
LM_STEP_TOL = 1e-10
LM_COST_TOL = 1e-12
LM_MAX_ITERATIONS = 50
LM_INITIAL_DAMPING = 1e-3


@dataclass(frozen=True)
class RansacConfig:
    reprojection_threshold: float = 2.0
    max_iterations: int = 1000
    confidence: float = 0.999
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.reprojection_threshold < math.inf:
            raise ValueError(f"reprojection_threshold must be finite and > 0, got {self.reprojection_threshold}")
        if not 0 < self.confidence < 1:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (isinstance(self.rng_seed, (int, np.integer)) and self.rng_seed >= 0):
            raise ValueError(f"rng_seed must be a non-negative integer, got {self.rng_seed!r}")


@dataclass(frozen=True)
class PnPResult:
    """Robust solve output: pose, per-correspondence inlier mask, mean
    reprojection error over the inliers, and iterations executed.

    ``stop_reason`` says why the sampling loop ended: ``"confidence"``
    once the adaptive bound was met, ``"max_iterations"`` at the cap.
    ``rejected_degenerate`` counts samples whose model triangle is
    (near-)collinear by one scale-invariant rule (twice its area at most
    ``1e-10`` times its longer edge at the first vertex squared), so the
    count does not change with the model's size; ``rejected_no_solution``
    counts samples whose P3P candidates all failed. Neither exceeds
    ``iterations_used``.
    """

    pose: RigidPose
    inlier_mask: np.ndarray
    mean_reprojection_error: float
    iterations_used: int
    stop_reason: str
    rejected_degenerate: int
    rejected_no_solution: int

    def __post_init__(self):
        object.__setattr__(self, "inlier_mask", _frozen(self.inlier_mask, (None,), "inlier mask", bool))

    @property
    def inlier_count(self):
        return int(np.count_nonzero(self.inlier_mask))


def _validate_inputs(image_points, model_points):
    image = _frozen(image_points, (None, 2), "image points")
    model = _frozen(model_points, (None, 3), "model points")
    if len(image) != len(model):
        raise DimensionMismatch(f"correspondence count mismatch: {len(image)} pixels vs {len(model)} points")
    return image, model


def _bearings(image_points, k: CameraIntrinsics):
    rays = backproject(image_points, 1.0, k)
    return rays / np.linalg.norm(rays, axis=1, keepdims=True)


def _norms(v):
    """Row norms of (M, 3) vectors through ``np.vecdot`` (NumPy 2.0). Its dot
    product may round differently from ``np.linalg.norm``: with OpenBLAS
    about one row in ten differs in the last bit, so :func:`_bearings`,
    whose rays every pose depends on, keeps ``np.linalg.norm``."""
    return np.sqrt(np.vecdot(v, v))


def _cross(a, b):
    """Cross products of the rows of (M, 3) arrays, written out in
    ``np.cross``'s own operation order (so bit for bit the same) without its
    axis handling, which costs more than the arithmetic at these sizes."""
    a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
    b0, b1, b2 = b[:, 0], b[:, 1], b[:, 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=1)


def _triad_frames(p):
    """Frames of a stack of triangles ``p`` (M, 3, 3), orthonormal to
    rounding: columns are the first edge, the in-plane normal to it and the
    plane normal, whose rounding component along the first edge (up to 1e-7
    near the mask edge) is removed before it is normalised. Returns the
    frames and a mask of the non-degenerate triangles, whose twice-area
    exceeds ``1e-10`` times the longer edge at the first vertex squared: a
    scale-invariant rule, the only collinearity test."""
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    n1 = _norms(e1)
    with np.errstate(divide="ignore", invalid="ignore"):
        e1 = e1 / n1[:, None]
        w = _cross(e1, e2)
        w -= np.vecdot(w, e1)[:, None] * e1
        nw = _norms(w)
        w = w / nw[:, None]
        ok = n1 * nw > 1e-10 * np.square(np.maximum(n1, _norms(e2)))
    return np.stack([e1, _cross(w, e1), w], axis=2), ok


def _collinear(model):
    """Whether one rank-one test of the centred model points shows that the
    rule of :func:`_triad_frames` rejects every triangle of ``model``.

    Take ``h``, the points' largest distance from their principal line, and
    ``m``, the longer of a triangle's two edges from its first vertex
    measured along that line. Twice the triangle's area is at most
    ``4 h m + 4 h^2``, and ``m`` is at least the smallest, over consecutive
    gaps between the points' sorted positions along the line, of the larger
    of two neighbouring gaps. So ``h <= 2e-11 m`` holds twice every area
    below ``1e-10 m^2``, which the rule rejects; ``h`` and the gaps carry a
    rounding allowance of 16 ulps of the points' largest radius. Needs at
    least 3 points.
    """
    centred = model - model.mean(axis=0)
    axis = np.linalg.svd(centred, full_matrices=False)[2][0]
    along = centred @ axis
    gaps = np.diff(np.sort(along))
    span = np.maximum(gaps[1:], gaps[:-1]).min()
    slack = 16.0 * np.finfo(np.float64).eps * _norms(centred).max()
    return _norms(centred - along[:, None] * axis).max() + slack <= 2e-11 * (span - slack)


class _Block(NamedTuple):
    """P3P candidates of a block of samples (see :func:`_p3p_block`)."""

    degenerate: np.ndarray  # (S,) bool: (near-)collinear model triple
    rotations: np.ndarray  # (H, 3, 3)
    translations: np.ndarray  # (H, 3)
    errors: np.ndarray  # (H, N) pixel error of every point, inf behind the camera
    starts: np.ndarray  # (S + 1,) sample s owns candidates starts[s]:starts[s + 1]


def _p3p_block(image, model, rays, samples, k):
    """P3P over a block of 4-point samples ``samples`` (S, 4) of indices.

    The frames of the S model triangles are computed once, and a sample
    whose triangle fails their mask is degenerate. The block's squared
    sides and bearing cosines are computed once, as Python floats; each
    non-degenerate sample passes its six to ``kernels.p3p_distance_sets``
    (Grunert, scalar, one call per sample). Each distance set places the
    triangle in the camera frame. Both frames are orthonormal to rounding,
    so the camera frame times the model frame's transpose is the
    candidate's rotation, with no SVD. Every candidate is projected once,
    all N points in one ``kernels.pixel_errors`` call; candidates with a
    bad camera frame or a sample point at non-positive depth are dropped,
    the rest stay in kernel order (by sample, then by sorted distance
    triple), and their error rows are returned for scoring.
    """
    tri = model[samples[:, :3]]
    src, ok = _triad_frames(tri)
    degenerate = ~ok

    # squared sides opposite each point and the bearing cosines between
    # the other two, as Python floats for the scalar kernel
    sides = np.square(tri[:, [1, 0, 0]] - tri[:, [2, 2, 1]]).sum(axis=2).tolist()
    bear = rays[samples[:, :3]]
    cosines = np.vecdot(bear[:, [1, 0, 0]], bear[:, [2, 2, 1]]).tolist()
    owner, dists = [], []
    for s in np.flatnonzero(ok).tolist():
        sets = kernels.p3p_distance_sets(*sides[s], *cosines[s])
        owner.extend([s] * len(sets))
        dists.extend(sets)
    owner = np.array(owner, dtype=np.intp)
    dists = np.array(dists).reshape(-1, 3)

    cam = dists[:, :, None] * bear[owner]
    dst, framed = _triad_frames(cam)
    rot = dst @ src[owner].transpose(0, 2, 1)
    framed &= np.isfinite(rot).all(axis=(1, 2))
    owner, cam, rot = owner[framed], cam[framed], rot[framed]
    t = cam.mean(axis=1) - (rot @ tri[owner].mean(axis=1)[:, :, None])[:, :, 0]

    points = model @ rot.transpose(0, 2, 1)
    points += t[:, None]
    errors = kernels.pixel_errors(points, image, k.fx, k.fy, k.cx, k.cy)
    rows = np.arange(len(owner))[:, None]
    kept = ~np.any(points[rows, samples[owner], 2] <= 0, axis=1)
    starts = np.searchsorted(owner[kept], np.arange(len(samples) + 1))
    return _Block(degenerate, rot[kept], t[kept], errors[kept], starts)


def solve_pnp_minimal(image_points, model_points, intrinsics):
    """P3P minimal solver over exactly four correspondences.

    The first three points feed Grunert's triangle construction (up to four
    distance solutions); the fourth point disambiguates. Candidates where
    any of the four points falls at non-positive camera depth are dropped,
    and the survivors are ordered by the fourth point's reprojection error.
    This is one sample of the block solver inside :func:`ransac_pnp`.

    Returns a non-empty list of :class:`RigidPose`.

    Raises
    ------
    DegenerateSample
        Collinear 3D triple among the first three points.
    NoRealSolution
        No candidate survives (no real quartic root or all fail cheirality).
    """
    image, model = _validate_inputs(image_points, model_points)
    if image.shape[0] != MINIMAL_SAMPLE_SIZE:
        raise ValueError(f"minimal solver needs exactly 4 correspondences, got {image.shape[0]}")

    rays = _bearings(image, intrinsics)
    block = _p3p_block(image, model, rays, np.arange(MINIMAL_SAMPLE_SIZE)[None], intrinsics)
    if block.degenerate[0]:
        raise DegenerateSample("first three model points are (near-)collinear")
    if not len(block.rotations):
        raise NoRealSolution("no P3P candidate passed cheirality")
    order = np.argsort(block.errors[:, 3], kind="stable")
    return [RigidPose(block.rotations[j], block.translations[j]) for j in order]


def solve_pnp_lsq(image_points, model_points, intrinsics):
    """Least-squares PnP: DLT over normalized coordinates, nearest-SO(3)
    projection of the linear rotation, whose mean singular value scales
    the translation, then Levenberg-Marquardt refinement (:func:`refine_pnp`).

    Requires >= 6 correspondences in a non-degenerate configuration.

    Raises
    ------
    InsufficientCorrespondences, RankDeficient, DivergedBehindCamera
    """
    image, model = _validate_inputs(image_points, model_points)
    n = image.shape[0]
    if n < 6:
        raise InsufficientCorrespondences(f"least-squares PnP needs >= 6 correspondences, got {n}")

    xn, yn, _ = backproject(image, 1.0, intrinsics).T

    a = np.zeros((2 * n, 12))
    homog = np.column_stack([model, np.ones(n)])
    a[0::2, 0:4] = homog
    a[0::2, 8:12] = -xn[:, None] * homog
    a[1::2, 4:8] = homog
    a[1::2, 8:12] = -yn[:, None] * homog

    _, sv, vt = np.linalg.svd(a, full_matrices=False)
    # rank 11 required for a unique (up to scale) projection matrix
    if sv[-2] <= 1e-10 * sv[0]:
        raise RankDeficient(
            "DLT design matrix has a degenerate null space (coplanar or otherwise degenerate points)"
        )
    m = vt[-1].reshape(3, 4)
    if np.linalg.det(m[:, :3]) < 0:
        m = -m
    rot = nearest_rotation(m[:, :3])
    # with m = U S V^T and rot = U V^T, rot^T m = V S V^T: its trace is the
    # sum of the singular values
    lam = np.trace(rot.T @ m[:, :3]) / 3.0
    initial = RigidPose(rot, m[:, 3] / lam)
    return refine_pnp(initial, image, model, intrinsics)


def refine_pnp(initial, image_points, model_points, intrinsics, full_output=False):
    """Levenberg-Marquardt minimization of the total squared reprojection
    error, with Nielsen's damping update (Madsen, Nielsen & Tingleff,
    "Methods for Non-Linear Least Squares Problems", 2004, section 3.2).

    Each step solves ``(JtJ + lam * diag(JtJ)) delta = -Jtr`` once, from
    one ``kernels.reprojection_normal_eqs`` evaluation. Marquardt's
    diagonal scaling makes the damping invariant to the model's size and
    keeps the damped matrix positive definite; the damping's floor at the
    smallest normal float does so even where a parameter moves no residual
    (a model on one line through its origin, along the camera's x axis),
    so no fallback solve is needed. The rotation is updated through
    axis-angle increments on the tangent space,
    ``rotation_from_rotvec(omega) @ R``: a product of rotations, not
    projected back onto SO(3), that drifts by about 1e-16 per step. A step
    is accepted when it loses no point to depth and strictly lowers the
    cost, so the returned cost never exceeds the initial cost; ``lam``
    then falls by the gain ratio of the actual to the predicted decrease,
    and a rejected step raises it. Terminates after evaluating a step
    whose norm is below ``LM_STEP_TOL`` (1e-10) or whose predicted
    decrease is below ``LM_COST_TOL`` (1e-12), or after
    ``LM_MAX_ITERATIONS`` (50) accepted steps.

    With ``full_output=True`` returns ``(pose, info)`` where info carries
    ``cost_history`` (cost after the initial evaluation and each accepted
    step), ``iterations`` (accepted steps) and ``final_cost`` (the returned
    pose's cost).

    Raises
    ------
    DivergedBehindCamera
        If fewer than 4 points have positive depth under ``initial``.
    """
    image, model = _validate_inputs(image_points, model_points)
    k = intrinsics
    rot, t = initial.rotation, initial.translation

    jtj, jtr, cost, n_valid = kernels.reprojection_normal_eqs(
        rot, t, model, image, k.fx, k.fy, k.cx, k.cy
    )
    if n_valid < MINIMAL_SAMPLE_SIZE:
        raise DivergedBehindCamera(
            f"initial pose leaves only {n_valid} point(s) at positive depth"
        )
    history = [cost]
    iterations = 0
    lam, nu = LM_INITIAL_DAMPING, 2.0
    while iterations < LM_MAX_ITERATIONS:
        scale = np.maximum(lam * np.diag(jtj), np.finfo(np.float64).tiny)
        delta = -np.linalg.solve(jtj + np.diag(scale), jtr)
        predicted = delta @ (scale * delta - jtr)
        cand_rot = rotation_from_rotvec(delta[:3]) @ rot
        cand_t = t + delta[3:]
        cand = kernels.reprojection_normal_eqs(
            cand_rot, cand_t, model, image, k.fx, k.fy, k.cx, k.cy
        )
        if cand[3] >= n_valid and cand[2] < cost:
            # Nielsen's update: a gain ratio of 1 or more divides lam by 3.
            # A predicted decrease below LM_COST_TOL ends the loop below, so
            # bounding it there only keeps the ratio finite on that step.
            gain = min((cost - cand[2]) / max(predicted, LM_COST_TOL), 1.0)
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
            iterations += 1
            rot, t = cand_rot, cand_t
            jtj, jtr, cost, n_valid = cand
            history.append(cost)
        else:
            lam *= nu
            nu *= 2.0
        if np.linalg.norm(delta) < LM_STEP_TOL or predicted < LM_COST_TOL:
            break

    pose = RigidPose(rot, t)
    if full_output:
        return pose, {"cost_history": history, "iterations": iterations, "final_cost": cost}
    return pose


def _adaptive_iteration_bound(inlier_ratio, confidence):
    """Iterations that draw an all-inlier sample with ``confidence``; ``inlier_ratio`` > 0."""
    w4 = inlier_ratio ** MINIMAL_SAMPLE_SIZE
    if w4 >= 1.0:
        return 0
    denom = math.log1p(-w4)
    return math.ceil(math.log1p(-confidence) / denom)


def ransac_pnp(image_points, model_points, intrinsics, config=None):
    """RANSAC over minimal P3P samples with Levenberg-Marquardt polish.

    All samples come from one generator seeded with ``rng_seed``: sample
    ``i`` is the first four indices of the argsort of row ``i`` of its
    uniform draws, each row ``n`` wide and consumed in order. The sample
    sequence is therefore a function of ``(rng_seed, n)`` alone, and
    results are reproducible bit for bit. A hypothesis beats the incumbent
    on higher inlier count, then lower mean inlier error; an exact tie goes
    to the earlier iteration, then to the earlier candidate in kernel order
    (:func:`_p3p_block`). The iteration budget shrinks adaptively from the
    best inlier ratio and the requested confidence.

    Samples are drawn, solved and scored ``SAMPLE_BLOCK`` at a time, then
    replayed in iteration order: the stopping rule is checked before each
    sample and each sample's candidates are taken in kernel order, so the
    result is that of the one-sample-at-a-time loop, for any block size;
    work past the stop point is thrown away.

    The final pose is refined on the best consensus set by
    :func:`refine_pnp` and the inlier mask is recomputed against the
    refined pose.

    Raises
    ------
    InsufficientCorrespondences
        Fewer than 4 correspondences.
    ConsensusNotFound
        No hypothesis reached 4 inliers, or the model points are collinear
        (checked before the first sample: see :func:`_collinear`).
    """
    image, model = _validate_inputs(image_points, model_points)
    cfg = config or RansacConfig()
    n = image.shape[0]
    if n < MINIMAL_SAMPLE_SIZE:
        raise InsufficientCorrespondences(
            f"RANSAC needs >= {MINIMAL_SAMPLE_SIZE} correspondences, got {n}"
        )
    if _collinear(model):
        raise ConsensusNotFound("model points are collinear: every sample is degenerate")
    k = intrinsics
    rays = _bearings(image, k)
    rng = np.random.default_rng(cfg.rng_seed)

    best_count = 0
    best_mean = math.inf
    best = None
    needed = math.inf
    iteration = degenerate = no_solution = 0
    while iteration < cfg.max_iterations and iteration < needed:
        end = min(iteration + SAMPLE_BLOCK, cfg.max_iterations, needed)
        samples = rng.random((end - iteration, n)).argsort(axis=1)[:, :MINIMAL_SAMPLE_SIZE]
        block = _p3p_block(image, model, rays, samples, k)
        errors = block.errors
        inliers = errors < cfg.reprojection_threshold
        counts = np.count_nonzero(inliers, axis=1)
        for s in range(len(samples)):
            if iteration >= needed:
                break
            iteration += 1
            if block.degenerate[s]:
                degenerate += 1
                continue
            candidates = range(block.starts[s], block.starts[s + 1])
            if not candidates:
                no_solution += 1
                continue
            for j in candidates:
                count = int(counts[j])
                if count == 0 or count < best_count:
                    continue
                mean_err = float(errors[j][inliers[j]].mean())
                if count > best_count or mean_err < best_mean:
                    best_count, best_mean = count, mean_err
                    best = (block.rotations[j], block.translations[j], inliers[j])
                    needed = _adaptive_iteration_bound(count / n, cfg.confidence)

    if best is None or best_count < MINIMAL_SAMPLE_SIZE:
        raise ConsensusNotFound(
            f"best consensus has {best_count} inlier(s) after {iteration} iteration(s)"
        )

    rotation, translation, best_mask = best
    best_pose = RigidPose(rotation, translation)
    refined = refine_pnp(best_pose, image[best_mask], model[best_mask], k)
    errors = kernels.reprojection_errors(
        refined.rotation, refined.translation, model, image, k.fx, k.fy, k.cx, k.cy
    )
    final_mask = errors < cfg.reprojection_threshold
    if not np.any(final_mask):
        raise ConsensusNotFound("refined pose lost all inliers")
    mean_err = float(errors[final_mask].mean())
    stop_reason = "confidence" if iteration >= needed else "max_iterations"
    return PnPResult(refined, final_mask, mean_err, iteration, stop_reason, degenerate, no_solution)
