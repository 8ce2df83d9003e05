"""Perspective-n-Point pose solving on metric model points.

The pose path of the decoupled pipeline: once canonical-space model points
have been scaled to metric size, the object pose is recovered purely from
2D-3D correspondences, so errors in the scale estimate cannot bend the
rotation (scaling model points by alpha leaves every reprojection
unchanged when the translation scales by alpha with them).

Solvers:

* :func:`solve_pnp_minimal` -- P3P on three points plus a disambiguation
  point: one sample of the block solver inside RANSAC;
* :func:`solve_pnp_lsq`     -- DLT initialization + Gauss-Newton refinement
  for 6+ correspondences;
* :func:`refine_pnp`        -- Gauss-Newton reprojection refinement;
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
    DivergedBehindCamera,
    InsufficientCorrespondences,
    NonPositiveScale,
    NoRealSolution,
    RankDeficient,
)
from .geometry import (
    ROTATION_TOL,
    CameraIntrinsics,
    RigidPose,
    nearest_rotation,
    nearest_rotations,
    rotation_from_rotvec,
)

MINIMAL_SAMPLE_SIZE = 4

# RANSAC samples solved and scored together. A block's arrays hold up to
# 4 * SAMPLE_BLOCK candidates against every point; larger blocks waste more
# work past the stop point and raise peak memory for little gain.
SAMPLE_BLOCK = 8

# Gauss-Newton termination (step norm, cost decrease, iteration cap).
GN_STEP_TOL = 1e-10
GN_COST_TOL = 1e-12
GN_MAX_ITERATIONS = 50


@dataclass(frozen=True)
class RansacConfig:
    reprojection_threshold: float = 2.0
    max_iterations: int = 1000
    confidence: float = 0.999
    rng_seed: int = 0

    def __post_init__(self):
        if not self.reprojection_threshold > 0:
            raise ValueError(f"reprojection_threshold must be > 0, got {self.reprojection_threshold}")
        if not 0 < self.confidence < 1:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class PnPResult:
    """Robust solve output: pose, per-correspondence inlier mask, mean
    reprojection error over the inliers, and iterations executed.

    ``stop_reason`` says why the sampling loop ended: ``"confidence"``
    once the adaptive bound was met, ``"max_iterations"`` at the cap.
    ``rejected_degenerate`` counts samples with a (near-)collinear model
    triple, ``rejected_no_solution`` samples whose P3P candidates all
    failed; neither exceeds ``iterations_used``.
    """

    pose: RigidPose
    inlier_mask: np.ndarray
    mean_reprojection_error: float
    iterations_used: int
    stop_reason: str
    rejected_degenerate: int
    rejected_no_solution: int

    def __post_init__(self):
        mask = np.asarray(self.inlier_mask, dtype=bool).copy()
        mask.flags.writeable = False
        object.__setattr__(self, "inlier_mask", mask)

    @property
    def inlier_count(self):
        return int(np.count_nonzero(self.inlier_mask))


def scale_model_points(scale, points):
    """Scale canonical-space model points to metric size (``s * P``)."""
    if not scale > 0:
        raise NonPositiveScale(f"scale must be positive, got {scale}")
    return np.asarray(points, dtype=np.float64) * float(scale)


def _validate_inputs(image_points, model_points):
    image = np.ascontiguousarray(image_points, dtype=np.float64)
    model = np.ascontiguousarray(model_points, dtype=np.float64)
    if image.ndim != 2 or image.shape[1] != 2:
        raise ValueError(f"image points must be (N, 2), got {image.shape}")
    if model.ndim != 2 or model.shape[1] != 3:
        raise ValueError(f"model points must be (N, 3), got {model.shape}")
    if image.shape[0] != model.shape[0]:
        raise ValueError(
            f"correspondence count mismatch: {image.shape[0]} pixels vs {model.shape[0]} points"
        )
    if not (np.all(np.isfinite(image)) and np.all(np.isfinite(model))):
        raise ValueError("correspondences contain non-finite values")
    return image, model


def _bearings(image_points, k: CameraIntrinsics):
    rays = np.empty((image_points.shape[0], 3))
    rays[:, 0] = (image_points[:, 0] - k.cx) / k.fx
    rays[:, 1] = (image_points[:, 1] - k.cy) / k.fy
    rays[:, 2] = 1.0
    return rays / np.linalg.norm(rays, axis=1, keepdims=True)


def _norms(v):
    """Row norms of (M, 3) vectors, bit-equal to ``np.linalg.norm`` per row
    (``np.vecdot`` takes the same dot product; it needs NumPy 2.0)."""
    return np.sqrt(np.vecdot(v, v))


def _triad_frames(p):
    """Orthonormal frames of a stack of triangles ``p`` (M, 3, 3): columns
    are the first edge, the in-plane normal to it and the plane normal.
    Returns the frames and a mask of the non-degenerate triangles."""
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    n1 = _norms(e1)
    with np.errstate(divide="ignore", invalid="ignore"):
        e1 = e1 / n1[:, None]
        w = np.cross(e1, e2)
        nw = _norms(w)
        w = w / nw[:, None]
    ok = (n1 != 0) & ~(nw < 1e-12 * n1 * np.maximum(1.0, _norms(e2)))
    return np.stack([e1, np.cross(w, e1), w], axis=2), ok


class _Block(NamedTuple):
    """P3P candidates of a block of samples (see :func:`_p3p_block`)."""

    degenerate: np.ndarray  # (S,) bool: (near-)collinear model triple
    invalid: dict  # sample -> (raw rotation, translation) failing RigidPose checks
    rotations: np.ndarray  # (H, 3, 3)
    translations: np.ndarray  # (H, 3)
    groups: list  # per sample, its candidates' indices in fourth-point order

    def check(self, s):
        """Raise the ValueError a RigidPose of sample ``s``'s failing
        candidate raises (scalar path, so the message is the same)."""
        if s in self.invalid:
            raw, t = self.invalid[s]
            RigidPose(nearest_rotation(raw), t)


def _p3p_block(image, model, rays, samples, k):
    """P3P over a block of 4-point samples ``samples`` (S, 4) of indices.

    Per sample, the first three points feed Grunert's distance sets
    (``kernels.p3p_distance_sets``, scalar); each distance set places the
    triangle in the camera frame and the triad frames of model and camera
    triangle give the rigid candidate. Frames, the nearest-rotation
    projection, cheirality on all four points and the fourth point's
    reprojection error run over the whole block. Candidates with a point
    at non-positive depth are dropped; the rest are grouped by sample and
    ordered by the fourth point's error (stable).
    """
    tri = model[samples[:, :3]]
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    edge = np.maximum(_norms(e1), _norms(e2))
    degenerate = _norms(np.cross(e1, e2)) <= 1e-10 * edge * edge

    owner, dists = [], []
    for s in np.flatnonzero(~degenerate):
        sets = kernels.p3p_distance_sets(tri[s], rays[samples[s, :3]])
        owner.extend([s] * len(sets))
        dists.extend(sets)
    owner = np.array(owner, dtype=np.intp)
    dists = np.array(dists).reshape(-1, 3)

    src, src_ok = _triad_frames(tri[owner])
    cam = dists[:, :, None] * rays[samples[owner, :3]]
    dst, dst_ok = _triad_frames(cam)
    raw = dst @ src.transpose(0, 2, 1)
    t = cam.mean(axis=1) - (raw @ tri[owner].mean(axis=1)[:, :, None])[:, :, 0]
    framed = src_ok & dst_ok
    finite = np.isfinite(raw).all(axis=(1, 2))
    rot = np.repeat(np.eye(3)[None], len(owner), axis=0)
    solvable = framed & finite
    rot[solvable] = nearest_rotations(raw[solvable])

    quad = model[samples[owner]]
    depths = (quad @ rot[:, 2, :, None])[:, :, 0] + t[:, 2, None]
    kept = solvable & ~np.any(depths <= 0, axis=1)

    # RigidPose's checks, for every candidate it would be built from
    orth = np.abs(rot.transpose(0, 2, 1) @ rot - np.eye(3)).max(axis=(1, 2))
    det = np.linalg.det(rot)
    proper = (
        np.isfinite(rot).all(axis=(1, 2))
        & np.isfinite(t).all(axis=1)
        & (orth <= ROTATION_TOL)
        & (np.abs(det - 1.0) <= ROTATION_TOL)
    )
    # nearest_rotation rejects a non-finite matrix before cheirality is
    # checked; RigidPose checks only the candidates that pass cheirality
    invalid = {}
    for j in np.flatnonzero((framed & ~finite) | (kept & ~proper)):
        invalid.setdefault(int(owner[j]), (raw[j], t[j]))

    rot, t, owner, quad = rot[kept], t[kept], owner[kept], quad[kept]
    fourth = quad[:, 3:4] @ rot.transpose(0, 2, 1) + t[:, None]
    err4 = kernels.pixel_errors(fourth[:, 0], image[samples[owner, 3]], k.fx, k.fy, k.cx, k.cy)
    err4 = err4.tolist()
    groups = [[] for _ in samples]
    for j, s in enumerate(owner.tolist()):
        groups[s].append(j)
    for group in groups:
        group.sort(key=err4.__getitem__)
    return _Block(degenerate, invalid, rot, t, groups)


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
    block.check(0)
    if not block.groups[0]:
        raise NoRealSolution("no P3P candidate passed cheirality")
    return [RigidPose(block.rotations[j], block.translations[j]) for j in block.groups[0]]


def solve_pnp_lsq(image_points, model_points, intrinsics):
    """Least-squares PnP: DLT over normalized coordinates, nearest-SO(3)
    projection of the linear rotation, then Gauss-Newton refinement.

    Requires >= 6 correspondences in a non-degenerate configuration.

    Raises
    ------
    InsufficientCorrespondences, RankDeficient, DivergedBehindCamera
    """
    image, model = _validate_inputs(image_points, model_points)
    n = image.shape[0]
    if n < 6:
        raise InsufficientCorrespondences(f"least-squares PnP needs >= 6 correspondences, got {n}")

    xn = (image[:, 0] - intrinsics.cx) / intrinsics.fx
    yn = (image[:, 1] - intrinsics.cy) / intrinsics.fy

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
    u, s, v2t = np.linalg.svd(m[:, :3])
    rot = u @ v2t
    if np.linalg.det(rot) < 0:
        rot = u @ np.diag([1.0, 1.0, -1.0]) @ v2t
    lam = s.mean()
    t = m[:, 3] / lam
    initial = RigidPose(nearest_rotation(rot), t)
    return refine_pnp(initial, image, model, intrinsics)


def refine_pnp(initial, image_points, model_points, intrinsics, full_output=False):
    """Gauss-Newton minimization of the total squared reprojection error.

    The rotation is updated through axis-angle increments on the tangent
    space (re-orthonormalized each step); steps that would increase the
    cost are halved up to 10 times before giving up, so the returned cost
    never exceeds the initial cost. Terminates on step norm < 1e-10, cost
    decrease < 1e-12, or 50 iterations.

    With ``full_output=True`` returns ``(pose, info)`` where info carries
    ``cost_history`` (cost after the initial evaluation and each accepted
    step) and ``iterations``.

    Raises
    ------
    DivergedBehindCamera
        If fewer than 4 points have positive depth under ``initial``.
    """
    image, model = _validate_inputs(image_points, model_points)
    k = intrinsics
    rot = initial.rotation.copy()
    t = initial.translation.copy()

    jtj, jtr, cost, n_valid = kernels.reprojection_normal_eqs(
        rot, t, model, image, k.fx, k.fy, k.cx, k.cy
    )
    if n_valid < MINIMAL_SAMPLE_SIZE:
        raise DivergedBehindCamera(
            f"initial pose leaves only {n_valid} point(s) at positive depth"
        )
    history = [cost]
    iterations = 0
    for _ in range(GN_MAX_ITERATIONS):
        try:
            step = -np.linalg.solve(jtj, jtr)
        except np.linalg.LinAlgError:
            ridge = 1e-12 * max(np.trace(jtj), 1.0)
            step = -np.linalg.solve(jtj + ridge * np.eye(6), jtr)

        accepted = False
        alpha = 1.0
        for _ in range(10):
            delta = alpha * step
            cand_rot = nearest_rotation(rotation_from_rotvec(delta[:3]) @ rot)
            cand_t = t + delta[3:]
            cand = kernels.reprojection_normal_eqs(
                cand_rot, cand_t, model, image, k.fx, k.fy, k.cx, k.cy
            )
            if cand[3] >= n_valid and cand[2] < cost:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break

        iterations += 1
        decrease = cost - cand[2]
        rot, t = cand_rot, cand_t
        jtj, jtr, cost, n_valid = cand
        history.append(cost)
        if np.linalg.norm(delta) < GN_STEP_TOL or decrease < GN_COST_TOL:
            break

    pose = RigidPose(rot, t)
    if full_output:
        return pose, {"cost_history": history, "iterations": iterations, "final_cost": cost}
    return pose


def _adaptive_iteration_bound(inlier_ratio, confidence):
    w4 = inlier_ratio ** MINIMAL_SAMPLE_SIZE
    if w4 >= 1.0:
        return 0
    if w4 <= 0.0:
        return math.inf
    denom = math.log1p(-w4)
    return math.ceil(math.log1p(-confidence) / denom)


def ransac_pnp(image_points, model_points, intrinsics, config=None):
    """RANSAC over minimal P3P samples with Gauss-Newton polish.

    Per iteration ``i`` the 4-point sample is drawn from a fresh generator
    seeded with (rng_seed, i), so the sample sequence is a pure function of
    the config and results are reproducible bit for bit. A hypothesis
    beats the incumbent on higher inlier count, then lower mean inlier
    error (earlier iteration wins exact ties). The iteration budget shrinks
    adaptively from the best inlier ratio and the requested confidence.

    Samples are solved and scored ``SAMPLE_BLOCK`` at a time, then replayed
    in iteration order: the stopping rule is checked before each sample
    and each sample's candidates are taken in their fourth-point order, so
    the result is that of the one-sample-at-a-time loop; work past the
    stop point is thrown away.

    The final pose is refined on the best consensus set and the inlier mask
    is recomputed against the refined pose.

    Raises
    ------
    InsufficientCorrespondences
        Fewer than 4 correspondences.
    ConsensusNotFound
        No hypothesis reached 4 inliers.
    """
    image, model = _validate_inputs(image_points, model_points)
    cfg = config or RansacConfig()
    n = image.shape[0]
    if n < MINIMAL_SAMPLE_SIZE:
        raise InsufficientCorrespondences(
            f"RANSAC needs >= {MINIMAL_SAMPLE_SIZE} correspondences, got {n}"
        )
    k = intrinsics
    rays = _bearings(image, k)

    best_count = 0
    best_mean = math.inf
    best = None
    needed = math.inf
    iteration = degenerate = no_solution = 0
    while iteration < cfg.max_iterations and iteration < needed:
        end = min(iteration + SAMPLE_BLOCK, cfg.max_iterations, needed)
        samples = np.array([
            np.random.default_rng((cfg.rng_seed, i)).choice(n, size=MINIMAL_SAMPLE_SIZE, replace=False)
            for i in range(iteration, end)
        ])
        block = _p3p_block(image, model, rays, samples, k)
        cam = model @ block.rotations.transpose(0, 2, 1)
        cam += block.translations[:, None]
        errors = kernels.pixel_errors(cam, image, k.fx, k.fy, k.cx, k.cy)
        inliers = errors < cfg.reprojection_threshold
        counts = np.count_nonzero(inliers, axis=1)
        for s in range(len(samples)):
            if iteration >= needed:
                break
            iteration += 1
            if block.degenerate[s]:
                degenerate += 1
                continue
            block.check(s)
            if not block.groups[s]:
                no_solution += 1
                continue
            for j in block.groups[s]:
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
