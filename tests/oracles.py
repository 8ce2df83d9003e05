"""Reference implementations the tests compare the package against.

They are independent of the code they check: box corners and a seeded
Monte-Carlo IoU for the exact oriented-box IoU, and an explicit residual
Jacobian for the Gauss-Newton normal equations.
"""

import numpy as np

from scalepose.boxes import OrientedBox3
from scalepose.pnp import _validate_inputs


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
