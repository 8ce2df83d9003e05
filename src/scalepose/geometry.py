"""Core pose geometry: rotations, rigid/similarity transforms, pinhole
projection, and the rotation/translation error metrics used by the
evaluation suite.

Conventions
-----------
* Rotations are 3x3 orthonormal matrices with det = +1 (right-handed).
* ``RigidPose`` maps model-frame points into the camera frame:
  ``x_cam = R @ x_model + t``. Translations are in meters.
* Pixel coordinates follow the usual (u, v) image convention with the
  camera looking down +z.
* All angles in public signatures are degrees; radians never cross the API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConfiguration,
    NonPositiveDepth,
    NonUnitAxis,
)

ROTATION_TOL = 1e-9


def _as_array(x, shape, name):
    a = np.asarray(x, dtype=np.float64)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite values")
    return a


def _freeze(a):
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def ensure_rotation(r, tol=ROTATION_TOL):
    """Validate that ``r`` is a proper rotation matrix; return it as float64.

    Orthonormality and det(+1) are checked within ``tol``.
    """
    r = _as_array(r, (3, 3), "rotation")
    err = np.abs(r.T @ r - np.eye(3)).max()
    if err > tol:
        raise ValueError(f"matrix is not orthonormal (max deviation {err:.3e})")
    det = np.linalg.det(r)
    if abs(det - 1.0) > tol:
        raise ValueError(f"matrix is not a proper rotation (det {det:.12f})")
    return r


@dataclass(frozen=True)
class RigidPose:
    """Rigid transform (R, t): ``x_cam = rotation @ x_model + translation``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _freeze(ensure_rotation(self.rotation)))
        object.__setattr__(
            self, "translation", _freeze(_as_array(self.translation, (3,), "translation"))
        )

    def transform(self, points):
        """Apply the pose to one point (3,) or a point set (N, 3)."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    @classmethod
    def identity(cls):
        return cls(np.eye(3), np.zeros(3))


@dataclass(frozen=True)
class SimilarityTransform:
    """Scaled rigid transform: ``y = scale * rotation @ x + translation``."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive, got {self.scale}")
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "rotation", _freeze(ensure_rotation(self.rotation)))
        object.__setattr__(
            self, "translation", _freeze(_as_array(self.translation, (3,), "translation"))
        )


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics (no distortion): focal lengths and principal point
    in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got fx={self.fx} fy={self.fy}")


def project(points, intrinsics):
    """Project camera-frame points to pixels.

    ``points`` is (3,) or (N, 3) with strictly positive z; returns (2,) or
    (N, 2) pixel coordinates (fx*x/z + cx, fy*y/z + cy).

    Raises
    ------
    NonPositiveDepth
        If any point has z <= 0.
    """
    pts = np.asarray(points, dtype=np.float64)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    z = pts[:, 2]
    if np.any(z <= 0):
        raise NonPositiveDepth(f"{int(np.sum(z <= 0))} point(s) at non-positive depth")
    uv = np.empty((pts.shape[0], 2))
    uv[:, 0] = intrinsics.fx * pts[:, 0] / z + intrinsics.cx
    uv[:, 1] = intrinsics.fy * pts[:, 1] / z + intrinsics.cy
    return uv[0] if single else uv


def backproject(pixels, depths, intrinsics):
    """Lift pixels to camera-frame points at the given depths.

    Inverse of :func:`project` when fed the true per-point z.
    """
    uv = np.atleast_2d(np.asarray(pixels, dtype=np.float64))
    z = np.atleast_1d(np.asarray(depths, dtype=np.float64))
    pts = np.empty((uv.shape[0], 3))
    pts[:, 0] = (uv[:, 0] - intrinsics.cx) / intrinsics.fx * z
    pts[:, 1] = (uv[:, 1] - intrinsics.cy) / intrinsics.fy * z
    pts[:, 2] = z
    if np.asarray(pixels).ndim == 1:
        return pts[0]
    return pts


# -- rotation helpers ---------------------------------------------------------

def rotation_about_axis(axis, angle_deg):
    """Rotation matrix for ``angle_deg`` degrees about ``axis`` (Rodrigues)."""
    axis = _as_array(axis, (3,), "axis")
    n = np.linalg.norm(axis)
    if n == 0:
        raise ValueError("axis must be nonzero")
    k = axis / n
    theta = math.radians(angle_deg)
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + math.sin(theta) * kx + (1 - math.cos(theta)) * (kx @ kx)


def rotation_from_rotvec(rvec):
    """Exponential map: rotation vector (axis * radians) to matrix."""
    rvec = _as_array(rvec, (3,), "rotvec")
    theta = np.linalg.norm(rvec)
    if theta < 1e-12:
        kx = np.array(
            [[0, -rvec[2], rvec[1]], [rvec[2], 0, -rvec[0]], [-rvec[1], rvec[0], 0]]
        )
        return nearest_rotation(np.eye(3) + kx + 0.5 * (kx @ kx))
    return rotation_about_axis(rvec / theta, math.degrees(theta))


def nearest_rotation(m):
    """Project a 3x3 matrix onto SO(3) (closest in Frobenius norm)."""
    m = _as_array(m, (3, 3), "matrix")
    u, _, vt = np.linalg.svd(m)
    d = np.sign(np.linalg.det(u @ vt))
    if d == 0:
        d = 1.0
    return u @ np.diag([1.0, 1.0, d]) @ vt


def nearest_rotations(m):
    """:func:`nearest_rotation` over a stack of finite matrices (M, 3, 3),
    bit-equal to it per matrix. The one-matrix function keeps its own,
    cheaper path: Gauss-Newton refinement calls it on every step."""
    u, _, vt = np.linalg.svd(m)
    d = np.sign(np.linalg.det(u @ vt))
    d[d == 0] = 1.0
    flip = np.zeros_like(m)
    flip[:, 0, 0] = 1.0
    flip[:, 1, 1] = 1.0
    flip[:, 2, 2] = d
    return u @ flip @ vt


def random_rotation(rng):
    """Uniform random rotation (via random unit quaternion)."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return rotation_from_quaternion(q)


def rotation_from_quaternion(q):
    q = _as_array(q, (4,), "quaternion")
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


# -- error metrics ------------------------------------------------------------

def rotation_error_deg(a, b):
    """Geodesic angle in degrees between two rotations.

    Mathematically arccos((trace(a b^T) - 1) / 2); evaluated as
    atan2(|sin|, cos) of the relative rotation, which is exact for the same
    quantity but keeps full precision near 0 deg and 180 deg and never needs
    clamping. Result lies in [0, 180].
    """
    rel = np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64).T
    cos_theta = (np.trace(rel) - 1.0) / 2.0
    vee = 0.5 * np.array(
        [rel[2, 1] - rel[1, 2], rel[0, 2] - rel[2, 0], rel[1, 0] - rel[0, 1]]
    )
    sin_theta = np.linalg.norm(vee)
    return math.degrees(math.atan2(sin_theta, cos_theta))


def rotation_error_symmetric_deg(a, b, axis):
    """Rotation error ignoring spin about a shared symmetry axis.

    Equals min over theta of ``rotation_error_deg(a @ R(axis, theta), b)``,
    computed in closed form as the angle between the transformed symmetry
    axes a @ axis and b @ axis.

    Raises
    ------
    NonUnitAxis
        If ``axis`` is not unit-norm (tolerance 1e-6).
    """
    axis = _as_array(axis, (3,), "axis")
    if abs(np.linalg.norm(axis) - 1.0) > 1e-6:
        raise NonUnitAxis(f"axis norm is {np.linalg.norm(axis):.6f}, expected 1")
    va = np.asarray(a, dtype=np.float64) @ axis
    vb = np.asarray(b, dtype=np.float64) @ axis
    dot = float(np.dot(va, vb))
    # clamp against floating drift before arccos
    dot = min(1.0, max(-1.0, dot))
    return math.degrees(math.acos(dot))


def translation_error_cm(a, b):
    """Euclidean distance between two translations, meters in, centimeters out."""
    a = _as_array(a, (3,), "translation a")
    b = _as_array(b, (3,), "translation b")
    return 100.0 * float(np.linalg.norm(a - b))


# -- similarity alignment ------------------------------------------------------

def umeyama_align(src, dst, estimate_scale=True):
    """Least-squares similarity transform between paired 3D point sets.

    Finds (s, R, t) minimizing sum ||dst_i - (s R src_i + t)||^2 (Umeyama
    1991). With ``estimate_scale=False`` the scale is fixed to 1 (rigid
    Procrustes). Reflections are prevented by sign correction on the
    smallest singular value.

    Parameters
    ----------
    src, dst : (N, 3) arrays, N >= 3, paired by index.

    Raises
    ------
    DegenerateConfiguration
        If the demeaned covariance has rank < 2 (e.g. collinear points).
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.ndim != 2 or src.shape[1] != 3 or src.shape != dst.shape:
        raise ValueError(f"src/dst must be matching (N, 3) arrays, got {src.shape} and {dst.shape}")
    n = src.shape[0]
    if n < 3:
        raise DegenerateConfiguration(f"need at least 3 point pairs, got {n}")

    mu_src = src.mean(axis=0)
    mu_dst = dst.mean(axis=0)
    src_c = src - mu_src
    dst_c = dst - mu_dst

    cov = dst_c.T @ src_c / n
    u, s, vt = np.linalg.svd(cov)
    if s[0] <= 0 or s[1] < 1e-12 * s[0]:
        raise DegenerateConfiguration("covariance rank < 2 (points nearly collinear)")

    d = np.ones(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        d[2] = -1.0
    rot = u @ np.diag(d) @ vt

    if estimate_scale:
        var_src = (src_c ** 2).sum() / n
        scale = float(np.dot(s, d)) / var_src
    else:
        scale = 1.0
    t = mu_dst - scale * rot @ mu_src
    return SimilarityTransform(scale, rot, t)
