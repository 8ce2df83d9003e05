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


def _frozen(x, shape, name):
    """Read-only float64 copy of ``x``, which must have ``shape`` and be
    finite, and its entries as Python floats in row-major order. The
    caller's array stays writable."""
    a = np.array(x, dtype=np.float64, order="C")
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    flat = a.ravel().tolist()
    if not all(map(math.isfinite, flat)):
        raise ValueError(f"{name} contains non-finite values")
    a.flags.writeable = False
    return a, flat


def _check_rotation(flat, tol):
    """Raise unless the nine row-major floats ``flat`` are a proper
    rotation within ``tol``: every entry of RᵀR - I, and det R - 1."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = flat
    err = max(
        abs(r00 * r00 + r10 * r10 + r20 * r20 - 1.0),
        abs(r01 * r01 + r11 * r11 + r21 * r21 - 1.0),
        abs(r02 * r02 + r12 * r12 + r22 * r22 - 1.0),
        abs(r00 * r01 + r10 * r11 + r20 * r21),
        abs(r00 * r02 + r10 * r12 + r20 * r22),
        abs(r01 * r02 + r11 * r12 + r21 * r22),
    )
    if err > tol:
        raise ValueError(f"matrix is not orthonormal (max deviation {err:.3e})")
    det = r00 * (r11 * r22 - r12 * r21) - r01 * (r10 * r22 - r12 * r20) + r02 * (r10 * r21 - r11 * r20)
    if abs(det - 1.0) > tol:
        raise ValueError(f"matrix is not a proper rotation (det {det:.12f})")


def ensure_rotation(r, tol=ROTATION_TOL):
    """Validate that ``r`` is a proper rotation matrix; return it as a
    read-only float64 copy.

    Orthonormality and det(+1) are checked within ``tol``.
    """
    r, flat = _frozen(r, (3, 3), "rotation")
    _check_rotation(flat, tol)
    return r


@dataclass(frozen=True)
class RigidPose:
    """Rigid transform (R, t): ``x_cam = rotation @ x_model + translation``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", ensure_rotation(self.rotation))
        object.__setattr__(self, "translation", _frozen(self.translation, (3,), "translation")[0])

    def transform(self, points):
        """Apply the pose to one point (3,) or a point set (N, 3)."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation


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
        object.__setattr__(self, "rotation", ensure_rotation(self.rotation))
        object.__setattr__(self, "translation", _frozen(self.translation, (3,), "translation")[0])


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
    """Rotation matrix for ``angle_deg`` degrees about ``axis``."""
    axis = _as_array(axis, (3,), "axis")
    n = np.linalg.norm(axis)
    if n == 0:
        raise ValueError("axis must be nonzero")
    return rotation_from_rotvec(axis * (math.radians(angle_deg) / n))


def rotation_from_rotvec(rvec):
    """Exponential map: rotation vector (axis * radians) to matrix, by
    Rodrigues' formula I + sin(theta)/theta K + 2 sin^2(theta/2)/theta^2 K^2
    with K = skew(rvec); below theta = 1e-12 the factors are their limits
    1 and 1/2, exact in double precision there."""
    rvec = _as_array(rvec, (3,), "rotvec")
    theta = np.linalg.norm(rvec)
    if theta < 1e-12:
        a, b = 1.0, 0.5
    else:
        half = math.sin(0.5 * theta) / theta
        a, b = math.sin(theta) / theta, 2.0 * half * half
    kx = np.array([[0, -rvec[2], rvec[1]], [rvec[2], 0, -rvec[0]], [-rvec[1], rvec[0], 0]])
    return np.eye(3) + a * kx + b * (kx @ kx)


def nearest_rotation(m):
    """Project a 3x3 matrix onto SO(3) (closest in Frobenius norm); the
    result passes :class:`RigidPose`'s checks. Least-squares PnP projects
    its linear rotation here; P3P candidates are rotations by construction
    and need no projection."""
    u, _, vt = np.linalg.svd(_as_array(m, (3, 3), "matrix"))
    if np.linalg.det(u @ vt) < 0:
        u[:, 2] = -u[:, 2]
    return u @ vt


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

def umeyama_align(src, dst):
    """Least-squares similarity transform between paired 3D point sets.

    Finds (s, R, t) minimizing sum ||dst_i - (s R src_i + t)||^2 (Umeyama
    1991). Reflections are prevented by sign correction on the smallest
    singular value.

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

    var_src = (src_c ** 2).sum() / n
    scale = float(np.dot(s, d)) / var_src
    t = mu_dst - scale * rot @ mu_src
    return SimilarityTransform(scale, rot, t)
