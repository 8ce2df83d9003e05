"""Oriented 3D boxes and their intersection-over-union.

The exact IoU clips box A's polytope by box B's six face half-spaces
(Sutherland-Hodgman on each face polygon, with a cap polygon rebuilt per
cut so later planes see a closed boundary) and evaluates the intersection
volume with the divergence theorem. Faces touching a clipping plane count
as inside (closed half-spaces), which keeps the IoU continuous at contact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveScale
from .geometry import RigidPose

# Points within this fraction of the box scale from a clipping plane are
# treated as on the plane (and kept).
_PLANE_EPS = 1e-12

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

# Quad faces of the unit box above, wound counter-clockwise seen from outside.
_FACE_INDICES = (
    (0, 3, 2, 1),  # -z
    (4, 5, 6, 7),  # +z
    (0, 1, 5, 4),  # -y
    (2, 3, 7, 6),  # +y
    (0, 4, 7, 3),  # -x
    (1, 2, 6, 5),  # +x
)


@dataclass(frozen=True)
class OrientedBox3:
    """Box posed in the camera frame; extents are full side lengths."""

    pose: RigidPose
    extents: np.ndarray

    def __post_init__(self):
        ext = np.asarray(self.extents, dtype=np.float64).reshape(3).copy()
        if np.any(ext <= 0) or not np.all(np.isfinite(ext)):
            raise ValueError(f"extents must be positive finite, got {ext}")
        ext.flags.writeable = False
        object.__setattr__(self, "extents", ext)

    @property
    def volume(self):
        return float(np.prod(self.extents))

    def corners(self):
        """World-frame corner positions, (8, 3)."""
        local = _CORNER_SIGNS * (self.extents / 2.0)
        return self.pose.transform(local)

    def half_spaces(self):
        """Six (normal, offset) pairs with n . x <= d inside the box."""
        r = self.pose.rotation
        c = self.pose.translation
        normals = np.vstack([r.T, -r.T])
        offsets = np.concatenate(
            [
                normals[:3] @ c + self.extents / 2.0,
                normals[3:] @ c + self.extents / 2.0,
            ]
        )
        return normals, offsets


def box_from_estimate(pose, scale, canonical_extents):
    """Box for a pose/scale estimate: extents = scale * canonical extents.

    With unit-diagonal canonical extents the resulting box diagonal equals
    the metric scale, matching the normalization convention of the
    canonical models.
    """
    if not scale > 0:
        raise NonPositiveScale(f"scale must be positive, got {scale}")
    return OrientedBox3(pose, float(scale) * np.asarray(canonical_extents, dtype=np.float64))


def _clip_faces(faces, normal, offset, eps):
    """Clip a closed convex polygon mesh by the half-space n . x <= d."""
    kept = []
    cut_points = []
    clipped_any = False
    for poly in faces:
        dist = poly @ normal - offset
        if np.all(dist <= eps):
            kept.append(poly)
            continue
        clipped_any = True
        if np.all(dist >= -eps):
            continue
        out = []
        m = len(poly)
        for i in range(m):
            j = (i + 1) % m
            di, dj = dist[i], dist[j]
            if di <= eps:
                out.append(poly[i])
                if di < -eps and dj > eps:
                    w = di / (di - dj)
                    p = poly[i] + w * (poly[j] - poly[i])
                    out.append(p)
                    cut_points.append(p)
                elif -eps <= di <= eps:
                    cut_points.append(poly[i])
            elif dj < -eps:
                w = di / (di - dj)
                p = poly[i] + w * (poly[j] - poly[i])
                out.append(p)
                cut_points.append(p)
        if len(out) >= 3:
            kept.append(np.asarray(out))

    if clipped_any and len(cut_points) >= 3:
        cap = _build_cap(np.asarray(cut_points), normal)
        if cap is not None:
            kept.append(cap)
    return kept


def _build_cap(points, normal):
    """Order the cut points into the convex cap polygon on the plane."""
    center = points.mean(axis=0)
    # orthonormal basis of the plane
    a = np.eye(3)[np.argmin(np.abs(normal))]
    u = np.cross(normal, a)
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    rel = points - center
    ang = np.arctan2(rel @ v, rel @ u)
    order = np.argsort(ang, kind="stable")
    poly = points[order]
    # drop duplicates (edge endpoints get recorded twice)
    scale = max(1.0, float(np.abs(poly).max()))
    keep = [0]
    for i in range(1, len(poly)):
        if np.linalg.norm(poly[i] - poly[keep[-1]]) > 1e-9 * scale:
            keep.append(i)
    if len(keep) > 1 and np.linalg.norm(poly[keep[0]] - poly[keep[-1]]) <= 1e-9 * scale:
        keep.pop()
    if len(keep) < 3:
        return None
    return poly[keep]


def _mesh_volume(faces):
    """Volume of a closed convex polygon mesh via the divergence theorem.

    Face winding is normalized against the interior point (mean of all
    vertices), which convexity makes unambiguous.
    """
    if not faces:
        return 0.0
    interior = np.vstack(faces).mean(axis=0)
    total = 0.0
    for poly in faces:
        rel = poly - interior
        v = 0.0
        for i in range(1, len(poly) - 1):
            v += float(np.linalg.det(np.stack([rel[0], rel[i], rel[i + 1]])))
        total += abs(v)
    return total / 6.0


def iou3d(a: OrientedBox3, b: OrientedBox3) -> float:
    """Exact IoU of two oriented boxes."""
    scale = float(max(a.extents.max(), b.extents.max(), 1e-30))
    # cheap reject: farther apart than the sum of half-diagonals
    gap = np.linalg.norm(a.pose.translation - b.pose.translation)
    if gap > 0.5 * (np.linalg.norm(a.extents) + np.linalg.norm(b.extents)):
        return 0.0

    faces = [a.corners()[list(idx)] for idx in _FACE_INDICES]
    normals, offsets = b.half_spaces()
    eps = _PLANE_EPS * scale
    for n, d in zip(normals, offsets):
        faces = _clip_faces(faces, n, d, eps)
        if not faces:
            return 0.0
    inter = _mesh_volume(faces)
    union = a.volume + b.volume - inter
    if union <= 0:
        return 0.0
    return min(1.0, max(0.0, inter / union))

