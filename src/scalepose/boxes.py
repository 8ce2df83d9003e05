"""Oriented 3D boxes and their intersection-over-union.

The intersection of two boxes is the convex polytope bounded by their
twelve face planes, so its vertices are the points where three planes meet
inside all twelve closed half-spaces. The exact IoU solves all 220 plane
triples at once, keeps the feasible points, orders each face's vertices by
angle about the face centre, and sums the pyramids from an interior point
over the faces. A face of one box that nearly coincides with a face of the
other is measured together with it, so that vertices on the fold between
them are counted once. Points on a plane count as inside (closed
half-spaces), which keeps the IoU continuous at contact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NonPositiveScale
from .geometry import RigidPose

# Points within this fraction of the box scale from a face plane are
# treated as on the plane (and kept).
_PLANE_EPS = 1e-12

# Plane triples this close to singular are skipped: two planes at a smaller
# angle stay within _PLANE_EPS of each other across the boxes, so other
# triples give their vertices.
_SINGULAR_DET = 1e-14

# Faces of the two boxes whose normals agree to this cosine (about 8 degrees)
# are measured as one pair.
_PAIR_COS = 0.99

_PLANE_TRIPLES = np.array(list(combinations(range(12), 3)))

# In-plane frame of each of the twelve faces (a's six, then b's): the two
# box axes other than the face normal's, as rows of [a's axes; b's axes].
_FACE_U = np.array([1, 2, 0, 1, 2, 0, 4, 5, 3, 4, 5, 3])
_FACE_V = np.array([2, 0, 1, 2, 0, 1, 5, 3, 4, 5, 3, 4])


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


def box_from_estimate(pose, scale, canonical_extents):
    """Box for a pose/scale estimate: extents = scale * canonical extents.

    With unit-diagonal canonical extents the resulting box diagonal equals
    the metric scale, matching the normalization convention of the
    canonical models.
    """
    if not scale > 0:
        raise NonPositiveScale(f"scale must be positive, got {scale}")
    return OrientedBox3(pose, float(scale) * np.asarray(canonical_extents, dtype=np.float64))


def _polygon_areas(u, v, members, points):
    """Area of each polygon whose in-plane frame is a row of ``u``, ``v``:
    its member points, ordered by angle about their centre.

    Non-members sort last and collapse onto the first vertex, so they add
    nothing to the shoelace sum.
    """
    centre = (members @ points) / np.maximum(members.sum(axis=1, keepdims=True), 1)
    rel = points[None, :, :] - centre[:, None, :]
    x, y = np.einsum("fpk,fk->fp", rel, u), np.einsum("fpk,fk->fp", rel, v)
    order = np.argsort(np.where(members, np.arctan2(y, x), np.inf), axis=1)
    kept = np.take_along_axis(members, order, axis=1)
    x = np.take_along_axis(x, order, axis=1)
    y = np.take_along_axis(y, order, axis=1)
    x, y = np.where(kept, x, x[:, :1]), np.where(kept, y, y[:, :1])
    wrap = x[:, -1] * y[:, 0] - x[:, 0] * y[:, -1]
    return 0.5 * (np.sum(x[:, :-1] * y[:, 1:] - x[:, 1:] * y[:, :-1], axis=1) + wrap)


def iou3d(a: OrientedBox3, b: OrientedBox3) -> float:
    """Exact IoU of two oriented boxes."""
    scale = float(max(a.extents.max(), b.extents.max(), 1e-30))
    # cheap reject: farther apart than the sum of half-diagonals
    gap = np.linalg.norm(a.pose.translation - b.pose.translation)
    if gap > 0.5 * (np.linalg.norm(a.extents) + np.linalg.norm(b.extents)):
        return 0.0

    # The twelve face planes n . x <= d (a's six, then b's), with x taken
    # from a's centre so that round-off scales with the boxes, not with
    # their distance from the camera.
    ra, rb = a.pose.rotation.T, b.pose.rotation.T
    normals = np.vstack([ra, -ra, rb, -rb])
    offsets = np.concatenate([a.extents, a.extents, b.extents, b.extents]) / 2.0
    offsets[6:] += normals[6:] @ (b.pose.translation - a.pose.translation)
    eps = _PLANE_EPS * scale

    systems = normals[_PLANE_TRIPLES]
    with np.errstate(all="ignore"):
        regular = np.abs(np.linalg.det(systems)) > _SINGULAR_DET
    points = np.linalg.solve(systems[regular], offsets[_PLANE_TRIPLES[regular]][..., None])[..., 0]
    dist = normals @ points.T - offsets[:, None]
    feasible = np.all(dist <= eps, axis=0)
    points, on_face = points[feasible], np.abs(dist[:, feasible]) <= eps
    if not len(points):
        return 0.0

    # A face g of b within a few degrees of a face f of a is measured with
    # it. Near-coincident vertices may land on either face, but the two
    # facets project onto f's plane without overlap, so g's area is that
    # projection less f's, over cos(f, g). Coincident planes are the
    # zero-angle case and count once.
    facing = normals[:6] @ normals[6:].T
    f = np.argmax(facing, axis=0)
    cos = facing[f, np.arange(6)]
    pair = cos > _PAIR_COS
    f, g, cos = f[pair], np.flatnonzero(pair) + 6, cos[pair]
    axes = np.vstack([ra, rb])
    u, v = axes[_FACE_U], axes[_FACE_V]
    area = _polygon_areas(
        np.vstack([u, u[f]]), np.vstack([v, v[f]]), np.vstack([on_face, on_face[f] | on_face[g]]), points
    )
    area[g] = (area[12:] - area[f]) / cos

    # pyramids from an interior point over every face: area * height / 3
    height = offsets - normals @ points.mean(axis=0)
    inter = float(area[:12] @ height) / 3.0
    union = a.volume + b.volume - inter
    if union <= 0:
        return 0.0
    return min(1.0, max(0.0, inter / union))
