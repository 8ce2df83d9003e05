"""Oriented 3D boxes and their intersection-over-union.

The intersection of two boxes is the convex polytope bounded by their
twelve face planes, so its vertices are the points where three planes meet
inside all twelve closed half-spaces. The exact IoU finds the 160 points
where three non-parallel planes meet, keeps the feasible ones, orders each
face's vertices by angle about the face centre, and sums the pyramids from
an interior point over the faces. Each triple holds two faces of one box,
so the point is found in that box's frame, where those faces fix two
coordinates and the third plane the last; every point then lies on its
planes to rounding, even where faces of the two boxes are nearly parallel
(Cramer's rule on their cross products misplaces such points by up to 1e-4
of the box size). A face of one box that nearly coincides with a face of
the other is measured together with it, so that vertices on the fold
between them are counted once. Points on a plane count as inside (closed
half-spaces), which keeps the IoU continuous at contact.

:func:`iou3d_pairs` measures P pairs at once, from boxes stacked as arrays
(:func:`box_stack` builds them from pose estimates with no per-box object),
and :func:`iou3d` is its one-pair call. Pairs whose centres lie farther
apart than their half-diagonals are rejected first; the rest run in chunks of
``_CHUNK_PAIRS``, with each pair's feasible points moved to the front in
index order and padded to the chunk's largest count. A pair's IoU does not
depend on its batch: 3-vector dot products are written out, every longer
sum runs in index order (``np.cumsum``), where padding adds only exact
zeros, and the angle sort is stable. NumPy's pairwise reductions,
``matmul`` and ``einsum`` group terms by the length of the axis, so over a
padded axis they would round differently for different batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NonPositiveScale
from .geometry import RigidPose, _frozen

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

# Pairs measured together; bounds the working arrays for any input size.
_CHUNK_PAIRS = 32


def _triple_table():
    """The plane triples that can meet: a triple holding both faces of one
    box axis has two parallel planes. Every other triple holds two faces of
    one box, on axes P and Q of the six box axes (a's three, then b's) with
    signs SIGN_P and SIGN_Q, and a THIRD plane, on axis AXIS with sign
    SIGN; R is that box's remaining axis and IN_B is 1 if the box is b.
    One column per field."""
    rows = []
    for triple in combinations(range(12), 3):
        if any(k // 6 == m // 6 and k % 3 == m % 3 for k, m in combinations(triple, 2)):
            continue
        box = int(sum(k // 6 for k in triple) >= 2)
        i, j = [k for k in triple if k // 6 == box][:2]
        (third,) = set(triple) - {i, j}
        rows.append((
            3 * box + i % 3, 3 * box + j % 3, 3 * box + 3 - i % 3 - j % 3,
            1 - 2 * (i % 6 // 3), 1 - 2 * (j % 6 // 3), third,
            3 * (third // 6) + third % 3, 1 - 2 * (third % 6 // 3), box,
        ))
    return np.array(rows).T


_FRAME_P, _FRAME_Q, _FRAME_R, _SIGN_P, _SIGN_Q, _THIRD, _AXIS, _SIGN, _IN_B = _triple_table()

# In-plane frame of each of the twelve faces (a's six, then b's): the two
# box axes other than the face normal's, among the six (a's three, then b's).
_FACE_U = np.array([1, 2, 0, 1, 2, 0, 4, 5, 3, 4, 5, 3])
_FACE_V = np.array([2, 0, 1, 2, 0, 1, 5, 3, 4, 5, 3, 4])

# The faces whose outward normal is +axis, then -axis, for the six axes.
_OUTWARD = np.array([0, 1, 2, 6, 7, 8])
_INWARD = np.array([3, 4, 5, 9, 10, 11])


@dataclass(frozen=True)
class OrientedBox3:
    """Box posed in the camera frame; extents are full side lengths."""

    pose: RigidPose
    extents: np.ndarray

    def __post_init__(self):
        ext = np.asarray(self.extents, dtype=np.float64)
        if np.any(ext <= 0) or not np.all(np.isfinite(ext)):
            raise ValueError(f"extents must be positive finite, got {ext}")
        object.__setattr__(self, "extents", _frozen(ext, (3,), "extents"))


def box_stack(poses, scales, canonical_extents):
    """The boxes of P pose/scale estimates, stacked for :func:`iou3d_pairs`:
    rotations (P, 3, 3), translations (P, 3) and extents (P, 3), each
    extents row its scale times its canonical extents. With unit-diagonal
    canonical extents a box's diagonal equals its metric scale, the
    normalization convention of the canonical models. A scale that is not
    positive raises :class:`NonPositiveScale`, and extents that are not
    positive and finite raise ``ValueError`` as :class:`OrientedBox3` does."""
    scales = np.array(scales, dtype=np.float64).reshape(-1)
    bad = np.flatnonzero(~(scales > 0))
    if len(bad):
        raise NonPositiveScale(f"scale must be positive, got {scales[bad[0]]}")
    extents = scales[:, None] * np.array(canonical_extents, dtype=np.float64).reshape(-1, 3)
    bad = np.flatnonzero(~np.all((extents > 0) & np.isfinite(extents), axis=1))
    if len(bad):
        raise ValueError(f"extents must be positive finite, got {extents[bad[0]]}")
    rotations = np.array([pose.rotation for pose in poses]).reshape(-1, 3, 3)
    translations = np.array([pose.translation for pose in poses]).reshape(-1, 3)
    return rotations, translations, extents


def _total(terms):
    """Sum over the last axis in index order. Trailing zeros leave it
    unchanged, and adding 0.0 turns the one exception, a -0.0 total,
    into 0.0 with or without them."""
    return np.cumsum(terms, axis=-1)[..., -1] + 0.0


def _dot(a, b):
    """Dot products of 3-vectors stored along the first axis, written out
    (in place, to hold fewer temporaries)."""
    out = a[0] * b[0]
    out += a[1] * b[1]
    out += a[2] * b[2]
    return out


def iou3d(a: OrientedBox3, b: OrientedBox3) -> float:
    """Exact IoU of two oriented boxes."""
    a, b = ((box.pose.rotation[None], box.pose.translation[None], box.extents[None]) for box in (a, b))
    return float(iou3d_pairs(a, b)[0])


def iou3d_pairs(a, b) -> np.ndarray:
    """Exact IoU of each pair ``(a[p], b[p])``, as a (P,) array.

    ``a`` and ``b`` each stack P boxes as ``(rotations (P, 3, 3),
    translations (P, 3), extents (P, 3))``, extents being positive full side
    lengths (:func:`box_stack`). Each value is bit for bit the one
    :func:`iou3d` gives for its pair alone.
    """
    (rot_a, t_a, ext_a), (rot_b, t_b, ext_b) = a, b
    if len(rot_a) != len(rot_b):
        raise ValueError(f"got {len(rot_a)} boxes to pair with {len(rot_b)}")
    out = np.zeros(len(rot_a))
    if not len(out):
        return out
    # Vectors are stored component first: axes (3, P, 3) hold each box's
    # axes (the columns of its rotation), the others are (3, P).
    axes_a, axes_b = (np.asarray(r, dtype=np.float64).transpose(1, 0, 2) for r in (rot_a, rot_b))
    t_a, t_b, ext_a, ext_b = (np.asarray(v, dtype=np.float64).T for v in (t_a, t_b, ext_a, ext_b))
    # cheap reject: farther apart than the sum of half-diagonals
    shift = t_b - t_a
    reach = 0.5 * (np.sqrt(_dot(ext_a, ext_a)) + np.sqrt(_dot(ext_b, ext_b)))
    live = np.flatnonzero(~(np.sqrt(_dot(shift, shift)) > reach))
    for start in range(0, len(live), _CHUNK_PAIRS):
        p = live[start:start + _CHUNK_PAIRS]
        out[p] = _exact_iou(axes_a[:, p], axes_b[:, p], shift[:, p], ext_a[:, p], ext_b[:, p])
    return out


def _exact_iou(axes_a, axes_b, shift, ext_a, ext_b):
    """IoU of C pairs from their box axes, b's centre less a's and extents."""
    # The twelve face planes n . x <= d (a's six, then b's), with x taken
    # from a's centre so that round-off scales with the boxes, not with
    # their distance from the camera.
    axes = np.concatenate([axes_a, axes_b], axis=2)
    normals = np.concatenate([axes_a, -axes_a, axes_b, -axes_b], axis=2)
    half = np.concatenate([ext_a, ext_b]).T / 2.0
    lift = _dot(axes, shift[..., None])
    half_a, half_b, lift_b = half[:, :3], half[:, 3:], lift[:, 3:]
    offsets = np.concatenate([half_a, half_a, half_b + lift_b, half_b - lift_b], axis=1)
    eps = _PLANE_EPS * np.maximum(np.maximum(ext_a.max(axis=0), ext_b.max(axis=0)), 1e-30)

    points, regular = _triple_points(axes, offsets, half, shift, lift)
    # Opposite faces share an axis, so six dot products give all twelve
    # signed distances n . x - d: s - d on a face, -(s + d) on its opposite.
    s = _dot(axes[..., None], points[:, :, None, :])
    feasible = regular & np.all(s - offsets[:, _OUTWARD, None] <= eps[:, None, None], axis=1)
    feasible &= np.all(s + offsets[:, _INWARD, None] >= -eps[:, None, None], axis=1)
    count = feasible.sum(axis=1)
    width = count.max()
    if width == 0:
        return np.zeros(len(count))

    # Each pair's feasible points first, in index order, then zero padding.
    order = np.argsort(~feasible, axis=1, kind="stable")[:, :width]
    valid = np.take_along_axis(feasible, order, axis=1)
    points = np.where(valid, np.take_along_axis(points, order[None], axis=2), 0.0)
    s = np.take_along_axis(s, order[:, None, :], axis=2)
    dist = np.concatenate([s[:, :3], -s[:, :3], s[:, 3:], -s[:, 3:]], axis=1) - offsets[..., None]
    on_face = (np.abs(dist) <= eps[:, None, None]) & valid[:, None, :]

    # A face g of b within a few degrees of a face f of a is measured with
    # it. Near-coincident vertices may land on either face, but the two
    # facets project onto f's plane without overlap, so g's area is that
    # projection less f's, over cos(f, g). Coincident planes are the
    # zero-angle case and count once. Each g has a slot, used if paired.
    facing = _dot(normals[..., :6, None], normals[..., None, 6:])
    f = np.argmax(facing, axis=1)
    cos = np.take_along_axis(facing, f[:, None, :], axis=1)[:, 0]
    pair = cos > _PAIR_COS
    u, v = axes[..., _FACE_U], axes[..., _FACE_V]
    area = _polygon_areas(
        np.concatenate([u, np.take_along_axis(u, f[None], axis=2)], axis=2),
        np.concatenate([v, np.take_along_axis(v, f[None], axis=2)], axis=2),
        np.concatenate([on_face, np.take_along_axis(on_face, f[..., None], axis=1) | on_face[:, 6:]], axis=1),
        points,
    )
    folded = (area[:, 12:] - np.take_along_axis(area, f, axis=1)) / np.where(pair, cos, 1.0)
    area = np.concatenate([area[:, :6], np.where(pair, folded, area[:, 6:12])], axis=1)

    # pyramids from an interior point over every face: area * height / 3
    centre = _total(points) / np.maximum(count, 1)
    height = offsets - _dot(normals, centre[..., None])
    inter = _total(area * height) / 3.0
    union = ext_a[0] * ext_a[1] * ext_a[2] + ext_b[0] * ext_b[1] * ext_b[2] - inter
    ratio = inter / np.where(union > 0, union, 1.0)
    ratio = np.minimum(1.0, np.where(ratio > 0, ratio, 0.0))
    return np.where((count > 0) & (union > 0), ratio, 0.0)


def _triple_points(axes, offsets, half, shift, lift):
    """Where each plane triple meets, (3, C, T), and whether the triple is
    far enough from singular to count. ``lift`` (C, 6) holds each box
    axis's component of ``shift``.

    In the frame of the box that holds two of the planes, those planes fix
    two coordinates at its half extents, and the third plane gives the last
    by one division, by the third normal's component along the free axis
    (the triple's determinant). Each point then lies on its three planes to
    rounding, however nearly parallel they are.
    """
    gram = _dot(axes[..., :, None], axes[..., None, :]).reshape(len(half), 36)
    u, v, w = axes[..., _FRAME_P], axes[..., _FRAME_Q], axes[..., _FRAME_R]
    along_u, along_v = _SIGN_P * half[:, _FRAME_P], _SIGN_Q * half[:, _FRAME_Q]
    slope = _SIGN * gram[:, 6 * _AXIS + _FRAME_R]
    regular = np.abs(slope) > _SINGULAR_DET
    free = offsets[:, _THIRD] - (_SIGN * _IN_B) * lift[:, _AXIS]
    free -= (_SIGN * gram[:, 6 * _AXIS + _FRAME_P]) * along_u
    free -= (_SIGN * gram[:, 6 * _AXIS + _FRAME_Q]) * along_v
    free /= np.where(regular, slope, 1.0)
    points = _IN_B * shift[..., None] + u * along_u
    points += v * along_v
    points += w * free
    return points, regular


def _polygon_areas(u, v, members, points):
    """Area of each polygon whose in-plane frame is a column of ``u``,
    ``v`` (3, C, F): its ``members`` (C, F, W) among ``points`` (3, C, W),
    ordered by angle about their centre.

    Non-members sort last and collapse onto the first vertex, so they add
    nothing but trailing zeros to the shoelace sum.
    """
    # in-plane coordinates about the members' centre
    x, y = _dot(points[:, :, None, :], u[..., None]), _dot(points[:, :, None, :], v[..., None])
    count = np.maximum(members.sum(axis=2), 1)[..., None]
    x = x - _total(np.where(members, x, 0.0))[..., None] / count
    y = y - _total(np.where(members, y, 0.0))[..., None] / count
    order = np.argsort(np.where(members, np.arctan2(y, x), np.inf), axis=2, kind="stable")
    x, y = np.take_along_axis(x, order, axis=2), np.take_along_axis(y, order, axis=2)
    kept = np.arange(members.shape[2]) < count
    x, y = np.where(kept, x, x[..., :1]), np.where(kept, y, y[..., :1])
    return 0.5 * _total(x * np.roll(y, -1, axis=2) - np.roll(x, -1, axis=2) * y)
