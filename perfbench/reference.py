"""Reference computations for the correctness checks.

These re-derive what the program outputs from first principles and share
no code with ``scalepose``: pinhole reprojection, rotation and translation
errors, VOC-style average precision, greedy matching and oriented-box IoU
through SciPy's half-space intersection.
"""

import math

import numpy as np

from fixtures import SYMMETRIC, project


def project_pose(rotation, translation, points):
    """Pixels of model points under a pose, and the mask of points in
    front of the camera (pixels of the others are meaningless)."""
    cam = points @ np.asarray(rotation).T + np.asarray(translation)
    front = cam[:, 2] > 0
    cam[~front, 2] = 1.0
    return project(cam), front


def rotation_error_deg(a, b):
    """Geodesic angle between two rotations, from the relative rotation's
    trace (cosine) and skew part (sine)."""
    rel = np.asarray(a) @ np.asarray(b).T
    cos = (np.trace(rel) - 1.0) / 2.0
    sin = 0.5 * math.hypot(rel[2, 1] - rel[1, 2], rel[0, 2] - rel[2, 0], rel[1, 0] - rel[0, 1])
    return math.degrees(math.atan2(sin, cos))


def axis_error_deg(a, b):
    """Angle between the canonical y-axes of two rotations: the rotation
    error of an object symmetric about y."""
    va, vb = np.asarray(a)[:, 1], np.asarray(b)[:, 1]
    return math.degrees(math.atan2(np.linalg.norm(np.cross(va, vb)), float(va @ vb)))


def category_rotation_error_deg(category, a, b):
    """Rotation error as ``scalepose evaluate`` defines it by default:
    about the y-axis only for the symmetric categories."""
    if category in SYMMETRIC:
        return axis_error_deg(a, b)
    return rotation_error_deg(a, b)


def translation_error_cm(a, b):
    return 100.0 * float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def confidence_order(confidences):
    """Indices by descending confidence; input order breaks ties."""
    return sorted(range(len(confidences)), key=lambda i: -confidences[i])


def voc_ap(hits, n_gt):
    """Average precision of a ranked list of hit flags against ``n_gt``
    ground truths: precision made non-increasing from the right, summed at
    each rank where recall grows."""
    if not hits:
        return 0.0
    hits = np.asarray(hits, dtype=np.float64)
    precision = np.cumsum(hits) / np.arange(1, len(hits) + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    return float(np.sum(hits * envelope) / n_gt)


def box_halfspaces(rotation, center, extents):
    """Rows [n, -d] with n . x <= d inside the box (SciPy's layout)."""
    axes = np.asarray(rotation).T
    half = np.asarray(extents) / 2.0
    d = axes @ np.asarray(center)
    return np.vstack(
        [np.column_stack([axes, -(d + half)]), np.column_stack([-axes, d - half])]
    )


def box_iou(a, b):
    """IoU of two oriented boxes ``(rotation, center, extents)`` by
    intersecting their twelve half-spaces."""
    from scipy.optimize import linprog
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    (ra, ca, ea), (rb, cb, eb) = a, b
    # circumscribed spheres apart: no overlap
    if np.linalg.norm(np.asarray(ca) - cb) > 0.5 * (np.linalg.norm(ea) + np.linalg.norm(eb)):
        return 0.0
    hs = np.vstack([box_halfspaces(ra, ca, ea), box_halfspaces(rb, cb, eb)])
    # Chebyshev centre: the deepest interior point of the intersection
    norms = np.linalg.norm(hs[:, :3], axis=1)
    lp = linprog(
        c=[0.0, 0.0, 0.0, -1.0],
        A_ub=np.column_stack([hs[:, :3], norms]),
        b_ub=-hs[:, 3],
        bounds=[(None, None)] * 3 + [(0.0, None)],
        method="highs",
    )
    scale = max(float(np.max(ea)), float(np.max(eb)))
    if lp.status != 0 or lp.x[3] <= 1e-9 * scale:
        return 0.0
    inter = ConvexHull(HalfspaceIntersection(hs, lp.x[:3]).intersections).volume
    return inter / (float(np.prod(ea)) + float(np.prod(eb)) - inter)
