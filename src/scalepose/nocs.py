"""Canonical (NOCS) shape space: instance models, soft correspondence
matrices and model normalization.

Normalization convention: canonical models are origin-centered with a tight
bounding-box diagonal of exactly 1, so a model scaled by the metric diagonal
length lands in meters. ``normalize_model`` produces this form and reports
the metric diagonal it divided out, which is the ground-truth scale
convention used throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateExtent, DimensionMismatch, EmptyList, RowNotStochastic

_ROW_SUM_TOL = 1e-6
_ROW_SUM_RENORM_LIMIT = 1e-3


def _points_array(points, name):
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DimensionMismatch(f"{name} must be (N, 3), got {pts.shape}")
    if pts.shape[0] == 0:
        raise EmptyList(f"{name} is empty")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{name} contains non-finite values")
    return pts


def bbox_diagonal(points):
    """Length of the tight axis-aligned bounding-box diagonal."""
    pts = np.asarray(points, dtype=np.float64)
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


@dataclass(frozen=True)
class NocsModel:
    """Instance-specific canonical model; finite points only, extent
    deliberately unconstrained."""

    points: np.ndarray

    def __post_init__(self):
        pts = _points_array(self.points, "model points").copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]


@dataclass(frozen=True)
class CorrespondenceMatrix:
    """Row-stochastic M x N soft assignment of image samples to model points.

    Rows off unit sum by more than 1e-6 but within 1e-3 are renormalized
    (serialized float drift); anything further off is rejected.
    """

    entries: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.entries, dtype=np.float64)
        if c.ndim != 2 or 0 in c.shape:
            raise DimensionMismatch(f"correspondence matrix must be 2D non-empty, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("correspondence matrix contains non-finite values")
        if np.any(c < -1e-12):
            raise RowNotStochastic(f"negative entry {c.min():.3e} in correspondence matrix")
        c = np.clip(c, 0.0, None)
        sums = c.sum(axis=1)
        off = np.abs(sums - 1.0)
        if np.any(off > _ROW_SUM_RENORM_LIMIT):
            i = int(np.argmax(off))
            raise RowNotStochastic(f"row {i} sums to {sums[i]:.6f}, beyond renormalization limit")
        if np.any(off > _ROW_SUM_TOL):
            c = c / sums[:, None]
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "entries", c)

    @property
    def shape(self):
        return self.entries.shape


def assign(matrix: CorrespondenceMatrix, model: NocsModel) -> np.ndarray:
    """Soft-assigned canonical points, one convex combination per matrix row.

    Returns the (M, 3) product ``C @ P``; row i is the weighted mean of the
    model points under row i of the matrix.
    """
    if matrix.shape[1] != len(model):
        raise DimensionMismatch(
            f"matrix has {matrix.shape[1]} columns but model has {len(model)} points"
        )
    return matrix.entries @ model.points


def normalize_model(points):
    """Center a cloud and scale its tight bbox diagonal to 1.

    Returns ``(normalized_points, scale_factor)`` where the scale factor is
    the metric diagonal length that was divided out. Feeding the outputs to
    ``normalized * scale + centroid`` reproduces the input.

    Raises
    ------
    DegenerateExtent
        Diagonal below 1e-12 (single repeated point).
    """
    pts = _points_array(points, "points")
    if pts.shape[0] < 2:
        raise DegenerateExtent("need at least 2 points to normalize")
    centered = pts - pts.mean(axis=0)
    diag = bbox_diagonal(centered)
    if diag < 1e-12:
        raise DegenerateExtent(f"bbox diagonal {diag:.3e} too small to normalize")
    return centered / diag, diag
