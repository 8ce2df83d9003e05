"""Metric scale recovery from category statistics.

The metric scale of an object is the tight bounding-box diagonal in meters.
Instead of regressing it directly, the estimate is anchored to the category
mean s_r, and a relative offset delta recovers the scale

    s_hat = s_r + s_r * delta

which keeps the regression target in a stable range across categories. The
learned regressor that would predict delta is out of scope: callers pass
the offset itself, 0 for the mean-scale baseline or :func:`gt_offset` of a
known scale for an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyList, NonPositiveResult, NonPositiveScale


@dataclass(frozen=True)
class CategoryStats:
    """Per-category scale statistics: mean, population deviation, count."""

    category: str
    mean_scale: float
    std_dev: float
    count: int

    def __post_init__(self):
        if not 0 < self.mean_scale < math.inf:
            raise NonPositiveScale(f"mean scale must be positive and finite, got {self.mean_scale}")
        if not 0 <= self.std_dev < math.inf:
            raise ValueError(f"std_dev must be finite and >= 0, got {self.std_dev}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")


def compute_stats(category, scales):
    """Mean and population standard deviation of ground-truth scales.

    The deviation divides by the sample count k (not k - 1):
    sigma = sqrt(sum((s - mean)^2) / k).
    """
    arr = np.asarray(list(scales), dtype=np.float64)
    if arr.size == 0:
        raise EmptyList(f"no scales given for category {category!r}")
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise NonPositiveScale(f"scales for {category!r} must be positive and finite")
    mean = float(arr.mean())
    if np.all(arr == arr[0]):
        sigma = 0.0
    else:
        sigma = float(np.sqrt(np.mean((arr - mean) ** 2)))
    return CategoryStats(category, mean, sigma, int(arr.size))


def recover_scale(stats: CategoryStats, delta) -> float:
    """Anchor-plus-offset scale recovery: s_hat = s_r + s_r * delta.

    Raises
    ------
    ValueError
        If delta is not finite.
    NonPositiveResult
        If delta <= -1, or the arithmetic leaves no positive finite scale
        (a subnormal anchor can round s_hat to 0).
    """
    delta = float(delta)
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    if delta <= -1.0:
        raise NonPositiveResult(f"delta {delta} recovers a non-positive scale")
    scale = stats.mean_scale + stats.mean_scale * delta
    if not 0 < scale < math.inf:
        raise NonPositiveResult(f"recovered scale must be positive and finite, got {scale}")
    return scale


def gt_offset(gt_scale, stats: CategoryStats) -> float:
    """Ground-truth relative offset: (s_gt - s_r) / s_r."""
    gt_scale = float(gt_scale)
    if not gt_scale > 0:
        raise NonPositiveScale(f"ground-truth scale must be positive, got {gt_scale}")
    return (gt_scale - stats.mean_scale) / stats.mean_scale
