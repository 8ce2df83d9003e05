"""Metric scale recovery from category statistics.

The metric scale of an object is the tight bounding-box diagonal in meters.
Instead of regressing it directly, the estimate is anchored to the category
mean: a predictor produces a relative offset and the recovered scale is

    s_hat = s_r + s_r * delta

which keeps the regression target in a stable range across categories. The
predictor is an interface; the learned regressor it stands in for is out of
scope here, but the mean-scale baseline (delta = 0) and oracle variants for
simulation are provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

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
        if not self.mean_scale > 0:
            raise NonPositiveScale(f"mean scale must be positive, got {self.mean_scale}")
        if self.std_dev < 0:
            raise ValueError(f"std_dev must be >= 0, got {self.std_dev}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class ScalePrediction:
    """Relative offset plus the metric scale it recovers to."""

    delta: float
    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise NonPositiveResult(f"recovered scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class ScaleObservation:
    """Record handed to predictors: the category, and the ground-truth
    scale that the oracle variants read."""

    category: str
    gt_scale: float | None = None


@runtime_checkable
class ScalePredictor(Protocol):
    """Produces a relative scale offset from an observation and category
    statistics; must be deterministic for fixed inputs and seed."""

    def predict_offset(self, observation: ScaleObservation, stats: CategoryStats) -> float:
        ...


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


def recover_scale(stats: CategoryStats, delta) -> ScalePrediction:
    """Anchor-plus-offset scale recovery: s_hat = s_r + s_r * delta.

    Raises
    ------
    NonPositiveResult
        If delta <= -1 (the recovered scale would not be positive).
    """
    delta = float(delta)
    if delta <= -1.0:
        raise NonPositiveResult(f"delta {delta} recovers a non-positive scale")
    return ScalePrediction(delta, stats.mean_scale + stats.mean_scale * delta)


def gt_offset(gt_scale, stats: CategoryStats) -> float:
    """Ground-truth relative offset: (s_gt - s_r) / s_r."""
    gt_scale = float(gt_scale)
    if not gt_scale > 0:
        raise NonPositiveScale(f"ground-truth scale must be positive, got {gt_scale}")
    return (gt_scale - stats.mean_scale) / stats.mean_scale


@dataclass(frozen=True)
class MeanScalePredictor:
    """Baseline that trusts the category mean: delta is always 0."""

    def predict_offset(self, observation, stats):
        return 0.0


@dataclass(frozen=True)
class OraclePredictor:
    """Exact offsets from the observation's ground-truth scale, optionally
    biased by a systematic relative error: s_hat = s_gt * (1 + rel_error)."""

    rel_error: float = 0.0

    def predict_offset(self, observation, stats):
        if observation.gt_scale is None:
            raise ValueError("OraclePredictor needs observations with gt_scale")
        target = observation.gt_scale * (1.0 + self.rel_error)
        return (target - stats.mean_scale) / stats.mean_scale


class NoisyOraclePredictor:
    """Ground-truth offsets corrupted by Gaussian noise, Normal(0, sigma).

    Draws follow a fixed per-seed stream: a fresh instance with the same
    seed replays the same noise sequence call for call.
    """

    def __init__(self, rng_seed, sigma):
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        self.rng_seed = int(rng_seed)
        self.sigma = float(sigma)
        self._rng = np.random.default_rng(self.rng_seed)

    def predict_offset(self, observation, stats):
        if observation.gt_scale is None:
            raise ValueError("NoisyOraclePredictor needs observations with gt_scale")
        noise = self._rng.normal(0.0, self.sigma) if self.sigma > 0 else 0.0
        return gt_offset(observation.gt_scale, stats) + noise

