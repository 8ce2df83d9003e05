import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalepose.errors import EmptyList, NonPositiveResult, NonPositiveScale
from scalepose.scale import CategoryStats, compute_stats, gt_offset, recover_scale
from scalepose.synth import DEFAULT_CATEGORY_STATS, NoiseSpec, run_grid

positive_scales = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


class TestComputeStats:
    def test_singleton(self):
        s = compute_stats("mug", [2.0])
        assert (s.mean_scale, s.std_dev, s.count) == (2.0, 0.0, 1)

    def test_two_values_closed_form(self):
        s = compute_stats("mug", [1.0, 3.0])
        assert s.mean_scale == 2.0
        assert s.std_dev == 1.0  # population formula: divide by k, not k-1
        assert s.count == 2

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(1)
        scales = rng.uniform(0.05, 2.0, size=1000)
        s = compute_stats("bowl", scales)
        mean = sum(scales) / len(scales)
        var = sum((x - mean) ** 2 for x in scales) / len(scales)
        assert abs(s.mean_scale - mean) < 1e-12
        assert abs(s.std_dev - math.sqrt(var)) < 1e-12

    def test_zero_deviation_iff_constant(self):
        assert compute_stats("can", [0.4] * 7).std_dev == 0.0
        assert compute_stats("can", [0.4, 0.4001]).std_dev > 0.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        scales = list(rng.uniform(0.1, 1.0, size=50))
        a = compute_stats("cat", scales)
        b = compute_stats("cat", list(reversed(scales)))
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(EmptyList):
            compute_stats("mug", [])

    def test_non_positive_rejected(self):
        with pytest.raises(NonPositiveScale):
            compute_stats("mug", [0.5, -0.1])


class TestScaleRecovery:
    def test_zero_offset_returns_anchor(self):
        stats = CategoryStats("mug", 1.0, 0.1, 10)
        assert recover_scale(stats, 0.0) == 1.0

    def test_anchor_arithmetic(self):
        stats = CategoryStats("mug", 2.0, 0.1, 10)
        assert abs(recover_scale(stats, 0.1) - 2.2) < 1e-15

    def test_offset_inverts_recovery(self):
        stats = CategoryStats("mug", 1.7, 0.1, 10)
        delta = gt_offset(2.3, stats)
        assert abs(recover_scale(stats, delta) - 2.3) < 1e-12

    def test_gt_offset_cases(self):
        stats = CategoryStats("mug", 1.0, 0.0, 1)
        assert gt_offset(1.0, stats) == 0.0
        assert abs(gt_offset(1.5, stats) - 0.5) < 1e-15

    @given(gt=positive_scales, anchor=positive_scales)
    @settings(max_examples=300, deadline=None)
    def test_round_trip_property(self, gt, anchor):
        stats = CategoryStats("x", anchor, 0.0, 1)
        recovered = recover_scale(stats, gt_offset(gt, stats))
        assert abs(recovered - gt) <= 1e-12 * max(1.0, gt)

    def test_monotone_in_anchor(self):
        delta = 0.2
        values = [recover_scale(CategoryStats("x", m, 0.0, 1), delta) for m in (0.5, 1.0, 2.0)]
        assert values[0] < values[1] < values[2]
        assert abs(values[2] - 2 * values[1]) < 1e-12  # linear in the anchor

    def test_offset_below_minus_one_rejected(self):
        stats = CategoryStats("mug", 1.0, 0.0, 1)
        with pytest.raises(NonPositiveResult):
            recover_scale(stats, -1.0)

    def test_subnormal_anchor_recovers_zero(self):
        # 5e-324 * -0.6 rounds to -5e-324, so s_hat is 0.0 with delta > -1
        with pytest.raises(NonPositiveResult, match="got 0.0"):
            recover_scale(CategoryStats("x", 5e-324, 0.0, 1), -0.6)

    def test_overflow_rejected(self):
        with pytest.raises(NonPositiveResult, match="got inf"):
            recover_scale(CategoryStats("x", 1e308, 0.0, 1), 1.0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_offset_rejected(self, delta):
        with pytest.raises(ValueError, match="delta must be finite"):
            recover_scale(CategoryStats("x", 1.0, 0.0, 1), delta)

    def test_non_positive_gt_rejected(self):
        with pytest.raises(NonPositiveScale):
            gt_offset(0.0, CategoryStats("mug", 1.0, 0.0, 1))


def _decoupled(category, predictor_kind, scale_rel_error=0.0):
    grid = run_grid(
        [category], [NoiseSpec(scale_rel_error=scale_rel_error)], trials=3,
        point_count=32, predictor_kind=predictor_kind,
    )
    return [r for r in grid.trials if r.pipeline == "decoupled"]


class TestPredictors:
    """The decoupled arm's offset under each ``predictor_kind`` of the grid."""

    def test_mean_scale_predictor_is_zero_offset(self):
        for r in _decoupled("mug", "mean", scale_rel_error=0.3):
            assert r.estimated_scale == DEFAULT_CATEGORY_STATS["mug"].mean_scale
            assert r.estimated_scale != r.gt_scale

    def test_mean_predictor_matches_recover_zero(self):
        for category in ("bowl", "can", "laptop"):
            anchor = recover_scale(DEFAULT_CATEGORY_STATS[category], 0.0)
            assert [r.estimated_scale for r in _decoupled(category, "mean")] == [anchor] * 3

    def test_oracle_predictor_exact(self):
        for r in _decoupled("mug", "oracle"):
            assert abs(r.estimated_scale - r.gt_scale) < 1e-12

    def test_oracle_predictor_systematic_error(self):
        for r in _decoupled("mug", "oracle", scale_rel_error=0.1):
            assert abs(r.estimated_scale - 1.1 * r.gt_scale) < 1e-12

    def test_stats_validation(self):
        with pytest.raises(NonPositiveScale):
            CategoryStats("mug", 0.0, 0.1, 1)
        for mean in (math.nan, math.inf):
            with pytest.raises(NonPositiveScale):
                CategoryStats("mug", mean, 0.1, 1)
        for sigma in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                CategoryStats("mug", 1.0, sigma, 1)
        with pytest.raises(ValueError):
            CategoryStats("mug", 1.0, 0.1, 0)
