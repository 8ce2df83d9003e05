import numpy as np
import pytest
from scipy.spatial import ConvexHull

from scalepose.errors import (
    DegenerateExtent,
    DimensionMismatch,
    RowNotStochastic,
)
from scalepose.nocs import (
    CorrespondenceMatrix,
    NocsModel,
    assign,
    bbox_diagonal,
    normalize_model,
)


def random_stochastic(seed, m, n):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, 1.0, size=(m, n))
    return CorrespondenceMatrix(raw / raw.sum(axis=1, keepdims=True))


class TestNocsModel:
    def test_single_point_offset(self):
        # construct directly to keep the hand-checkable numbers
        model = NocsModel(np.array([[0.1, 0.0, 0.0]])).points + np.array([[0.0, 0.05, 0.0]])
        assert np.allclose(model, [[0.1, 0.05, 0.0]])


class TestAssign:
    def test_one_hot_selects_points(self):
        model = NocsModel(np.arange(12.0).reshape(4, 3))
        c = np.zeros((3, 4))
        c[0, 2] = c[1, 0] = c[2, 3] = 1.0
        out = assign(CorrespondenceMatrix(c), model)
        assert np.array_equal(out, model.points[[2, 0, 3]])

    def test_uniform_row_is_centroid(self):
        model = NocsModel(np.random.default_rng(7).normal(size=(10, 3)))
        c = np.full((1, 10), 0.1)
        out = assign(CorrespondenceMatrix(c), model)
        assert np.max(np.abs(out[0] - model.points.mean(axis=0))) < 1e-12

    def test_matches_dense_product_oracle(self):
        model = NocsModel(np.random.default_rng(8).normal(size=(20, 3)))
        cm = random_stochastic(9, m=15, n=20)
        out = assign(cm, model)
        expected = np.einsum("mn,nk->mk", cm.entries, model.points)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_output_in_convex_hull(self):
        model = NocsModel(np.random.default_rng(10).normal(size=(12, 3)))
        cm = random_stochastic(11, m=30, n=12)
        out = assign(cm, model)
        hull = ConvexHull(model.points)
        # hull half-space test: A x + b <= 0 inside
        a, b = hull.equations[:, :3], hull.equations[:, 3]
        assert np.all(out @ a.T + b <= 1e-9)

    def test_dimension_mismatch(self):
        model = NocsModel(np.zeros((5, 3)) + np.eye(5, 3))
        with pytest.raises(DimensionMismatch):
            assign(random_stochastic(12, m=4, n=6), model)


class TestCorrespondenceMatrix:
    def test_rejects_rows_far_from_stochastic(self):
        with pytest.raises(RowNotStochastic):
            CorrespondenceMatrix(np.array([[0.5, 0.3]]))

    def test_renormalizes_small_drift(self):
        c = CorrespondenceMatrix(np.array([[0.50005, 0.50005]]))
        assert np.allclose(c.entries.sum(axis=1), 1.0, atol=1e-12)

    def test_accepts_tolerable_drift_without_change(self):
        row = np.array([[0.5, 0.5 + 5e-7]])
        c = CorrespondenceMatrix(row)
        assert np.allclose(c.entries, row)

    def test_rejects_negative_entries(self):
        with pytest.raises(RowNotStochastic):
            CorrespondenceMatrix(np.array([[1.2, -0.2]]))


class TestNormalizeModel:
    def test_unit_cube_corners(self):
        corners = np.array(
            [[i, j, k] for i in (0.0, 1.0) for j in (0.0, 1.0) for k in (0.0, 1.0)]
        )
        pts, scale = normalize_model(corners)
        assert abs(scale - np.sqrt(3.0)) < 1e-12
        assert abs(bbox_diagonal(pts) - 1.0) < 1e-12
        assert np.max(np.abs(pts.mean(axis=0))) < 1e-12

    def test_already_normalized_is_identity(self):
        pts, _ = normalize_model(np.random.default_rng(14).normal(size=(16, 3)))
        again, scale = normalize_model(pts)
        assert abs(scale - 1.0) < 1e-12
        assert np.max(np.abs(again - pts)) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            cloud = rng.normal(size=(rng.integers(2, 40), 3)) * rng.uniform(0.1, 5.0)
            centroid = cloud.mean(axis=0)
            pts, scale = normalize_model(cloud)
            assert abs(bbox_diagonal(pts) - 1.0) < 1e-9
            restored = pts * scale + centroid
            assert np.max(np.abs(restored - cloud)) < 1e-9

    def test_degenerate_extent(self):
        with pytest.raises(DegenerateExtent):
            normalize_model(np.zeros((5, 3)))
