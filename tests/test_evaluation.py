"""Evaluation-harness tests.

The mAP fixture below is built so every IoU and error is a closed-form
number, and the per-metric average precisions were worked out by hand from
the precision-recall points (the values appear as exact fractions in the
asserts).

Fixture layout -- canonical extents e = (0.6, 0.6, sqrt(0.28)), unit diagonal.

camera (not symmetric), 3 gt at x = 0, 1, 2 (z = 1), scale 1:
    d1  conf 0.90  exact match of gt1            IoU 1      rot 0    trans 0
    d2  conf 0.80  gt2 shifted 0.18 m along x    IoU 7/13   rot 0    trans 18 cm
    d3  conf 0.70  gt3 rotated 180 deg about z   IoU 1      rot 180  trans 0
    d7  conf 0.65  duplicate of gt1 (gt taken)   unmatched
    d4  conf 0.60  far away                      unmatched
    d10 conf 0.30  far away                      unmatched

bowl (symmetric about y), 3 gt at x = 0, 1, 2 (z = 2), scale 0.5:
    d5  conf 0.95  gt1 spun 90 deg about y       IoU a/(0.6-a), a = 0.5*sqrt(0.28)
    d6  conf 0.50  gt2 at scale 0.4 (nested)     IoU 0.512  rot 0    trans 0
    d8  conf 0.45  far away                      unmatched
    d9  conf 0.40  exact match of gt3            IoU 1      rot 0    trans 0
"""

import csv
import io
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import estimate_box, reference_record_metrics
from scalepose.errors import EmptyRecordSet
from scalepose.evaluation import (
    TABLE_COLUMNS,
    DetectionRecord,
    GroundTruthBox,
    _confidence_order,
    ap_curves,
    average_precision,
    csv_text,
    curve_csv,
    match_detections,
    metric_table,
)
from scalepose.geometry import RigidPose, random_rotation, rotation_about_axis

EXT = (0.6, 0.6, math.sqrt(0.28))
IDENTITY = np.eye(3)


def _pose(x, z, rotation=None):
    return RigidPose(IDENTITY if rotation is None else rotation, [x, 0.0, z])


def fixture_records():
    camera_gt = [GroundTruthBox("camera", _pose(x, 1.0), 1.0, EXT) for x in (0.0, 1.0, 2.0)]
    bowl_gt = [GroundTruthBox("bowl", _pose(x, 2.0), 0.5, EXT) for x in (0.0, 1.0, 2.0)]
    detections = [
        DetectionRecord("camera", 0.90, _pose(0.0, 1.0), 1.0, EXT),
        DetectionRecord("camera", 0.80, _pose(1.18, 1.0), 1.0, EXT),
        DetectionRecord("camera", 0.70, _pose(2.0, 1.0, rotation_about_axis([0, 0, 1], 180.0)), 1.0, EXT),
        DetectionRecord("camera", 0.65, _pose(0.0, 1.0), 1.0, EXT),
        DetectionRecord("camera", 0.60, _pose(10.0, 1.0), 1.0, EXT),
        DetectionRecord("camera", 0.30, _pose(12.0, 1.0), 1.0, EXT),
        DetectionRecord("bowl", 0.95, _pose(0.0, 2.0, rotation_about_axis([0, 1, 0], 90.0)), 0.5, EXT),
        DetectionRecord("bowl", 0.50, _pose(1.0, 2.0), 0.4, EXT),
        DetectionRecord("bowl", 0.45, _pose(10.0, 2.0), 0.5, EXT),
        DetectionRecord("bowl", 0.40, _pose(2.0, 2.0), 0.5, EXT),
    ]
    return detections, camera_gt + bowl_gt


# Crowded random scenes: boxes on a tight lattice so truths overlap one
# another, detections that copy a truth exactly (duplicates when two copy
# the same one) or sit anywhere, confidences from a small set so ties
# occur, and "mug" detections, which never have a truth.
_ROTATIONS = [IDENTITY] + [random_rotation(np.random.default_rng(seed)) for seed in range(5)]
_POSES = st.builds(
    lambda r, x, z: RigidPose(_ROTATIONS[r], [x, 0.0, z]),
    st.integers(0, len(_ROTATIONS) - 1),
    st.sampled_from([0.0, 0.05, 0.2, 0.45, 3.0]),
    st.sampled_from([1.0, 1.1]),
)
_SCALES = st.sampled_from([0.3, 0.5, 0.8])
_CONFIDENCES = st.sampled_from([0.3, 0.6, 0.9])


@st.composite
def crowded_scenes(draw):
    gts = draw(
        st.lists(
            st.builds(GroundTruthBox, st.sampled_from(["bowl", "camera"]), _POSES, _SCALES, st.just(EXT)),
            min_size=1,
            max_size=6,
        )
    )
    copies = st.builds(
        lambda gt, conf: DetectionRecord(gt.category, conf, gt.pose, gt.scale, EXT),
        st.sampled_from(gts),
        _CONFIDENCES,
    )
    anywhere = st.builds(
        DetectionRecord, st.sampled_from(["bowl", "camera", "mug"]), _CONFIDENCES, _POSES, _SCALES, st.just(EXT)
    )
    return draw(st.lists(st.one_of(copies, anywhere), max_size=10)), gts


def _row(detection, gt, use_symmetry=True):
    """The (iou, rot_err_deg, trans_err_cm) values of one detection against one truth."""
    metrics = match_detections([detection], [gt], use_symmetry=use_symmetry)
    return {key: float(getattr(metrics, key)[0, 0]) for key in ("iou", "rot_err_deg", "trans_err_cm")}


class TestPoseMetrics:
    def test_perfect_prediction(self):
        gt = GroundTruthBox("camera", _pose(0.0, 1.0), 1.0, EXT)
        m = _row(DetectionRecord("camera", 1.0, _pose(0.0, 1.0), 1.0, EXT), gt)
        assert m["iou"] == pytest.approx(1.0, abs=1e-9)
        assert m["rot_err_deg"] == pytest.approx(0.0, abs=1e-9)
        assert m["trans_err_cm"] == pytest.approx(0.0, abs=1e-9)

    def test_ten_degree_rotation_measured(self):
        gt = GroundTruthBox("camera", _pose(0.0, 1.0), 1.0, EXT)
        rot = rotation_about_axis([1, 0, 0], 10.0)
        rec = DetectionRecord("camera", 1.0, _pose(0.0, 1.0, rot), 1.0, EXT)
        assert _row(rec, gt)["rot_err_deg"] == pytest.approx(10.0, abs=1e-9)

    def test_symmetric_category_absorbs_axis_spin(self):
        gt = GroundTruthBox("bowl", _pose(0.0, 2.0), 0.5, EXT)
        rot = rotation_about_axis([0, 1, 0], 37.0)
        rec = DetectionRecord("bowl", 1.0, _pose(0.0, 2.0, rot), 0.5, EXT)
        assert _row(rec, gt)["rot_err_deg"] == pytest.approx(0.0, abs=1e-9)
        assert _row(rec, gt, use_symmetry=False)["rot_err_deg"] == pytest.approx(37.0, abs=1e-9)

    def test_matches_composed_metric_calls(self):
        from scalepose.boxes import iou3d
        from scalepose.geometry import random_rotation, rotation_error_deg, translation_error_cm

        rng = np.random.default_rng(0)
        gt_pose = RigidPose(random_rotation(rng), [0.1, 0.0, 1.4])
        est_pose = RigidPose(random_rotation(rng), [0.12, -0.03, 1.38])
        gt = GroundTruthBox("camera", gt_pose, 0.3, EXT)
        m = _row(DetectionRecord("camera", 1.0, est_pose, 0.28, EXT), gt)
        assert m["rot_err_deg"] == pytest.approx(rotation_error_deg(est_pose.rotation, gt_pose.rotation))
        assert m["trans_err_cm"] == pytest.approx(
            translation_error_cm(est_pose.translation, gt_pose.translation)
        )
        assert m["iou"] == pytest.approx(
            iou3d(estimate_box(est_pose, 0.28, EXT), estimate_box(gt_pose, 0.3, EXT))
        )

    def test_missing_ground_truth(self):
        # no overlap with the only truth: the row stays unmatched, all NaN
        gt = GroundTruthBox("camera", _pose(0.0, 1.0), 1.0, EXT)
        m = _row(DetectionRecord("camera", 1.0, _pose(5.0, 1.0), 1.0, EXT), gt)
        assert all(math.isnan(v) for v in m.values())


class TestRecordMetrics:
    def test_columns_grouped_by_category_in_confidence_order(self):
        detections, gts = fixture_records()
        metrics = match_detections(detections, gts)
        assert metrics.categories == ("bowl", "camera")
        assert metrics.n_gt == (3, 3)
        for key in ("iou", "rot_err_deg", "trans_err_cm"):
            column = getattr(metrics, key)
            assert column.shape == (2, 6), key
            assert np.isnan(column[0, 4:]).all(), key  # bowl's padding
        # bowl: d5 (spun about y), d6 (nested), d8 (unmatched), d9 (exact)
        a = 0.5 * math.sqrt(0.28)
        assert metrics.iou[0, :4] == pytest.approx([a / (0.6 - a), 0.512, math.nan, 1.0], nan_ok=True)
        assert metrics.rot_err_deg[0, :4] == pytest.approx([0.0, 0.0, math.nan, 0.0], abs=1e-9, nan_ok=True)
        # camera: d1, d2, d3, then the unmatched d7, d4, d10
        assert metrics.trans_err_cm[1, :3] == pytest.approx([0.0, 18.0, 0.0], abs=1e-9)
        assert np.isnan(metrics.trans_err_cm[1, 3:]).all()

    def test_no_ground_truth_is_an_error(self):
        detections, _ = fixture_records()
        with pytest.raises(EmptyRecordSet):
            match_detections(detections, [])


class TestMatching:
    def test_greedy_by_confidence(self):
        # rows in confidence order per category: bowl d5 d6 d8 d9, then
        # camera d1 d2 d3 d7 d4 d10
        detections, gts = fixture_records()
        metrics = match_detections(detections, gts)
        matched = ~np.isnan(metrics.iou)
        assert [row[:n].tolist() for row, n in zip(matched, (4, 6))] == [
            [True, True, False, True],
            [True, True, True, False, False, False],
        ]

    def test_each_gt_used_once(self):
        # two exact copies of one truth: the higher-confidence one (the first
        # in input order on a tie) takes it, the other stays unmatched
        gt = GroundTruthBox("camera", _pose(0.0, 1.0), 1.0, EXT)
        for confidences in ((0.4, 0.9), (0.9, 0.9)):
            dets = [DetectionRecord("camera", c, _pose(0.0, 1.0), 1.0, EXT) for c in confidences]
            assert match_detections(dets, [gt]).iou == pytest.approx(np.array([[1.0, math.nan]]), nan_ok=True)

    @settings(max_examples=100, deadline=None)
    @given(scene=crowded_scenes(), use_symmetry=st.booleans())
    def test_matches_two_pass_reference_bit_for_bit(self, scene, use_symmetry):
        detections, gts = scene
        got = match_detections(detections, gts, use_symmetry=use_symmetry)
        expected = reference_record_metrics(detections, gts, use_symmetry=use_symmetry)
        for key in ("categories", "n_gt", "skipped_categories"):
            assert getattr(got, key) == getattr(expected, key), key
        for key in ("iou", "rot_err_deg", "trans_err_cm"):
            assert np.array_equal(getattr(got, key), getattr(expected, key), equal_nan=True), key


def reference_ap(confidences, hits, n_gt):
    """Per-rank VOC AP loop: sort by descending confidence (input order
    breaks ties), envelope the precision from the back, then add the area
    of each recall step in rank order."""
    if n_gt == 0:
        raise EmptyRecordSet("average precision needs at least one ground truth")
    if not len(hits):
        return 0.0
    order = np.argsort(-np.asarray(confidences, dtype=np.float64), kind="stable")
    tp = np.zeros(len(hits))
    for rank, idx in enumerate(order):
        if hits[idx]:
            tp[rank] = 1.0
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    recall = cum_tp / n_gt
    precision = cum_tp / (cum_tp + cum_fp)
    for i in range(len(precision) - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
    ap = 0.0
    prev = 0.0
    for r, p in zip(recall, precision):
        if r > prev:
            ap += (r - prev) * p
            prev = r
    return float(ap)


class TestAveragePrecision:
    def test_all_correct(self):
        assert average_precision([[True]], 1).tolist() == [1.0]

    def test_half_correct_hand_case(self):
        # 2 detections (high-conf correct, low-conf wrong), 2 gt:
        # P-R points (0.5, 1.0), (0.5, 0.5) -> area 0.5
        assert average_precision([[True, False]], 2).tolist() == [0.5]

    def test_none_correct(self):
        assert average_precision([[False]], 1).tolist() == [0.0]

    def test_requires_ground_truth(self):
        with pytest.raises(EmptyRecordSet):
            average_precision(np.zeros((1, 0), dtype=bool), 0)

    def test_no_detections_scores_zero(self):
        assert average_precision(np.zeros((3, 0), dtype=bool), 2).tolist() == [0.0, 0.0, 0.0]

    @settings(max_examples=300, deadline=None)
    @given(
        # per detection: a confidence from a small set, so ties occur, and
        # whether it is a hit under each of three thresholds
        detections=st.lists(
            st.tuples(st.sampled_from([0.1, 0.5, 0.9]), st.lists(st.booleans(), min_size=3, max_size=3)),
            max_size=40,
        ),
        n_gt=st.integers(1, 25),
    )
    # a case where NumPy's pairwise np.sum differs from the rank-order sum
    @example(detections=[(0.5, [h] * 3) for h in (1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 0)], n_gt=9)
    def test_matches_per_rank_reference_bit_for_bit(self, detections, n_gt):
        confidences = [c for c, _ in detections]
        order = _confidence_order([SimpleNamespace(confidence=c) for c in confidences])
        ranked = [detections[i] for i in order]
        hits = np.array([[h[t] for _, h in ranked] for t in range(3)], dtype=bool).reshape(3, -1)
        got = average_precision(hits, n_gt)
        expected = [reference_ap(confidences, [h[t] for _, h in detections], n_gt) for t in range(3)]
        assert [repr(float(v)) for v in got] == [repr(v) for v in expected]


    @settings(max_examples=200, deadline=None)
    @given(
        # per group: detections as above (none makes an empty group) and a
        # ground-truth count that may exceed them
        groups=st.lists(
            st.tuples(
                st.lists(
                    st.tuples(st.sampled_from([0.1, 0.5, 0.9]), st.lists(st.booleans(), min_size=3, max_size=3)),
                    max_size=12,
                ),
                st.integers(1, 20),
            ),
            min_size=1,
            max_size=5,
        )
    )
    # uneven groups, an empty group, an all-miss row and n_gt above N
    @example(groups=[([(0.5, [True, False, False])] * 3, 2), ([], 1), ([(0.9, [False, True, False])], 4)])
    def test_padded_groups_match_each_group_bit_for_bit(self, groups):
        width = max(len(detections) for detections, _ in groups)
        hits = np.zeros((len(groups), 3, width), dtype=bool)  # padded with non-hits
        for g, (detections, _) in enumerate(groups):
            order = _confidence_order([SimpleNamespace(confidence=c) for c, _ in detections])
            for rank, i in enumerate(order):
                hits[g, :, rank] = detections[i][1]
        got = average_precision(hits, np.array([n_gt for _, n_gt in groups])[:, None])
        assert got.shape == (len(groups), 3)
        for g, (detections, n_gt) in enumerate(groups):
            confidences = [c for c, _ in detections]
            expected = [reference_ap(confidences, [h[t] for _, h in detections], n_gt) for t in range(3)]
            assert [repr(float(v)) for v in got[g]] == [repr(v) for v in expected]


class TestMetricTable:
    def test_fixture_matches_hand_computation(self):
        detections, gts = fixture_records()
        table = metric_table(match_detections(detections, gts))
        assert table.categories == ("bowl", "camera")
        bowl = dict(zip(TABLE_COLUMNS, table.row("bowl")))
        camera = dict(zip(TABLE_COLUMNS, table.row("camera")))
        assert bowl["IoU50"] == pytest.approx(11 / 12, abs=1e-12)
        assert bowl["IoU75"] == pytest.approx(1 / 2, abs=1e-12)
        assert bowl["10cm"] == pytest.approx(11 / 12, abs=1e-12)
        assert bowl["10°"] == pytest.approx(11 / 12, abs=1e-12)
        assert bowl["10°10cm"] == pytest.approx(11 / 12, abs=1e-12)
        assert camera["IoU50"] == pytest.approx(1.0, abs=1e-12)
        assert camera["IoU75"] == pytest.approx(5 / 9, abs=1e-12)
        assert camera["10cm"] == pytest.approx(5 / 9, abs=1e-12)
        assert camera["10°"] == pytest.approx(2 / 3, abs=1e-12)
        assert camera["10°10cm"] == pytest.approx(1 / 3, abs=1e-12)
        mean = dict(zip(TABLE_COLUMNS, table.mean))
        assert mean["IoU50"] == pytest.approx(23 / 24, abs=1e-12)
        assert mean["IoU75"] == pytest.approx(19 / 36, abs=1e-12)
        assert mean["10cm"] == pytest.approx(53 / 72, abs=1e-12)
        assert mean["10°"] == pytest.approx(19 / 24, abs=1e-12)
        assert mean["10°10cm"] == pytest.approx(5 / 8, abs=1e-12)

    def test_symmetry_flag_changes_rotation_metrics(self):
        detections, gts = fixture_records()
        table = metric_table(match_detections(detections, gts, use_symmetry=False))
        bowl = dict(zip(TABLE_COLUMNS, table.row("bowl")))
        assert bowl["10°"] == pytest.approx(1 / 3, abs=1e-12)
        assert bowl["10°10cm"] == pytest.approx(1 / 3, abs=1e-12)
        # IoU and translation metrics unaffected by the flag
        assert bowl["IoU50"] == pytest.approx(11 / 12, abs=1e-12)
        assert bowl["10cm"] == pytest.approx(11 / 12, abs=1e-12)

    def test_header_set_matches_benchmark_columns(self):
        assert TABLE_COLUMNS == ("IoU50", "IoU75", "10cm", "10°", "10°10cm")
        detections, gts = fixture_records()
        table = metric_table(match_detections(detections, gts))
        header = table.to_text().splitlines()[0]
        for column in TABLE_COLUMNS:
            assert column in header
        assert table.to_csv().splitlines()[0] == "category," + ",".join(TABLE_COLUMNS)

    def test_text_table_percent_formatting(self):
        detections, gts = fixture_records()
        table = metric_table(match_detections(detections, gts))
        lines = table.to_text().splitlines()
        assert lines[1].split()[0] == "bowl"
        assert "91.7" in lines[1]  # 11/12 as a one-decimal percentage
        assert lines[-1].split()[0] == "mean"

    def test_conjunction_bounded_by_parts(self):
        detections, gts = fixture_records()
        table = metric_table(match_detections(detections, gts))
        cols = dict(zip(TABLE_COLUMNS, table.mean))
        assert cols["10°10cm"] <= min(cols["10°"], cols["10cm"]) + 1e-12

    def test_confidence_rescaling_invariance(self):
        detections, gts = fixture_records()
        table_a = metric_table(match_detections(detections, gts))
        rescaled = [
            DetectionRecord(d.category, 0.37 * d.confidence, d.pose, d.scale, d.canonical_extents)
            for d in detections
        ]
        table_b = metric_table(match_detections(rescaled, gts))
        assert np.array_equal(table_a.values, table_b.values)

    def test_predicted_category_without_gt_skipped(self):
        detections, gts = fixture_records()
        extra = detections + [DetectionRecord("mug", 0.99, _pose(0.0, 1.0), 0.2, EXT)]
        table = metric_table(match_detections(extra, gts))
        assert table.skipped_categories == ("mug",)
        assert table.categories == ("bowl", "camera")

    def test_perfect_predictions_all_hundred(self):
        _, gts = fixture_records()
        perfect = [
            DetectionRecord(g.category, 1.0, g.pose, g.scale, g.canonical_extents) for g in gts
        ]
        table = metric_table(match_detections(perfect, gts))
        assert np.allclose(table.values, 1.0)
        assert np.allclose(table.mean, 1.0)


class TestApCurves:
    def test_perfect_predictions_constant_curve(self):
        _, gts = fixture_records()
        perfect = [
            DetectionRecord(g.category, 1.0, g.pose, g.scale, g.canonical_extents) for g in gts
        ]
        curve = ap_curves(match_detections(perfect, gts), "rotation_deg", [1.0, 5.0, 10.0, 30.0])
        assert np.allclose(curve.mean, 1.0)

    def test_monotone_in_error_thresholds(self):
        detections, gts = fixture_records()
        metrics = match_detections(detections, gts)
        for metric in ("rotation_deg", "translation_cm"):
            curve = ap_curves(metrics, metric, list(np.linspace(0.5, 60.0, 40)))
            assert np.all(np.diff(curve.mean) >= -1e-12)

    def test_non_increasing_in_iou_threshold(self):
        detections, gts = fixture_records()
        metrics = match_detections(detections, gts)
        curve = ap_curves(metrics, "iou", list(np.linspace(0.05, 0.95, 19)))
        assert np.all(np.diff(curve.mean) <= 1e-12)

    def test_csv_format(self):
        detections, gts = fixture_records()
        metrics = match_detections(detections, gts)
        curve = ap_curves(metrics, "iou", [0.25, 0.5, 0.75])
        lines = curve_csv(curve).splitlines()
        assert lines[0] == "threshold,bowl,camera,mean"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.25
        assert len(first) == 4

    def test_grid_validation(self):
        detections, gts = fixture_records()
        metrics = match_detections(detections, gts)
        with pytest.raises(ValueError):
            ap_curves(metrics, "iou", [0.5, 0.5])
        with pytest.raises(ValueError):
            ap_curves(metrics, "volume", [0.5])
        for grid in ([float("nan")], [0.25, float("nan")], [0.5, float("inf")], [-float("inf"), 0.5], []):
            with pytest.raises(ValueError, match="finite"):
                ap_curves(metrics, "iou", grid)


def test_csv_text_cell_rule():
    # A str cell is kept as given; any other cell is written as its Python
    # float's repr, so NumPy 2 scalars do not print as "np.float64(...)".
    text = csv_text(("name", "value"), [["a", np.float64(0.1)], ["0.10", 0.1 + 0.2], ["3", 3]])
    assert text == "name,value\na,0.1\n0.10,0.30000000000000004\n3,3.0\n"
    # A str cell or name holding a comma, a double quote or a line break is
    # quoted, and its own double quotes are doubled.
    text = csv_text(("name,kind", "value"), [["mug,large", 1], ['say "hi"', 2], ["a\nb", 3], ["c\rd", 4]])
    assert text == '"name,kind",value\n"mug,large",1.0\n"say ""hi""",2.0\n"a\nb",3.0\n"c\rd",4.0\n'
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows == [["name,kind", "value"], ["mug,large", "1.0"], ['say "hi"', "2.0"], ["a\nb", "3.0"],
                    ["c\rd", "4.0"]]
