"""Detection evaluation: one greedy matching pass that yields each
detection's metric columns (:func:`match_detections`), VOC-style average
precision over confidence-ordered hit matrices, the five-column metric
table (IoU50 / IoU75 / 10cm / 10deg / 10deg10cm), and AP-vs-threshold
curves.

Matching policy (as in the NOCS protocol): detections are handled per
predicted category, sorted by descending confidence (stable on ties), and
each is greedily assigned the untaken ground truth of that category with
the highest box IoU (requiring positive overlap). The IoU found while
matching is the row's IoU; rotation and translation errors are computed
for matched rows only. Predicted categories absent from the ground truth
are reported but omitted from the mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import OrientedBox3, box_from_estimate, iou3d_pairs
from .boxes import iou3d  # noqa: F401 -- kept for perfbench/spans.py, which wraps this name
from .errors import EmptyRecordSet
from .geometry import (
    RigidPose,
    rotation_error_deg,
    rotation_error_symmetric_deg,
    translation_error_cm,
)

# Categories treated as rotationally symmetric about their canonical y-axis.
SYMMETRIC_CATEGORIES = frozenset({"bottle", "bowl", "can"})
SYMMETRY_AXIS = np.array([0.0, 1.0, 0.0])

TABLE_COLUMNS = ("IoU50", "IoU75", "10cm", "10°", "10°10cm")


def csv_text(header, rows):
    """CSV text: the ``header`` names, then one line per row, each line
    ending in a newline. A ``str`` cell or name is written as it is, or in
    double quotes with its own doubled when it holds a comma, a double
    quote or a line break. Any other cell is written as its Python float's
    ``repr``, the shortest digits that read back bit for bit (NumPy scalars
    too). Integer columns pass ``str(...)`` cells."""
    def cell(c):
        if not isinstance(c, str):
            return repr(float(c))
        return '"' + c.replace('"', '""') + '"' if "," in c or '"' in c or "\n" in c or "\r" in c else c

    lines = [",".join(map(cell, header)), *(",".join(map(cell, row)) for row in rows)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GroundTruthBox:
    """One annotated object: pose, metric scale, unit-diagonal extents."""

    category: str
    pose: RigidPose
    scale: float
    canonical_extents: tuple[float, float, float]

    def box(self) -> OrientedBox3:
        return box_from_estimate(self.pose, self.scale, self.canonical_extents)


@dataclass(frozen=True)
class DetectionRecord:
    """One detection: pose, metric scale, unit-diagonal extents, confidence."""

    category: str
    confidence: float
    pose: RigidPose
    scale: float
    canonical_extents: tuple[float, float, float]

    def box(self) -> OrientedBox3:
        return box_from_estimate(self.pose, self.scale, self.canonical_extents)


@dataclass(frozen=True)
class ApCurve:
    """AP sampled over a threshold grid; per-category values plus the mean."""

    metric: str
    thresholds: tuple[float, ...]
    categories: tuple[str, ...]
    per_category: np.ndarray  # (len(thresholds), len(categories))
    mean: np.ndarray  # (len(thresholds),)


def category_rotation_error_deg(category, estimated, truth, use_symmetry=True):
    """Rotation error in degrees under the category's symmetry rule.

    Symmetric categories (bottle, bowl, can) ignore spin about the
    canonical y-axis unless ``use_symmetry`` is off; every other category
    uses the raw geodesic error.
    """
    if use_symmetry and category in SYMMETRIC_CATEGORIES:
        return rotation_error_symmetric_deg(estimated, truth, SYMMETRY_AXIS)
    return rotation_error_deg(estimated, truth)


@dataclass(frozen=True)
class RecordMetrics:
    """Per-record metric columns of matched detections, computed once.

    Rows are grouped by ground-truth category (lexicographic order) and,
    within a group, ordered by descending confidence (input order breaks
    ties); rows ``starts[i]:starts[i + 1]`` belong to ``categories[i]``.
    Unmatched rows hold NaN, which fails every threshold test.
    """

    categories: tuple[str, ...]
    n_gt: tuple[int, ...]
    starts: tuple[int, ...]  # (len(categories) + 1,)
    iou: np.ndarray
    rot_err_deg: np.ndarray
    trans_err_cm: np.ndarray
    skipped_categories: tuple[str, ...] = ()

    def groups(self):
        """``(rows, n_gt)`` per category: a row slice and its gt count."""
        return [(slice(lo, hi), n) for lo, hi, n in zip(self.starts, self.starts[1:], self.n_gt)]


def match_detections(detections, ground_truths, use_symmetry=True) -> RecordMetrics:
    """Greedy matching and the metric columns of every detection, in one pass.

    Per ground-truth category, detections are visited in descending
    confidence (input order breaks ties) and each takes the untaken truth
    of its category with the highest IoU, provided the overlap is positive.
    That IoU is the row's ``iou``; rotation error (as
    :func:`category_rotation_error_deg` gives it) and translation error
    (cm) are computed for matched rows only. Detection categories absent
    from the gt set are dropped and reported in ``skipped_categories``.
    """
    gts_by_category = {}
    for gt in ground_truths:
        gts_by_category.setdefault(gt.category, []).append(gt)
    if not gts_by_category:
        raise EmptyRecordSet("no ground-truth categories to evaluate")
    categories = sorted(gts_by_category)
    dets_by_category = {cat: [] for cat in categories}
    skipped = set()
    for det in detections:
        group = dets_by_category.get(det.category)
        if group is None:
            skipped.add(det.category)
        else:
            group.append(det)

    # every same-category (detection, truth) IoU of the call, in one batch
    det_boxes = {cat: [det.box() for det in dets_by_category[cat]] for cat in categories}
    gt_boxes = {cat: [gt.box() for gt in gts_by_category[cat]] for cat in categories}
    pairs = [(d, g) for cat in categories for d in det_boxes[cat] for g in gt_boxes[cat]]
    ious = iou3d_pairs([d for d, _ in pairs], [g for _, g in pairs])

    columns, starts, at = [], [0], 0
    for cat in categories:
        gts, dets = gts_by_category[cat], dets_by_category[cat]
        table = ious[at:at + len(dets) * len(gts)].reshape(len(dets), len(gts))
        at += table.size
        taken = np.zeros(len(gts), dtype=bool)
        for idx in _confidence_order(dets):
            # the untaken truth of highest IoU, the first on a tie
            overlaps = np.where(taken, 0.0, table[idx])
            best_j = int(np.argmax(overlaps))
            if not overlaps[best_j] > 0.0:
                columns.append((np.nan, np.nan, np.nan))
                continue
            taken[best_j] = True
            det, gt = dets[idx], gts[best_j]
            columns.append((
                overlaps[best_j],
                category_rotation_error_deg(cat, det.pose.rotation, gt.pose.rotation, use_symmetry),
                translation_error_cm(det.pose.translation, gt.pose.translation),
            ))
        starts.append(len(columns))
    iou, rot_err_deg, trans_err_cm = np.array(columns, dtype=np.float64).reshape(-1, 3).T.copy()
    return RecordMetrics(
        categories=tuple(categories),
        n_gt=tuple(len(gts_by_category[cat]) for cat in categories),
        starts=tuple(starts),
        iou=iou,
        rot_err_deg=rot_err_deg,
        trans_err_cm=trans_err_cm,
        skipped_categories=tuple(sorted(skipped)),
    )


def _confidence_order(detections):
    conf = np.array([d.confidence for d in detections], dtype=np.float64)
    return np.argsort(-conf, kind="stable")


def average_precision(hits, n_gt):
    """Area under the precision-recall curve, one value per hit row.

    ``hits`` is a ``(T, N)`` boolean matrix: row ``t`` marks which of one
    category's N detections, in descending confidence, are true positives
    under threshold ``t``; ``n_gt`` is the category's ground-truth count.
    Precision is envelope-interpolated (monotone non-increasing) before
    integrating over recall. The integral is summed in rank order, so the
    result does not depend on how NumPy would pair up a reduction.
    """
    if n_gt == 0:
        raise EmptyRecordSet("average precision needs at least one ground truth")
    tp = np.asarray(hits, dtype=np.float64)
    if tp.shape[1] == 0:
        return np.zeros(tp.shape[0])
    cum_tp = np.cumsum(tp, axis=1)
    cum_fp = np.cumsum(1.0 - tp, axis=1)
    recall = cum_tp / n_gt
    precision = cum_tp / (cum_tp + cum_fp)
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    gains = np.diff(recall, axis=1, prepend=0.0) * envelope
    return np.cumsum(gains, axis=1)[:, -1]


def table_ap(iou, rot_err_deg, trans_err_cm, n_gt):
    """AP at the five :data:`TABLE_COLUMNS` thresholds for one group of
    records given as confidence-ordered metric columns."""
    rot_ok = rot_err_deg <= 10.0
    trans_ok = trans_err_cm <= 10.0
    hits = np.array([iou >= 0.5, iou >= 0.75, trans_ok, rot_ok, rot_ok & trans_ok])
    return average_precision(hits, n_gt)


@dataclass(frozen=True)
class MetricTable:
    """Per-category AP (fractions in [0, 1]) for the five standard metrics,
    plus their unweighted mean; categories ordered lexicographically."""

    categories: tuple[str, ...]
    values: np.ndarray  # (len(categories), 5)
    mean: np.ndarray  # (5,)
    skipped_categories: tuple[str, ...] = ()

    def row(self, category):
        return self.values[self.categories.index(category)]

    def to_text(self):
        """Aligned table with percentages at one decimal."""
        width = max([len("category")] + [len(c) for c in self.categories + ("mean",)])
        header = "category".ljust(width) + "".join(f"{c:>10}" for c in TABLE_COLUMNS)
        lines = [header]
        for cat, row in zip(self.categories, self.values):
            lines.append(cat.ljust(width) + "".join(f"{100 * v:>10.1f}" for v in row))
        lines.append("mean".ljust(width) + "".join(f"{100 * v:>10.1f}" for v in self.mean))
        return "\n".join(lines) + "\n"

    def to_csv(self):
        rows = [[cat, *row] for cat, row in zip(self.categories, self.values)]
        return csv_text(("category", *TABLE_COLUMNS), rows + [["mean", *self.mean]])


def metric_table(metrics: RecordMetrics) -> MetricTable:
    """mAP at the five standard thresholds over :func:`match_detections`."""
    values = np.array(
        [
            table_ap(metrics.iou[rows], metrics.rot_err_deg[rows], metrics.trans_err_cm[rows], n_gt)
            for rows, n_gt in metrics.groups()
        ]
    )
    return MetricTable(metrics.categories, values, values.mean(axis=0), metrics.skipped_categories)


# Curve axis -> (metric column, hit test against a threshold).
_CURVE_TESTS = {
    "iou": ("iou", np.greater_equal),
    "rotation_deg": ("rot_err_deg", np.less_equal),
    "translation_cm": ("trans_err_cm", np.less_equal),
}


def ap_curves(metrics: RecordMetrics, metric, thresholds) -> ApCurve:
    """AP per threshold on one metric axis.

    ``metric`` is one of 'iou', 'rotation_deg', 'translation_cm'; the
    threshold grid must be finite and strictly increasing. IoU uses a >=
    test, the error metrics use <=.
    """
    if metric not in _CURVE_TESTS:
        raise ValueError(f"unknown metric {metric!r}; choose from {sorted(_CURVE_TESTS)}")
    thresholds = [float(t) for t in thresholds]
    if (not thresholds or not np.all(np.isfinite(thresholds))
            or any(b <= a for a, b in zip(thresholds, thresholds[1:]))):
        raise ValueError(f"{metric} threshold grid must be non-empty, finite and strictly increasing")
    column, test = _CURVE_TESTS[metric]
    hits = test(getattr(metrics, column)[None, :], np.array(thresholds)[:, None])
    per_cat = np.column_stack(
        [average_precision(hits[:, rows], n_gt) for rows, n_gt in metrics.groups()]
    )
    return ApCurve(metric, tuple(thresholds), metrics.categories, per_cat, per_cat.mean(axis=1))


def curve_csv(curve: ApCurve):
    """CSV rows: threshold, one column per category, then the mean."""
    rows = [
        [thr, *per_cat, mean]
        for thr, per_cat, mean in zip(curve.thresholds, curve.per_category, curve.mean)
    ]
    return csv_text(("threshold", *curve.categories, "mean"), rows)
