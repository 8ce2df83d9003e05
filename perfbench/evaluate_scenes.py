"""Workload ``evaluate_scenes``: one operation is one ``scalepose evaluate``
on one crowded scene's prediction and ground-truth files.

A scene holds two objects of every category packed into a small volume,
so same-category boxes often sit close enough for ``iou3d`` to clip them.
Two objects are missed, two are detected twice, three false positives lie
far behind the scene, and the errors of the true detections are spread
over fixed magnitudes that span the AP thresholds. Like a detector whose
scores mean something, confidence falls as the error grows, and the
duplicates and false positives score below every true detection; so a
scene's AP curves follow the share of errors under each threshold. The operation runs no
PnP code: exact IoU dominates, in matching and again in the metric table
and the three curves. A round is the same scenes every time, so each
scene's outputs are checked once.
"""

import csv
import json
import operator
import os

import numpy as np

import fixtures
from fixtures import CATEGORIES
from reference import box_iou, category_rotation_error_deg, confidence_order, translation_error_cm, voc_ap

SCENES = 20
PER_CATEGORY = 2
MISSED, DUPLICATED, FAR = 2, 2, 3
ROT_ERR_DEG = (1.0, 3.0, 5.0, 7.0, 9.0, 12.0, 16.0, 22.0, 30.0, 45.0)
TRANS_ERR_CM = (0.6, 1.5, 2.5, 3.5, 4.5, 6.0, 8.0, 10.5, 13.0, 17.0)

TABLE = {
    "IoU50": lambda m: m["iou"] >= 0.5,
    "IoU75": lambda m: m["iou"] >= 0.75,
    "10cm": lambda m: m["trans"] <= 10.0,
    "10°": lambda m: m["rot"] <= 10.0,
    "10°10cm": lambda m: m["rot"] <= 10.0 and m["trans"] <= 10.0,
}
# Curve files: (matched-pair key, hit test, the command's default grid).
CURVES = {
    "iou": ("iou", operator.ge, [round(0.05 * i, 2) for i in range(1, 20)]),
    "rotation_deg": ("rot", operator.le, [float(v) for v in range(1, 61)]),
    "translation_cm": ("trans", operator.le, [round(0.5 * i, 1) for i in range(1, 31)]),
}


def _record(category, rotation, translation, scale, confidence=None):
    rec = {
        "category": category,
        "pose": {"rotation": rotation.ravel().tolist(), "translation": list(map(float, translation))},
        "scale": float(scale),
        "canonical_extents": fixtures.canonical_extents(category).tolist(),
    }
    if confidence is not None:
        rec["confidence"] = float(confidence)
    return rec


def make_scene(rng):
    """Ground truths and detections of one scene, as JSON records."""
    gts = []
    for category in CATEGORIES:
        for _ in range(PER_CATEGORY):
            centre = rng.uniform([-0.35, -0.25, 1.0], [0.35, 0.25, 1.5])
            gts.append(_record(category, fixtures.random_rotation(rng), centre,
                               fixtures.draw_scale(rng, category)))
    order = rng.permutation(len(gts))
    found = order[MISSED:]
    rot_err = np.asarray(ROT_ERR_DEG) + rng.uniform(-0.4, 0.4, len(found))
    trans_err = np.asarray(TRANS_ERR_CM) + rng.uniform(-0.2, 0.2, len(found))
    confidence = np.linspace(0.95, 0.5, len(found)) + rng.uniform(-0.02, 0.02, len(found))
    dets = [_perturb(rng, gts[g], a, t, c) for g, a, t, c in zip(found, rot_err, trans_err, confidence)]
    for g in found[:DUPLICATED]:
        dets.append(_perturb(rng, gts[g], rng.uniform(20.0, 35.0), rng.uniform(4.0, 8.0), rng.uniform(0.05, 0.45)))
    for _ in range(FAR):
        category = CATEGORIES[rng.integers(len(CATEGORIES))]
        centre = rng.uniform([-0.5, -0.3, 3.0], [0.5, 0.3, 4.0])
        dets.append(_record(category, fixtures.random_rotation(rng), centre,
                            fixtures.draw_scale(rng, category), rng.uniform(0.05, 0.45)))
    return gts, dets


def _perturb(rng, gt, angle_deg, shift_cm, confidence):
    rotation = fixtures.axis_angle(rng.normal(size=3), angle_deg) @ np.reshape(gt["pose"]["rotation"], (3, 3))
    direction = rng.normal(size=3)
    translation = np.asarray(gt["pose"]["translation"]) + shift_cm / 100.0 * direction / np.linalg.norm(direction)
    scale = gt["scale"] * (1.0 + rng.uniform(-0.15, 0.15))
    return _record(gt["category"], rotation, translation, scale, confidence)


def _write_jsonl(path, records):
    with open(path, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)


def _box(rec):
    return (np.reshape(rec["pose"]["rotation"], (3, 3)), np.asarray(rec["pose"]["translation"]),
            rec["scale"] * np.asarray(rec["canonical_extents"]))


class Workload:
    def __init__(self, seed, workdir):
        self.ops = []
        for k in range(SCENES):
            gts, dets = make_scene(np.random.default_rng([seed, k]))
            stem = os.path.join(workdir, f"scene{k:02d}")
            os.makedirs(stem)
            op = {"gt": os.path.join(stem, "gt.jsonl"), "pred": os.path.join(stem, "pred.jsonl"),
                  "report": os.path.join(stem, "report"), "gts": gts, "dets": dets}
            _write_jsonl(op["gt"], gts)
            _write_jsonl(op["pred"], dets)
            op["argv"] = ["evaluate", "--predictions", op["pred"], "--ground-truth", op["gt"],
                          "--output-dir", op["report"]]
            self.ops.append(op)

    def round(self, r):
        return self.ops

    def input_files(self, ops):
        return [path for op in ops for path in (op["pred"], op["gt"])]

    def check(self, ops, run_op):
        """Recompute each scene's reports; return (failures, accuracy)."""
        failures, rot_mid, trans_mid = [], [], []
        for op in {id(op): op for op in ops}.values():
            expected = expected_reports(op["gts"], op["dets"])
            for name, rows in expected.items():
                failures += _compare(os.path.join(op["report"], name), rows)
            rot_mid.append(_half_ap_threshold(os.path.join(op["report"], "curve_rotation_deg.csv")))
            trans_mid.append(_half_ap_threshold(os.path.join(op["report"], "curve_translation_cm.csv")))
        accuracy = {"rot_err_p50_deg": float(np.median(rot_mid)),
                    "trans_err_p50_cm": float(np.median(trans_mid))}
        return failures, accuracy


def expected_reports(gts, dets):
    """metrics.csv and the three curve CSVs as rows of (label, values)."""
    # greedy matching: by descending confidence, the free same-category
    # ground truth of highest positive IoU
    taken = [False] * len(gts)
    matched = [None] * len(dets)
    for d in confidence_order([det["confidence"] for det in dets]):
        best, best_iou = -1, 0.0
        for g, gt in enumerate(gts):
            if taken[g] or gt["category"] != dets[d]["category"]:
                continue
            overlap = box_iou(_box(dets[d]), _box(gt))
            if overlap > best_iou:
                best, best_iou = g, overlap
        if best >= 0:
            taken[best] = True
            gt = gts[best]
            matched[d] = {
                "iou": best_iou,
                "rot": category_rotation_error_deg(
                    gt["category"], np.reshape(dets[d]["pose"]["rotation"], (3, 3)),
                    np.reshape(gt["pose"]["rotation"], (3, 3))),
                "trans": translation_error_cm(dets[d]["pose"]["translation"], gt["pose"]["translation"]),
            }

    categories = sorted({gt["category"] for gt in gts})

    def ap(category, hit):
        idx = [i for i, det in enumerate(dets) if det["category"] == category]
        ranked = [idx[i] for i in confidence_order([dets[i]["confidence"] for i in idx])]
        hits = [matched[i] is not None and hit(matched[i]) for i in ranked]
        return voc_ap(hits, sum(gt["category"] == category for gt in gts))

    table = [(c, [ap(c, hit) for hit in TABLE.values()]) for c in categories]
    table.append(("mean", list(np.mean([values for _, values in table], axis=0))))
    reports = {"metrics.csv": table}
    for metric, (key, passes, grid) in CURVES.items():
        rows = []
        for thr in grid:
            values = [ap(c, lambda m: passes(m[key], thr)) for c in categories]
            rows.append((thr, values + [float(np.mean(values))]))
        reports[f"curve_{metric}.csv"] = rows
    return reports


def _compare(path, expected):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != len(expected):
        return [f"{path}: {len(rows)} rows, expected {len(expected)}"]
    failures = []
    for row, (label, values) in zip(rows, expected):
        if isinstance(label, float):
            same_label = abs(float(row[0]) - label) <= 1e-12
        else:
            same_label = row[0] == label
        got = [float(v) for v in row[1:]]
        if not same_label or len(got) != len(values) or any(
            abs(a - b) > 1e-12 for a, b in zip(got, values)
        ):
            failures.append(f"{path}: row {row[0]} differs from the reference")
    return failures


def _half_ap_threshold(path):
    """Threshold at which the mean AP curve first reaches half of its value
    at the end of the grid, interpolated linearly between grid points."""
    with open(path, newline="") as fh:
        rows = [(float(r[0]), float(r[-1])) for r in list(csv.reader(fh))[1:]]
    target = 0.5 * rows[-1][1]
    prev_t, prev_ap = 0.0, 0.0
    for t, ap in rows:
        if ap >= target:
            return prev_t + (t - prev_t) * (target - prev_ap) / (ap - prev_ap)
        prev_t, prev_ap = t, ap
    return rows[-1][0]
