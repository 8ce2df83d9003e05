"""Workload ``simulate_grid``: one operation is one ``scalepose simulate``.

Each job runs a small factorial grid, one category x two scale errors x
two depth-noise levels x three trials, through both estimation arms and
writes the trials and summary CSVs. With three trials a cell's median
differs from its mean, and its AP depends on the precision envelope. Pixel noise is 0.5 px with no
outliers, so RANSAC stops within a handful of iterations and scene
sampling, the coupled arm, exact IoU and the AP summary carry the cost.

The grid uses the categories without a symmetry axis only: for bottle,
bowl and can the summary's AP columns use a symmetry-aware rotation error
that the trials rows do not carry, so a summary row cannot be recomputed
from its trials rows.
"""

import csv
import os

import numpy as np

import fixtures
from reference import voc_ap

CATEGORIES = ("camera", "laptop", "mug")
JOBS_PER_ROUND = 12
SCALE_ERRORS = (-0.1, 0.1)
DEPTH_NOISE = (0.0, 0.05)
TRIALS = 3
PIXEL_NOISE = 0.5
POINTS = 128

_NOISE_COLUMNS = ("pixel_noise_sigma", "outlier_fraction", "scale_rel_error", "depth_rel_noise")
_STAT_COLUMNS = (
    ("median_rotation_error_deg", np.median, "rotation_error_deg"),
    ("mean_rotation_error_deg", np.mean, "rotation_error_deg"),
    ("median_translation_error_cm", np.median, "translation_error_cm"),
    ("mean_translation_error_cm", np.mean, "translation_error_cm"),
    ("mean_iou", np.mean, "iou"),
)
_AP_COLUMNS = {
    "IoU50": lambda row: row["iou"] >= 0.5,
    "IoU75": lambda row: row["iou"] >= 0.75,
    "10cm": lambda row: row["translation_error_cm"] <= 10.0,
    "10deg": lambda row: row["rotation_error_deg"] <= 10.0,
    "10deg10cm": lambda row: row["rotation_error_deg"] <= 10.0 and row["translation_error_cm"] <= 10.0,
}


class Workload:
    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def round(self, r):
        return [self._job(r, j) for j in range(JOBS_PER_ROUND)]

    def input_files(self, ops):
        return [op["config"] for op in ops]

    def _job(self, r, j):
        stem = os.path.join(self.workdir, f"r{r}", f"job{j:02d}")
        op = {
            "config": stem + "_config.json",
            "trials": stem + "_trials.csv",
            "summary": stem + "_summary.csv",
            "category": CATEGORIES[j % len(CATEGORIES)],
        }
        fixtures.write_json(op["config"], {
            "categories": [op["category"]],
            "pixel_noise": [PIXEL_NOISE],
            "outlier_fraction": [0.0],
            "scale_error": list(SCALE_ERRORS),
            "depth_noise": list(DEPTH_NOISE),
            "trials": TRIALS,
            "seed": fixtures.seed_int(self.seed, r, j),
            "points": POINTS,
            "output": op["trials"],
            "summary": op["summary"],
        })
        op["argv"] = ["simulate", "--config", op["config"]]
        return op

    def check(self, ops, run_op):
        """Recompute each summary from its trials; return (failures, accuracy)."""
        failures = []
        decoupled_rot, decoupled_trans = [], []
        coupled_rot = {d: [] for d in DEPTH_NOISE}
        for op in ops:
            trials = _read_rows(op["trials"])
            failures += _check_job(op, trials, _read_rows(op["summary"]))
            for row in trials:
                if row["pipeline"] == "decoupled":
                    decoupled_rot.append(row["rotation_error_deg"])
                    decoupled_trans.append(row["translation_error_cm"])
                else:
                    coupled_rot[row["depth_rel_noise"]].append(row["rotation_error_deg"])
        medians = [np.median(coupled_rot[d]) for d in DEPTH_NOISE]
        if not all(a < b for a, b in zip(medians, medians[1:])):
            failures.append(f"coupled median rotation error {medians} does not rise with depth noise")
        accuracy = {"rot_err_p50_deg": float(np.median(decoupled_rot)),
                    "trans_err_p50_cm": float(np.median(decoupled_trans))}
        return failures, accuracy


def _read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key, value in row.items():
            if key not in ("category", "pipeline"):
                row[key] = float(value)
    return rows


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _check_job(op, trials, summary):
    where = op["summary"] + ": "
    failures = []
    expected = {
        (op["category"], pipeline, se, dn, t)
        for pipeline in ("decoupled", "coupled") for se in SCALE_ERRORS
        for dn in DEPTH_NOISE for t in range(TRIALS)
    }
    got = {(r["category"], r["pipeline"], r["scale_rel_error"], r["depth_rel_noise"], int(r["trial"]))
           for r in trials}
    if got != expected or len(trials) != len(expected):
        return [where + "trials rows do not cover the grid exactly once"]
    for row in trials:
        if row["pipeline"] == "decoupled":
            want = row["gt_scale"] * (1.0 + row["scale_rel_error"])
            if not _close(row["estimated_scale"], want):
                failures.append(where + f"decoupled scale {row['estimated_scale']!r} != gt * (1 + error)")
    cells = {}
    for row in trials:
        key = (row["category"], row["pipeline"]) + tuple(row[c] for c in _NOISE_COLUMNS)
        cells.setdefault(key, []).append(row)
    if len(summary) != len(cells):
        failures.append(where + f"{len(summary)} summary rows for {len(cells)} cells")
    for srow in summary:
        key = (srow["category"], srow["pipeline"]) + tuple(srow[c] for c in _NOISE_COLUMNS)
        cell = cells.get(key)
        if cell is None:
            failures.append(where + f"summary row {key} has no trials")
            continue
        if srow["trials"] != len(cell):
            failures.append(where + f"{key}: trials {srow['trials']} != {len(cell)}")
        for column, stat, source in _STAT_COLUMNS:
            if not _close(srow[column], float(stat([r[source] for r in cell]))):
                failures.append(where + f"{key}: {column} differs from the trials rows")
        # every detection has confidence 1, so the ranking is trial order
        for column, hit in _AP_COLUMNS.items():
            if not _close(srow[column], voc_ap([hit(r) for r in cell], len(cell))):
                failures.append(where + f"{key}: {column} AP differs from the trials rows")
    return failures
