"""Byte-identical outputs against pinned golden files.

``tests/golden/`` holds the outputs of the implementation that scored each
evaluate metric once per threshold predicate, captured before the
columnar metrics pass replaced it:

* ``evaluate/`` and ``evaluate_symmetry_off/``: the five report files of
  ``scalepose evaluate`` on ``predictions.jsonl``/``ground_truth.jsonl``, a
  seeded six-category input with crowded boxes, missed objects, duplicate
  detections, far false positives, a predicted category without ground
  truth and tied confidences;
* ``simulate/``: the trials and summary CSVs of a camera/laptop/mug grid
  (the categories whose rotation error has no symmetry rule).

Regenerate them only for a deliberate change of output format, of the
RANSAC sample stream or of the pose arithmetic. ``simulate/`` is the output of ``scalepose`` run with
``SIMULATE_ARGS`` plus ``--output``/``--summary`` into it, which
``PYTHONPATH=src python tests/test_golden.py`` rewrites.
"""

import sys
from pathlib import Path

import pytest

from scalepose.cli import main

GOLDEN = Path(__file__).parent / "golden"
EVALUATE_FILES = (
    "metrics.csv",
    "metrics.txt",
    "curve_iou.csv",
    "curve_rotation_deg.csv",
    "curve_translation_cm.csv",
)
SIMULATE_ARGS = [
    "simulate", "--categories", "camera", "laptop", "mug", "--trials", "3",
    "--pixel-noise", "0.5", "--outlier-fraction", "0,0.2", "--scale-error", "0,0.1",
    "--depth-noise", "0.05", "--points", "64", "--seed", "5",
]


def evaluate_args(out, *extra):
    return [
        "evaluate",
        "--predictions", str(GOLDEN / "predictions.jsonl"),
        "--ground-truth", str(GOLDEN / "ground_truth.jsonl"),
        "--output-dir", str(out),
        *extra,
    ]


@pytest.mark.parametrize(
    "golden_dir, extra", [("evaluate", ()), ("evaluate_symmetry_off", ("--symmetry", "off"))]
)
def test_evaluate_matches_golden(tmp_path, capsys, golden_dir, extra):
    assert main(evaluate_args(tmp_path, *extra)) == 0
    assert "'spoon' has no ground truth" in capsys.readouterr().err
    for name in EVALUATE_FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / golden_dir / name).read_bytes(), name


def test_simulate_matches_golden(tmp_path):
    trials, summary = tmp_path / "trials.csv", tmp_path / "summary.csv"
    assert main(SIMULATE_ARGS + ["--output", str(trials), "--summary", str(summary)]) == 0
    assert trials.read_bytes() == (GOLDEN / "simulate" / "trials.csv").read_bytes()
    assert summary.read_bytes() == (GOLDEN / "simulate" / "summary.csv").read_bytes()


if __name__ == "__main__":
    out = GOLDEN / "simulate"
    sys.exit(main(SIMULATE_ARGS + ["--output", str(out / "trials.csv"), "--summary", str(out / "summary.csv")]))
