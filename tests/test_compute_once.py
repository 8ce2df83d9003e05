"""Each exact IoU is computed once: ``evaluate`` measures only the
``iou3d_pairs`` pairs of its matching pass, whose IoU becomes each matched
row's IoU, and the simulate summary reads the IoUs and errors stored with
the grid instead of recomputing them; the grid measures each distinct row
once, however many cells share it. Neither builds a box object per
record: the IoU kernel takes the poses stacked as arrays."""

import numpy as np
import pytest

from scalepose import evaluation, fileio, synth
from scalepose.boxes import OrientedBox3
from scalepose.cli import main
from scalepose.evaluation import match_detections
from scalepose.geometry import RigidPose
from scalepose.synth import NoiseSpec, run_grid
from test_golden import GOLDEN, evaluate_args


@pytest.fixture
def iou_calls(monkeypatch):
    """Counts the box pairs passed to ``iou3d_pairs`` through the evaluation
    and synth modules, one entry per pair (per row of the stacked rotations)."""
    calls = []
    for module in (evaluation, synth):

        def counted(a, b, original=module.iou3d_pairs):
            calls.extend([1] * len(a[0]))
            return original(a, b)

        monkeypatch.setattr(module, "iou3d_pairs", counted)
    return calls


def test_evaluate_scores_each_matched_record_once(tmp_path, iou_calls):
    detections = fileio.load_detections(GOLDEN / "predictions.jsonl")
    gts = fileio.load_ground_truths(GOLDEN / "ground_truth.jsonl")
    match_detections(detections, gts)
    matching_calls = len(iou_calls)
    assert matching_calls > 0

    iou_calls.clear()
    assert main(evaluate_args(tmp_path)) == 0
    assert len(iou_calls) == matching_calls


def test_summary_makes_no_iou_call(iou_calls):
    grid = run_grid(["mug"], [NoiseSpec(), NoiseSpec(depth_rel_noise=0.05)], trials=2)
    # one pair per distinct row: each trial has one decoupled row, which
    # both cells share, and one coupled row per depth noise level
    assert len(grid.trials) == 8
    assert len(iou_calls) == 2 * (1 + 2)

    iou_calls.clear()
    grid.summary_csv()
    assert iou_calls == []


@pytest.fixture
def boxes_built(monkeypatch):
    """Every ``OrientedBox3`` constructed while the fixture is active."""
    built = []
    original = OrientedBox3.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(OrientedBox3, "__post_init__", counted)
    return built


def test_evaluate_and_grid_build_no_box_objects(tmp_path, boxes_built):
    OrientedBox3(RigidPose(np.eye(3), np.zeros(3)), (0.6, 0.6, 0.5))
    assert len(boxes_built) == 1  # the counter sees a box
    boxes_built.clear()

    assert main(evaluate_args(tmp_path)) == 0
    run_grid(["mug"], [NoiseSpec(), NoiseSpec(depth_rel_noise=0.05)], trials=2)
    assert boxes_built == []
