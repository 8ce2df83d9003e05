"""Each exact IoU is computed once: ``evaluate`` makes only the ``iou3d``
calls of its matching pass, whose IoU becomes each matched row's IoU, and
the simulate summary reads the IoU and errors stored with each result
instead of recomputing them."""

import pytest

from scalepose import evaluation, fileio, synth
from scalepose.cli import main
from scalepose.evaluation import match_detections
from scalepose.synth import NoiseSpec, run_grid
from test_golden import GOLDEN, evaluate_args


@pytest.fixture
def iou_calls(monkeypatch):
    """Counts ``iou3d`` calls made through the evaluation and synth modules."""
    calls = []
    for module in (evaluation, synth):

        def counted(a, b, original=module.iou3d):
            calls.append(1)
            return original(a, b)

        monkeypatch.setattr(module, "iou3d", counted)
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
    assert len(iou_calls) == len(grid.trials)

    iou_calls.clear()
    grid.summary_csv()
    assert iou_calls == []
