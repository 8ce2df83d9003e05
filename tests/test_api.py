"""The public surface of ``scalepose``: a change to ``__all__`` shows up here."""

import scalepose

PUBLIC_NAMES = [
    "ApCurve",
    "CameraIntrinsics",
    "CategoryStats",
    "CorrespondenceMatrix",
    "DeformationField",
    "DetectionRecord",
    "GroundTruthBox",
    "MeanScalePredictor",
    "MetricTable",
    "NocsModel",
    "NoiseSpec",
    "NoisyOraclePredictor",
    "OrientedBox3",
    "PnPResult",
    "PoseRanges",
    "RansacConfig",
    "RigidPose",
    "ScaleObservation",
    "ScalePrediction",
    "ScalePredictor",
    "ShapePrior",
    "SimilarityTransform",
    "SyntheticScene",
    "__version__",
    "ap_curves",
    "apply_deformation",
    "assign",
    "average_precision",
    "backproject",
    "box_from_estimate",
    "compute_stats",
    "corrupt",
    "gt_offset",
    "harden",
    "iou3d",
    "make_canonical_model",
    "match_detections",
    "metric_table",
    "normalize_model",
    "pose_metrics",
    "project",
    "ransac_pnp",
    "record_metrics",
    "recover_scale",
    "refine_pnp",
    "rotation_error_deg",
    "rotation_error_symmetric_deg",
    "run_coupled",
    "run_decoupled",
    "run_grid",
    "sample_scene",
    "scale_model_points",
    "solve_pnp_lsq",
    "solve_pnp_minimal",
    "translation_error_cm",
    "umeyama_align",
]


def test_all_is_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sorted(scalepose.__all__) == PUBLIC_NAMES


def test_every_name_resolves():
    for name in scalepose.__all__:
        assert getattr(scalepose, name) is not None
