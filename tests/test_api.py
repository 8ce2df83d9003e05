"""The public surface of ``scalepose``: a change to ``__all__`` shows up here."""

import scalepose

PUBLIC_NAMES = [
    "ApCurve",
    "CameraIntrinsics",
    "CategoryStats",
    "CorrespondenceMatrix",
    "DetectionRecord",
    "GroundTruthBox",
    "MetricTable",
    "NocsModel",
    "NoiseSpec",
    "OrientedBox3",
    "PnPResult",
    "RansacConfig",
    "RigidPose",
    "SimilarityTransform",
    "SyntheticScene",
    "__version__",
    "ap_curves",
    "assign",
    "average_precision",
    "backproject",
    "compute_stats",
    "corrupt",
    "gt_offset",
    "iou3d",
    "make_canonical_model",
    "match_detections",
    "metric_table",
    "normalize_model",
    "project",
    "ransac_pnp",
    "recover_scale",
    "refine_pnp",
    "rotation_error_deg",
    "rotation_error_symmetric_deg",
    "run_coupled",
    "run_decoupled",
    "run_grid",
    "sample_scene",
    "solve_canonical",
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
