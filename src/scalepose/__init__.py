"""scalepose: decoupled scale and 6D pose estimation for category-level
objects.

The package separates metric size recovery (a category anchor plus a
relative offset) from pose recovery (RANSAC-PnP on scaled canonical
models), provides the NOCS-style oriented-box IoU / mAP evaluation suite,
and ships a synthetic harness contrasting the decoupled pipeline with a
coupled depth-backprojection baseline.
"""

from .boxes import OrientedBox3, box_from_estimate, iou3d
from .evaluation import (
    ApCurve,
    DetectionRecord,
    GroundTruthBox,
    MetricTable,
    ap_curves,
    average_precision,
    match_detections,
    metric_table,
    pose_metrics,
    record_metrics,
)
from .geometry import (
    CameraIntrinsics,
    RigidPose,
    SimilarityTransform,
    backproject,
    project,
    rotation_error_deg,
    rotation_error_symmetric_deg,
    translation_error_cm,
    umeyama_align,
)
from .nocs import (
    CorrespondenceMatrix,
    DeformationField,
    NocsModel,
    ShapePrior,
    apply_deformation,
    assign,
    harden,
    normalize_model,
)
from .pnp import (
    PnPResult,
    RansacConfig,
    ransac_pnp,
    refine_pnp,
    scale_model_points,
    solve_pnp_lsq,
    solve_pnp_minimal,
)
from .scale import (
    CategoryStats,
    MeanScalePredictor,
    NoisyOraclePredictor,
    ScaleObservation,
    ScalePrediction,
    ScalePredictor,
    compute_stats,
    gt_offset,
    recover_scale,
)
from .synth import (
    NoiseSpec,
    PoseRanges,
    SyntheticScene,
    corrupt,
    make_canonical_model,
    run_coupled,
    run_decoupled,
    run_grid,
    sample_scene,
)

__version__ = "0.1.0"

__all__ = [
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
    "__version__",
]
