"""scalepose: decoupled scale and 6D pose estimation for category-level
objects.

The package separates metric size recovery (a category anchor plus a
relative offset) from pose recovery (RANSAC-PnP on the canonical model,
its translation scaled), provides the NOCS-style oriented-box IoU / mAP
evaluation suite, and ships a synthetic harness contrasting the
decoupled pipeline with a coupled depth-backprojection baseline.
"""

from .boxes import OrientedBox3, iou3d
from .evaluation import (
    ApCurve,
    DetectionRecord,
    GroundTruthBox,
    MetricTable,
    ap_curves,
    average_precision,
    match_detections,
    metric_table,
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
    NocsModel,
    assign,
    normalize_model,
)
from .pnp import (
    PnPResult,
    RansacConfig,
    ransac_pnp,
    refine_pnp,
    solve_pnp_lsq,
    solve_pnp_minimal,
)
from .scale import (
    CategoryStats,
    compute_stats,
    gt_offset,
    recover_scale,
)
from .synth import (
    NoiseSpec,
    SyntheticScene,
    corrupt,
    make_canonical_model,
    run_coupled,
    run_decoupled,
    run_grid,
    sample_scene,
    solve_canonical,
)

__version__ = "0.1.0"

__all__ = [
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
    "__version__",
]
