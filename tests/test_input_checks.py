"""Every input check of the solvers and value types, one row each: the call,
the exact exception class it raises and a fragment of its message.

A shape error is a :class:`DimensionMismatch` (also a ``ValueError``), a
non-finite entry a plain ``ValueError``; both come from ``geometry._frozen``.
"""

import math
import re

import numpy as np
import pytest

from scalepose.boxes import OrientedBox3
from scalepose.errors import DegenerateConfiguration, DegenerateExtent, DimensionMismatch, EmptyList, InputError
from scalepose.geometry import (
    CameraIntrinsics,
    RigidPose,
    rotation_about_axis,
    rotation_from_rotvec,
    translation_error_cm,
    umeyama_align,
)
from scalepose.nocs import CorrespondenceMatrix, NocsModel, normalize_model
from scalepose.pnp import ransac_pnp
from scalepose.synth import CorruptedObservations, ExperimentResult, NoiseSpec

NAN = math.nan
CAMERA = CameraIntrinsics(500.0, 500.0, 320.0, 240.0)
IDENTITY = RigidPose(np.eye(3), np.zeros(3))
POINTS = np.arange(15.0).reshape(5, 3) ** 2


def _experiment(rotation_error_deg):
    return ExperimentResult("mug", "decoupled", NoiseSpec(), 0, rotation_error_deg, 0.0, 1.0, 1.0,
                            IDENTITY, IDENTITY, (0.5, 0.5, 0.5))


CHECKS = [
    # geometry: _frozen's two errors, through the public calls that use it
    ("rotvec-shape", lambda: rotation_from_rotvec([1.0, 2.0]), DimensionMismatch,
     "rotvec must have shape (3,), got (2,)"),
    ("translation-shape", lambda: RigidPose(np.eye(3), np.zeros((1, 3))), DimensionMismatch,
     "translation must have shape (3,), got (1, 3)"),
    ("rotation-shape", lambda: RigidPose(np.eye(2), np.zeros(3)), DimensionMismatch,
     "rotation must have shape (3, 3), got (2, 2)"),
    ("translation-non-finite", lambda: translation_error_cm([NAN, 0.0, 0.0], np.zeros(3)), ValueError,
     "translation a contains non-finite values"),
    ("rotation-reflection", lambda: RigidPose(np.diag([1.0, 1.0, -1.0]), np.zeros(3)), ValueError,
     "matrix is not a proper rotation"),
    ("axis-zero", lambda: rotation_about_axis(np.zeros(3), 30.0), ValueError, "axis must be nonzero"),
    ("umeyama-src-shape", lambda: umeyama_align(POINTS[:, :2], POINTS[:, :2]), DimensionMismatch,
     "src must have shape (N, 3), got (5, 2)"),
    ("umeyama-mismatch", lambda: umeyama_align(POINTS, POINTS[:4]), DimensionMismatch,
     "dst must have shape (5, 3), got (4, 3)"),
    ("umeyama-non-finite", lambda: umeyama_align(POINTS, np.where(POINTS > 100, np.inf, POINTS)), ValueError,
     "dst contains non-finite values"),
    ("umeyama-two-points", lambda: umeyama_align(POINTS[:2], POINTS[:2]), DegenerateConfiguration,
     "need at least 3 point pairs, got 2"),
    # nocs
    ("model-shape", lambda: NocsModel(np.zeros((4, 2))), DimensionMismatch,
     "model points must have shape (N, 3), got (4, 2)"),
    ("model-empty", lambda: NocsModel(np.zeros((0, 3))), EmptyList, "model points is empty"),
    ("model-non-finite", lambda: NocsModel([[NAN, 0.0, 0.0]]), ValueError,
     "model points contains non-finite values"),
    ("matrix-1d", lambda: CorrespondenceMatrix(np.ones(3)), DimensionMismatch,
     "correspondence matrix must have shape (N, N), got (3,)"),
    ("matrix-empty", lambda: CorrespondenceMatrix(np.ones((0, 3))), DimensionMismatch,
     "correspondence matrix must be non-empty, got (0, 3)"),
    ("matrix-non-finite", lambda: CorrespondenceMatrix([[0.5, NAN]]), ValueError,
     "correspondence matrix contains non-finite values"),
    ("normalize-one-point", lambda: normalize_model([[0.1, 0.2, 0.3]]), DegenerateExtent,
     "need at least 2 points to normalize"),
    # pnp._validate_inputs
    ("image-shape", lambda: ransac_pnp(np.zeros((5, 3)), POINTS, CAMERA), DimensionMismatch,
     "image points must have shape (N, 2), got (5, 3)"),
    ("model-points-shape", lambda: ransac_pnp(np.zeros((5, 2)), POINTS[:, :2], CAMERA), DimensionMismatch,
     "model points must have shape (N, 3), got (5, 2)"),
    ("count-mismatch", lambda: ransac_pnp(np.zeros((4, 2)), POINTS, CAMERA), DimensionMismatch,
     "correspondence count mismatch: 4 pixels vs 5 points"),
    ("image-non-finite", lambda: ransac_pnp(np.full((5, 2), np.inf), POINTS, CAMERA), ValueError,
     "image points contains non-finite values"),
    # array fields of the value types
    ("box-extents-shape", lambda: OrientedBox3(IDENTITY, [1.0, 1.0]), DimensionMismatch,
     "extents must have shape (3,), got (2,)"),
    ("observations-shape", lambda: CorruptedObservations(np.zeros((4, 3)), np.ones(4), np.zeros(4)),
     DimensionMismatch, "pixels must have shape (N, 2), got (4, 3)"),
    ("experiment-non-finite", lambda: _experiment(NAN), ValueError, "non-finite experiment result"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in CHECKS], ids=[row[0] for row in CHECKS])
def test_input_check(call, error, message):
    with pytest.raises(error, match=re.escape(message)) as info:
        call()
    assert type(info.value) is error


def test_shape_error_is_an_input_error_and_a_value_error():
    assert issubclass(DimensionMismatch, InputError) and issubclass(DimensionMismatch, ValueError)
