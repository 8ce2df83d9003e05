"""File formats shared by the CLI: JSON for structured records and JSON-lines
for per-object streams. CSV reports are not written here; they come from
:func:`scalepose.evaluation.csv_text`, which writes floats by the same rule.

Serialization is round-trip exact: floats are written with ``repr``, which
emits the shortest digit string that reproduces the value bit for bit.
Rotations serialize as row-major 9-arrays, translations as 3-arrays, and
angles only ever appear in degrees.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import InputError, NonPositiveScale
from .evaluation import DetectionRecord, GroundTruthBox
from .geometry import CameraIntrinsics, RigidPose
from .nocs import CorrespondenceMatrix, NocsModel
from .scale import CategoryStats


def atomic_write_text(path, text):
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(obj, path):
    atomic_write_text(path, json.dumps(obj, indent=2) + "\n")


def load_json(path, expect=None):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})")
    if expect is not None and not isinstance(data, expect):
        raise InputError(f"{path}: expected top-level {expect.__name__}")
    return data


def iter_jsonl(path):
    """Yield (line_number, object) pairs, skipping blank lines."""
    try:
        fh = open(path)
    except FileNotFoundError:
        raise InputError(f"file not found: {path}")
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}:{lineno}: invalid JSON ({exc})")


def _require(mapping, key, path, lineno=None):
    if key not in mapping:
        where = f"{path}:{lineno}" if lineno else path
        raise InputError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _numbers(value, size):
    """True when ``value`` is a JSON list of ``size`` numbers."""
    return (
        isinstance(value, list)
        and len(value) == size
        and all(type(v) in (int, float) for v in value)
    )


# -- poses ---------------------------------------------------------------------

def pose_to_dict(pose: RigidPose):
    return {
        "rotation": [float(v) for v in pose.rotation.ravel()],
        "translation": [float(v) for v in pose.translation],
    }


def pose_from_dict(d, path="<pose>", lineno=None):
    rot = _require(d, "rotation", path, lineno)
    trans = _require(d, "translation", path, lineno)
    if len(rot) != 9 or len(trans) != 3:
        where = f"{path}:{lineno}" if lineno else path
        raise InputError(f"{where}: rotation must have 9 entries and translation 3")
    try:
        return RigidPose(np.asarray(rot, dtype=np.float64).reshape(3, 3), trans)
    except ValueError as exc:
        where = f"{path}:{lineno}" if lineno else path
        raise InputError(f"{where}: {exc}")


# -- intrinsics ------------------------------------------------------------------

def load_intrinsics(path) -> CameraIntrinsics:
    data = load_json(path, expect=dict)
    try:
        return CameraIntrinsics(
            fx=_require(data, "fx", path),
            fy=_require(data, "fy", path),
            cx=_require(data, "cx", path),
            cy=_require(data, "cy", path),
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}")


# -- correspondences ---------------------------------------------------------------

def load_correspondences(path):
    """Array of {image: [u, v], model: [x, y, z]} records.

    Returns ``(image_points (N, 2), model_points (N, 3) or None)``; the
    model side is None when any record omits it (callers then need a
    canonical model plus correspondence matrix).
    """
    data = load_json(path, expect=list)
    if not data:
        raise InputError(f"{path}: empty correspondence list")
    image = []
    model = []
    have_model = True
    for i, rec in enumerate(data):
        if not isinstance(rec, dict):
            raise InputError(f"{path}: entry {i} is not an object")
        img = _require(rec, "image", path)
        if not _numbers(img, 2):
            raise InputError(f"{path}: entry {i}: image must be [u, v]")
        image.append(img)
        if "model" in rec:
            if not _numbers(rec["model"], 3):
                raise InputError(f"{path}: entry {i}: model must be [x, y, z]")
            model.append(rec["model"])
        else:
            have_model = False
    image_arr = np.asarray(image, dtype=np.float64)
    model_arr = np.asarray(model, dtype=np.float64) if have_model else None
    return image_arr, model_arr


# -- canonical models and correspondence matrices -------------------------------------

def load_nocs_model(path) -> NocsModel:
    data = load_json(path, expect=dict)
    pts = _require(data, "points", path)
    try:
        return NocsModel(np.asarray(pts, dtype=np.float64))
    except Exception as exc:
        raise InputError(f"{path}: {exc}")


def _whole(value, name):
    """``int(value)``, refusing a fraction that ``int`` would truncate."""
    if int(value) != float(value):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def load_correspondence_matrix(path) -> CorrespondenceMatrix:
    """Dense {rows, cols, data: row-major} or sparse {rows, cols, triplets}."""
    data = load_json(path, expect=dict)
    try:
        rows = _whole(_require(data, "rows", path), "rows")
        cols = _whole(_require(data, "cols", path), "cols")
        if rows < 1 or cols < 1:
            raise InputError(f"{path}: rows and cols must be positive")
        if "data" in data:
            flat = np.asarray(data["data"], dtype=np.float64)
            if flat.size != rows * cols:
                raise InputError(f"{path}: data length {flat.size} != rows*cols {rows * cols}")
            entries = flat.reshape(rows, cols)
        elif "triplets" in data:
            entries = np.zeros((rows, cols))
            for t in data["triplets"]:
                if len(t) != 3:
                    raise InputError(f"{path}: triplets must be [row, col, value]")
                i, j, v = _whole(t[0], "triplet row"), _whole(t[1], "triplet column"), float(t[2])
                if not (0 <= i < rows and 0 <= j < cols):
                    raise InputError(f"{path}: triplet index ({i}, {j}) out of bounds")
                entries[i, j] += v
        else:
            raise InputError(f"{path}: need either 'data' or 'triplets'")
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: {exc}")
    try:
        return CorrespondenceMatrix(entries)
    except Exception as exc:
        raise InputError(f"{path}: {exc}")


# -- category stats ------------------------------------------------------------------

def load_stats(path):
    """JSON array of {category, mean_scale, std_dev, count} -> dict by category."""
    data = load_json(path, expect=list)
    out = {}
    for i, rec in enumerate(data):
        where = f"{path}: entry {i}"
        try:
            category = str(_require(rec, "category", where))
            if category in out:
                raise ValueError(f"category {category!r} repeats an earlier entry")
            count = _whole(_require(rec, "count", where), "count")
            out[category] = CategoryStats(
                category=category,
                mean_scale=float(_require(rec, "mean_scale", where)),
                std_dev=float(_require(rec, "std_dev", where)),
                count=count,
            )
        except (TypeError, ValueError, OverflowError, NonPositiveScale) as exc:
            raise InputError(f"{where}: {exc}")
    return out


def save_stats(stats_list, path):
    rows = [
        {
            "category": s.category,
            "mean_scale": s.mean_scale,
            "std_dev": s.std_dev,
            "count": s.count,
        }
        for s in sorted(stats_list, key=lambda s: s.category)
    ]
    dump_json(rows, path)


# -- detections / ground truth (JSON-lines) ---------------------------------------------

def _size_from(rec, path, lineno):
    """The record's ``scale`` and ``canonical_extents`` as keyword arguments,
    checked so that its box (extents ``scale * canonical_extents``) is valid."""
    scale = float(_require(rec, "scale", path, lineno))
    if not 0 < scale < np.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    ext = _require(rec, "canonical_extents", path, lineno)
    if len(ext) != 3:
        raise ValueError("canonical_extents must have 3 entries")
    ext = tuple(float(v) for v in ext)
    size = scale * np.array(ext)
    if not np.all((size > 0) & (size < np.inf)):
        raise ValueError(f"canonical_extents times scale must be positive and finite, got {list(ext)}")
    return {"scale": scale, "canonical_extents": ext}


def load_detections(path):
    records = []
    for lineno, rec in iter_jsonl(path):
        try:
            confidence = float(_require(rec, "confidence", path, lineno))
            if not np.isfinite(confidence):
                raise ValueError(f"confidence must be finite, got {confidence}")
            records.append(
                DetectionRecord(
                    category=str(_require(rec, "category", path, lineno)),
                    confidence=confidence,
                    pose=pose_from_dict(_require(rec, "pose", path, lineno), path, lineno),
                    **_size_from(rec, path, lineno),
                )
            )
        except (TypeError, ValueError) as exc:
            raise InputError(f"{path}:{lineno}: {exc}")
    if not records:
        raise InputError(f"{path}: no detection records")
    return records


def load_ground_truths(path):
    records = []
    for lineno, rec in iter_jsonl(path):
        try:
            records.append(
                GroundTruthBox(
                    category=str(_require(rec, "category", path, lineno)),
                    pose=pose_from_dict(_require(rec, "pose", path, lineno), path, lineno),
                    **_size_from(rec, path, lineno),
                )
            )
        except (TypeError, ValueError) as exc:
            raise InputError(f"{path}:{lineno}: {exc}")
    if not records:
        raise InputError(f"{path}: no ground-truth records")
    return records
