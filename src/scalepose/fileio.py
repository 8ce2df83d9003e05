"""File formats of the CLI: every input file is read here, JSON for
structured records and JSON-lines for per-object streams. CSV reports are
not written here; they come from :func:`scalepose.evaluation.csv_text`,
which writes floats by the same rule.

One loop reads every record, and an input error names where it is:
``path:line`` in a JSON-lines file, ``path: entry i`` in a JSON array, or
``path``, also for a file that cannot be read or written. A number must be
a JSON int or float: a bool or a string is not.

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

from .errors import InputError, NonPositiveScale, RowNotStochastic
from .evaluation import DetectionRecord, GroundTruthBox
from .geometry import CameraIntrinsics, RigidPose
from .nocs import CorrespondenceMatrix, NocsModel
from .scale import CategoryStats
from .synth import PREDICTOR_KINDS


def atomic_write_text(path, text):
    """Write via a temp file in the same directory, then rename; a temp
    file left by a failure is removed."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        # makedirs meets an existing path only where a file stands for a directory
        reason = "Not a directory" if isinstance(exc, FileExistsError) else exc.strerror or exc
        raise InputError(f"{path}: cannot write ({reason})")
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def dump_json(obj, path):
    atomic_write_text(path, json.dumps(obj, indent=2) + "\n")


def _read_text(path):
    """The text of ``path``, decoded whole, so that bytes which are not
    UTF-8 fail here wherever they lie."""
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        raise InputError(f"file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read ({getattr(exc, 'strerror', None) or exc})")


def load_json(path, expect=None):
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})")
    if expect is not None and not isinstance(data, expect):
        raise InputError(f"{path}: expected top-level {expect.__name__}")
    return data


def iter_jsonl(path):
    """Yield ``(path:line, object)`` pairs, skipping blank lines."""
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        try:
            yield where, json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError(f"{where}: invalid JSON ({exc})")


# What building a record from bad fields raises; the readers locate it.
_BAD_FIELD = (TypeError, ValueError, OverflowError, NonPositiveScale, RowNotStochastic)
_JSON_NUMBER = (int, float)


def _located(pairs, make):
    """``make(record, where)`` for each ``(where, record)`` pair. A record that is not an
    object, or whose fields ``make`` rejects, is an :class:`InputError` starting ``where``."""
    out = []
    for where, rec in pairs:
        if not isinstance(rec, dict):
            raise InputError(f"{where} is not an object")
        try:
            out.append(make(rec, where))
        except _BAD_FIELD as exc:
            raise InputError(f"{where}: {exc}")
    return out


def _records(path, what, make):
    """``make`` over the records of a JSON-lines file, which must hold at least one."""
    out = _located(iter_jsonl(path), make)
    if not out:
        raise InputError(f"{path}: no {what} records")
    return out


def _entries(path, make):
    """``make`` over the entries of a file that holds a JSON array."""
    data = load_json(path, expect=list)
    return _located(((f"{path}: entry {i}", rec) for i, rec in enumerate(data)), make)


def _object(path, make):
    """``make`` on the one JSON object that a file holds."""
    return _located([(path, load_json(path, expect=dict))], make)[0]


def _require(mapping, key, where):
    if key not in mapping:
        raise InputError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _number(mapping, key, where):
    """``mapping[key]`` as a float, when it is a JSON number: a bool or a string is not."""
    value = _require(mapping, key, where)
    if type(value) not in _JSON_NUMBER:
        raise TypeError(f"{key} must be a number, got {value!r}")
    return float(value)


def _numbers(value, size=None):
    """True when ``value`` is a JSON list of numbers, ``size`` of them if given."""
    return (isinstance(value, list) and size in (None, len(value))
            and all(type(v) in _JSON_NUMBER for v in value))


def _whole(value, name):
    """``value`` as an int, when it is a number that ``int`` would not truncate."""
    if type(value) not in _JSON_NUMBER or int(value) != value:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


# -- poses ---------------------------------------------------------------------

def pose_to_dict(pose: RigidPose):
    return {
        "rotation": [float(v) for v in pose.rotation.ravel()],
        "translation": [float(v) for v in pose.translation],
    }


def pose_from_dict(d, where="<pose>"):
    rot = _require(d, "rotation", where)
    trans = _require(d, "translation", where)
    if not (_numbers(rot, 9) and _numbers(trans, 3)):
        raise InputError(f"{where}: rotation must be 9 numbers and translation 3")
    try:
        return RigidPose(np.asarray(rot, dtype=np.float64).reshape(3, 3), trans)
    except ValueError as exc:
        raise InputError(f"{where}: {exc}")


# -- intrinsics ------------------------------------------------------------------

def load_intrinsics(path) -> CameraIntrinsics:
    fields = ("fx", "fy", "cx", "cy")
    return _object(path, lambda d, where: CameraIntrinsics(*(_number(d, k, where) for k in fields)))


# -- correspondences ---------------------------------------------------------------

def load_correspondences(path):
    """Array of {image: [u, v], model: [x, y, z]} records.

    Returns ``(image_points (N, 2), model_points (N, 3) or None)``; the
    model side is None when any record omits it (callers then need a
    canonical model plus correspondence matrix).
    """
    def make(rec, where):
        image = _require(rec, "image", where)
        if not _numbers(image, 2):
            raise ValueError("image must be [u, v]")
        if "model" in rec and not _numbers(rec["model"], 3):
            raise ValueError("model must be [x, y, z]")
        return image, rec.get("model")

    pairs = _entries(path, make)
    if not pairs:
        raise InputError(f"{path}: empty correspondence list")
    image, model = zip(*pairs)
    model_arr = None if None in model else np.asarray(model, dtype=np.float64)
    return np.asarray(image, dtype=np.float64), model_arr


# -- canonical models and correspondence matrices -------------------------------------

def load_nocs_model(path) -> NocsModel:
    def make(data, where):
        points = _require(data, "points", where)
        if not (isinstance(points, list) and points and all(_numbers(p, 3) for p in points)):
            raise ValueError("points must be a non-empty list of [x, y, z] numbers")
        return NocsModel(np.asarray(points, dtype=np.float64))

    return _object(path, make)


def load_correspondence_matrix(path, pixels, points) -> CorrespondenceMatrix:
    """Dense {rows, cols, data: row-major} or sparse {rows, cols, triplets}
    with ``pixels`` rows (one per correspondence) and ``points`` columns
    (one per model point); a file that states another size is refused
    before anything is allocated."""
    def make(data, where):
        rows = _whole(_require(data, "rows", where), "rows")
        cols = _whole(_require(data, "cols", where), "cols")
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be positive")
        if rows != pixels:
            raise ValueError(f"matrix has {rows} rows but correspondences file has {pixels} pixels")
        if cols != points:
            raise ValueError(f"matrix has {cols} columns but model has {points} points")
        if "data" in data:
            flat = data["data"]
            if not _numbers(flat):
                raise ValueError("data must be a list of numbers")
            if len(flat) != rows * cols:
                raise ValueError(f"data length {len(flat)} != rows*cols {rows * cols}")
            return CorrespondenceMatrix(np.asarray(flat, dtype=np.float64).reshape(rows, cols))
        if "triplets" not in data:
            raise ValueError("need either 'data' or 'triplets'")
        entries = np.zeros((rows, cols))
        for t in data["triplets"]:
            if not _numbers(t, 3):
                raise ValueError("triplets must be [row, col, value]")
            i, j = _whole(t[0], "triplet row"), _whole(t[1], "triplet column")
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"triplet index ({i}, {j}) out of bounds")
            entries[i, j] += t[2]
        return CorrespondenceMatrix(entries)

    return _object(path, make)


# -- category stats ------------------------------------------------------------------

def load_stats(path):
    """JSON array of {category, mean_scale, std_dev, count} -> dict by category."""
    out = {}

    def add(rec, where):
        category = str(_require(rec, "category", where))
        if category in out:
            raise ValueError(f"category {category!r} repeats an earlier entry")
        count = _whole(_require(rec, "count", where), "count")
        out[category] = CategoryStats(category, _number(rec, "mean_scale", where),
                                      _number(rec, "std_dev", where), count)

    _entries(path, add)
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


# -- scale listings, detections and ground truth (JSON-lines) ----------------------------

def _scale(rec, where):
    scale = _number(rec, "scale", where)
    if not 0 < scale < np.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    return scale


def load_scale_listing(path):
    """JSON-lines of {category, scale} -> (category, scale) pairs in file order."""
    return _records(path, "scale", lambda rec, where: (str(_require(rec, "category", where)), _scale(rec, where)))


def _box_fields(rec, where):
    """The fields that detections and ground truths share, checked so that
    the record's box (extents ``scale * canonical_extents``) is valid."""
    category = str(_require(rec, "category", where))
    pose = pose_from_dict(_require(rec, "pose", where), where)
    scale = _scale(rec, where)
    ext = _require(rec, "canonical_extents", where)
    if not (_numbers(ext, 3) and all(0 < scale * v < np.inf for v in ext)):
        raise ValueError(f"canonical_extents must be 3 numbers, positive and finite times scale, got {ext!r}")
    return {"category": category, "pose": pose, "scale": scale, "canonical_extents": tuple(map(float, ext))}


def load_detections(path):
    def make(rec, where):
        confidence = _number(rec, "confidence", where)
        if not np.isfinite(confidence):
            raise ValueError(f"confidence must be finite, got {confidence}")
        return DetectionRecord(confidence=confidence, **_box_fields(rec, where))

    return _records(path, "detection", make)


def load_ground_truths(path):
    return _records(path, "ground-truth", lambda rec, where: GroundTruthBox(**_box_fields(rec, where)))


# -- simulate config ---------------------------------------------------------------

# Each key of a simulate config, with the JSON type that its flag's parsed value has.
_SIMULATE_CONFIG = {
    "categories": ("a non-empty list of strings",
                   lambda v: isinstance(v, list) and bool(v) and all(isinstance(c, str) for c in v)),
    **{key: ("a non-empty list of numbers", lambda v: _numbers(v) and bool(v))
       for key in ("pixel_noise", "outlier_fraction", "scale_error", "depth_noise")},
    **{key: ("an integer", lambda v: type(v) is int) for key in ("trials", "seed", "points")},
    **{key: ("a string or null", lambda v: v is None or isinstance(v, str)) for key in ("output", "summary")},
    "predictor": (f"one of {list(PREDICTOR_KINDS)}", lambda v: v in PREDICTOR_KINDS),
}


def load_simulate_config(path):
    """The ``simulate --config`` object: each key names a ``simulate`` flag
    (``pixel_noise`` for ``--pixel-noise``) and holds the value that the
    flag would parse to. A number follows this module's one rule; an
    integer must be a JSON int."""
    def make(data, where):
        unknown = set(data) - set(_SIMULATE_CONFIG)
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        for key, value in data.items():
            kind, valid = _SIMULATE_CONFIG[key]
            if not valid(value):
                raise ValueError(f"{key} must be {kind}, got {value!r}")
        return data

    return _object(path, make)
