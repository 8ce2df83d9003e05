"""Writers for the package's input formats, used to build test fixtures.

``scalepose`` only reads these files; the tests write them. Each writer is
the inverse of the matching ``scalepose.fileio`` loader.
"""

import json

import numpy as np

from scalepose.fileio import dump_json, pose_to_dict


def save_intrinsics(k, path):
    dump_json({"fx": k.fx, "fy": k.fy, "cx": k.cx, "cy": k.cy}, path)


def save_correspondences(image_points, model_points, path):
    rows = [
        {"image": [float(u) for u in img], "model": [float(x) for x in mod]}
        for img, mod in zip(np.asarray(image_points), np.asarray(model_points))
    ]
    dump_json(rows, path)


def save_nocs_model(model, path, category=None):
    payload = {"points": [[float(v) for v in p] for p in model.points]}
    if category is not None:
        payload = {"category": category, **payload}
    dump_json(payload, path)


def _box_fields(r):
    return {
        "pose": pose_to_dict(r.pose),
        "scale": float(r.scale),
        "canonical_extents": [float(v) for v in r.canonical_extents],
    }


def detections_jsonl(records):
    lines = [
        json.dumps({"category": r.category, "confidence": float(r.confidence), **_box_fields(r)})
        for r in records
    ]
    return "\n".join(lines) + "\n"


def ground_truths_jsonl(records):
    lines = [json.dumps({"category": r.category, **_box_fields(r)}) for r in records]
    return "\n".join(lines) + "\n"
