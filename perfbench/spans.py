"""Span tracer for the per-layer run.

``installed(tracer)`` wraps public functions of ``scalepose`` where their
callers look them up: the names ``cli`` and ``synth`` imported, the
module attributes ``pnp``, ``evaluation`` and ``fileio`` call through,
and the attributes of ``_kernels``. Nothing under ``src/`` is edited;
leaving the block restores every original.

Spans and metrics of ``_kernels`` are named ``kernels.*``, because a
metric name must start with a letter or digit. A span is (name, start,
end, parent). Spans stay in memory until ``dump``. A layer's time is the
summed duration of its outermost spans, and its self time is each span's
duration minus that of its direct children (calls are sequential, so
children never overlap).
"""

import contextlib
import json
import time
from collections import Counter

from scalepose import _kernels, cli, evaluation, fileio, pnp, synth
from scalepose.errors import DegenerateSample, NoRealSolution

# Layers reported with calls, time_ms and self_ms.
TIMED = (
    "pnp.ransac_pnp", "pnp.solve_pnp_minimal", "pnp.refine_pnp",
    "kernels.p3p_distance_sets", "kernels.reprojection_errors",
    "kernels.reprojection_normal_eqs", "geometry.umeyama_align",
    "synth.sample_scene", "synth.corrupt", "synth.run_decoupled", "synth.run_coupled",
    "synth.trials_csv", "synth.summary_csv", "boxes.iou3d",
    "evaluation.match_detections", "evaluation.metric_table", "evaluation.ap_curves",
)
# (metric, span counted, ancestor span it must sit under)
NESTED = (
    ("pnp.refine_pnp.normal_eqs_calls", "kernels.reprojection_normal_eqs", "pnp.refine_pnp"),
    ("synth.summary_csv.iou3d_calls", "boxes.iou3d", "synth.summary_csv"),
    ("evaluation.match_detections.iou3d_calls", "boxes.iou3d", "evaluation.match_detections"),
    ("evaluation.metric_table.iou3d_calls", "boxes.iou3d", "evaluation.metric_table"),
    ("evaluation.ap_curves.iou3d_calls", "boxes.iou3d", "evaluation.ap_curves"),
)
COUNTED = (
    "pnp.ransac_pnp.iterations", "pnp.ransac_pnp.cap_hits",
    "pnp.solve_pnp_minimal.rejected", "pnp.solve_pnp_minimal.candidates",
    "kernels.reprojection_errors.points", "boxes.iou3d.zero",
    "evaluation.average_precision.calls", "fileio.write.bytes",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._open = []

    def wrap(self, name, fn, on_result=None, on_error=None):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self.counts, exc)
                raise
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self.counts, result, args, kwargs)
            return result

        return traced

    def metrics(self):
        """Per-layer metrics as ``{name: (value, unit)}``."""
        total, own, calls = Counter(), Counter(), Counter()
        for name, start, end, parent in self.spans:
            calls[name] += 1
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
            if not self._under(parent, name):
                total[name] += end - start
        out = {}
        for name in TIMED:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.time_ms"] = (1000.0 * total[name], "ms")
            out[f"{name}.self_ms"] = (1000.0 * own[name], "ms")
        for metric, child, ancestor in NESTED:
            n = sum(1 for s in self.spans if s[0] == child and self._under(s[3], ancestor))
            out[metric] = (n, "count")
        for metric in COUNTED:
            out[metric] = (self.counts[metric], "bytes" if metric.endswith(".bytes") else "count")
        out["fileio.read.time_ms"] = (1000.0 * total["fileio.read"], "ms")
        out["fileio.write.time_ms"] = (1000.0 * total["fileio.write"], "ms")
        return out

    def _under(self, index, name):
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def _ransac_result(counts, result, args, kwargs):
    config = args[3] if len(args) > 3 else kwargs.get("config")
    cap = (config or pnp.RansacConfig()).max_iterations
    counts["pnp.ransac_pnp.iterations"] += result.iterations_used
    counts["pnp.ransac_pnp.cap_hits"] += result.iterations_used >= cap


def _minimal_result(counts, result, args, kwargs):
    counts["pnp.solve_pnp_minimal.candidates"] += len(result)


def _minimal_error(counts, exc):
    if isinstance(exc, (DegenerateSample, NoRealSolution)):
        counts["pnp.solve_pnp_minimal.rejected"] += 1


def _errors_result(counts, result, args, kwargs):
    counts["kernels.reprojection_errors.points"] += len(result)


def _iou_result(counts, result, args, kwargs):
    counts["boxes.iou3d.zero"] += result == 0.0


def _ap_result(counts, result, args, kwargs):
    counts["evaluation.average_precision.calls"] += 1


def _write_result(counts, result, args, kwargs):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counts["fileio.write.bytes"] += len(text.encode())


# (owner, attribute, span name, result hook, error hook)
_TARGETS = (
    (cli, "ransac_pnp", "pnp.ransac_pnp", _ransac_result, None),
    (synth, "ransac_pnp", "pnp.ransac_pnp", _ransac_result, None),
    (pnp, "solve_pnp_minimal", "pnp.solve_pnp_minimal", _minimal_result, _minimal_error),
    (pnp, "refine_pnp", "pnp.refine_pnp", None, None),
    (_kernels, "p3p_distance_sets", "kernels.p3p_distance_sets", None, None),
    (_kernels, "reprojection_errors", "kernels.reprojection_errors", _errors_result, None),
    (_kernels, "reprojection_normal_eqs", "kernels.reprojection_normal_eqs", None, None),
    (synth, "umeyama_align", "geometry.umeyama_align", None, None),
    (synth, "sample_scene", "synth.sample_scene", None, None),
    (synth, "corrupt", "synth.corrupt", None, None),
    (synth, "run_decoupled", "synth.run_decoupled", None, None),
    (synth, "run_coupled", "synth.run_coupled", None, None),
    (synth.GridResult, "trials_csv", "synth.trials_csv", None, None),
    (synth.GridResult, "summary_csv", "synth.summary_csv", None, None),
    (synth, "iou3d", "boxes.iou3d", _iou_result, None),
    (evaluation, "iou3d", "boxes.iou3d", _iou_result, None),
    (evaluation, "average_precision", "evaluation.average_precision", _ap_result, None),
    (cli, "match_detections", "evaluation.match_detections", None, None),
    (cli, "metric_table", "evaluation.metric_table", None, None),
    (cli, "ap_curves", "evaluation.ap_curves", None, None),
    (fileio, "atomic_write_text", "fileio.write", _write_result, None),
    (fileio, "load_json", "fileio.read", None, None),
    (fileio, "load_correspondences", "fileio.read", None, None),
    (fileio, "load_intrinsics", "fileio.read", None, None),
    (fileio, "load_stats", "fileio.read", None, None),
    (fileio, "load_detections", "fileio.read", None, None),
    (fileio, "load_ground_truths", "fileio.read", None, None),
)


@contextlib.contextmanager
def installed(tracer):
    """Wrap every target for the duration of the block."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in _TARGETS]
    try:
        for (owner, attr, name, on_result, on_error), (_, _, fn) in zip(_TARGETS, originals):
            setattr(owner, attr, tracer.wrap(name, fn, on_result, on_error))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
