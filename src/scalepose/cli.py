"""Command-line front-end: solve, evaluate, simulate, stats.

Exit codes: 0 success, 1 input/config error, 2 numerical/solver failure.
All outputs are written atomically; re-running a subcommand with the same
inputs and seeds produces byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys

import numpy as np

from . import fileio
from .errors import InputError, ScalePoseError, SolverError
from .evaluation import ap_curves, csv_text, curve_csv, match_detections, metric_table
from .geometry import RigidPose
from .nocs import assign
from .pnp import RansacConfig, ransac_pnp
from .scale import compute_stats, recover_scale
from .synth import CATEGORIES, PREDICTOR_KINDS, NoiseSpec, run_grid

OUTPUT_DIR_ENV = "SCALEPOSE_OUT_DIR"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2


class _Parser(argparse.ArgumentParser):
    """argparse flags usage problems as input errors (exit 1, not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _float_list(text):
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected one or more comma-separated floats, got {text!r}")
    return values


@functools.cache
def build_parser():
    """The one command table: each subcommand's flags and its handler
    (``args.run``). Built on the first :func:`main` call, then shared."""
    parser = _Parser(prog="scalepose", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="recover a pose from 2D-3D correspondences")
    p_solve.add_argument("--correspondences", required=True, help="JSON array of {image, model}")
    p_solve.add_argument("--intrinsics", required=True, help="JSON {fx, fy, cx, cy}")
    p_solve.add_argument("--output", required=True, help="output pose JSON path")
    p_solve.add_argument("--stats", help="category stats JSON (for anchor-based scaling)")
    p_solve.add_argument("--category", help="category to look up in --stats")
    p_solve.add_argument("--delta", type=float, default=None, help="relative scale offset")
    p_solve.add_argument("--scale", type=float, default=None, help="explicit metric scale override")
    p_solve.add_argument("--model", help="canonical model JSON (used with --matrix)")
    p_solve.add_argument("--matrix", help="correspondence matrix JSON mapping pixels to model points")
    p_solve.add_argument("--threshold", type=float, default=2.0, help="RANSAC inlier threshold, px")
    p_solve.add_argument("--max-iterations", type=int, default=1000)
    p_solve.add_argument("--confidence", type=float, default=0.999)
    p_solve.add_argument("--seed", type=int, default=0, help="RANSAC rng seed")
    p_solve.set_defaults(run=cmd_solve)

    p_eval = sub.add_parser("evaluate", help="score predictions against ground truth")
    p_eval.add_argument("--predictions", required=True, help="JSON-lines predictions")
    p_eval.add_argument("--ground-truth", required=True, help="JSON-lines ground truth")
    p_eval.add_argument("--output-dir", required=True)
    p_eval.add_argument(
        "--symmetry", choices=["on", "off"], default="on",
        help="symmetry-aware rotation error for bottle/bowl/can (default on)",
    )
    p_eval.add_argument("--iou-grid", type=_float_list, default=None)
    p_eval.add_argument("--rotation-grid", type=_float_list, default=None, help="degrees")
    p_eval.add_argument("--translation-grid", type=_float_list, default=None, help="centimeters")
    p_eval.set_defaults(run=cmd_evaluate)

    p_sim = sub.add_parser("simulate", help="run the decoupled-vs-coupled experiment grid")
    p_sim.add_argument("--categories", nargs="+", default=list(CATEGORIES))
    p_sim.add_argument("--pixel-noise", type=_float_list, default=[0.0], help="px sigmas")
    p_sim.add_argument("--outlier-fraction", type=_float_list, default=[0.0])
    p_sim.add_argument("--scale-error", type=_float_list, default=[0.0], help="systematic relative")
    p_sim.add_argument("--depth-noise", type=_float_list, default=[0.0, 0.05], help="relative sigmas")
    p_sim.add_argument("--trials", type=int, default=20)
    p_sim.add_argument("--seed", type=int, default=0, help="master seed")
    p_sim.add_argument("--points", type=int, default=192, help="model point budget")
    p_sim.add_argument(
        "--predictor", choices=PREDICTOR_KINDS, default="oracle",
        help="decoupled-arm scale source: oracle offset (with --scale-error) or bare category mean",
    )
    p_sim.add_argument("--output", default=None, help=f"trials CSV (default under ${OUTPUT_DIR_ENV})")
    p_sim.add_argument("--summary", default=None, help="summary CSV (default next to --output)")
    p_sim.add_argument("--config", default=None, help="JSON file overriding the flags above")
    p_sim.set_defaults(run=cmd_simulate)

    p_stats = sub.add_parser("stats", help="category scale statistics from a gt listing")
    p_stats.add_argument("--input", required=True, help="JSON-lines of {category, scale}")
    p_stats.add_argument("--output", required=True, help="stats JSON path")
    p_stats.add_argument("--csv", default=None, help="bar-chart-ready CSV of std_dev per category")
    p_stats.set_defaults(run=cmd_stats)

    return parser


# -- solve ---------------------------------------------------------------------------

def _check_solve_flags(args):
    """Reject, before any file is read, flags that the others would leave
    unused or incomplete."""
    if args.scale is not None:
        unused = [f"--{name}" for name in ("stats", "category", "delta") if getattr(args, name) is not None]
        if unused:
            raise InputError(f"--scale cannot be combined with {', '.join(unused)}")
        if not 0 < args.scale < math.inf:
            raise InputError(f"--scale must be positive and finite, got {args.scale}")
    elif args.stats is None:
        if args.category is not None or args.delta is not None:
            raise InputError("--category and --delta need --stats")
    elif args.category is None:
        raise InputError("--stats needs --category to select the anchor")
    if (args.model is None) != (args.matrix is None):
        raise InputError("--model and --matrix must be given together")


def _resolve_scale(args):
    if args.stats is None:
        return (1.0 if args.scale is None else float(args.scale)), None
    stats_map = fileio.load_stats(args.stats)
    if args.category not in stats_map:
        raise InputError(f"category {args.category!r} not present in {args.stats}")
    delta = 0.0 if args.delta is None else float(args.delta)
    return recover_scale(stats_map[args.category], delta), delta


def cmd_solve(args):
    _check_solve_flags(args)
    image_pts, model_pts = fileio.load_correspondences(args.correspondences)
    intrinsics = fileio.load_intrinsics(args.intrinsics)

    if args.matrix is not None:
        model = fileio.load_nocs_model(args.model)
        matrix = fileio.load_correspondence_matrix(args.matrix, len(image_pts), len(model))
        model_pts = assign(matrix, model)
    elif model_pts is None:
        raise InputError(
            f"{args.correspondences}: records lack 'model' coordinates and no "
            "--matrix/--model pair was given"
        )

    scale, delta = _resolve_scale(args)
    config = RansacConfig(
        reprojection_threshold=args.threshold,
        max_iterations=args.max_iterations,
        confidence=args.confidence,
        rng_seed=args.seed,
    )
    result = ransac_pnp(image_pts, model_pts, intrinsics, config)
    pose = RigidPose(result.pose.rotation, scale * result.pose.translation)

    payload = {
        "pose": fileio.pose_to_dict(pose),
        "scale": scale,
        "delta": delta,
        "inlier_count": result.inlier_count,
        "inlier_mask": [bool(v) for v in result.inlier_mask],
        "mean_reprojection_error": result.mean_reprojection_error,
        "iterations_used": result.iterations_used,
        "stop_reason": result.stop_reason,
        "rejected_degenerate": result.rejected_degenerate,
        "rejected_no_solution": result.rejected_no_solution,
        "rng_seed": config.rng_seed,
        "reprojection_threshold": config.reprojection_threshold,
    }
    fileio.dump_json(payload, args.output)
    print(
        f"solved: {result.inlier_count}/{len(result.inlier_mask)} inliers, "
        f"mean error {result.mean_reprojection_error:.4f} px -> {args.output}"
    )
    return EXIT_OK


# -- evaluate ------------------------------------------------------------------------

_DEFAULT_IOU_GRID = [round(0.05 * i, 2) for i in range(1, 20)]
_DEFAULT_ROT_GRID = [float(v) for v in range(1, 61)]
_DEFAULT_TRANS_GRID = [round(0.5 * i, 1) for i in range(1, 31)]


def cmd_evaluate(args):
    detections = fileio.load_detections(args.predictions)
    ground_truths = fileio.load_ground_truths(args.ground_truth)
    use_symmetry = args.symmetry == "on"

    metrics = match_detections(detections, ground_truths, use_symmetry=use_symmetry)
    table = metric_table(metrics)
    for cat in table.skipped_categories:
        print(
            f"warning: predicted category {cat!r} has no ground truth; omitted from the mean",
            file=sys.stderr,
        )

    if use_symmetry:
        rotation_note = "rotation error: symmetry-aware about y for bottle/bowl/can\n"
    else:
        rotation_note = "rotation error: raw geodesic for all categories\n"

    grids = {
        "iou": args.iou_grid or _DEFAULT_IOU_GRID,
        "rotation_deg": args.rotation_grid or _DEFAULT_ROT_GRID,
        "translation_cm": args.translation_grid or _DEFAULT_TRANS_GRID,
    }
    # every report is built before the first is written: all or none
    table_text = table.to_text()
    reports = {"metrics.csv": table.to_csv(), "metrics.txt": table_text + rotation_note}
    for metric, grid in grids.items():
        reports[f"curve_{metric}.csv"] = curve_csv(ap_curves(metrics, metric, grid))

    out = args.output_dir
    for name, report in reports.items():
        fileio.atomic_write_text(os.path.join(out, name), report)

    print(table_text, end="")
    print(f"reports written to {out}")
    return EXIT_OK


# -- simulate ------------------------------------------------------------------------

def cmd_simulate(args):
    if args.config is not None:
        for key, value in fileio.load_simulate_config(args.config).items():
            setattr(args, key, value)
    output = args.output
    if output is None:
        base = os.environ.get(OUTPUT_DIR_ENV, ".")
        output = os.path.join(base, "experiment.csv")
    summary_path = args.summary
    if summary_path is None:
        stem, ext = os.path.splitext(output)
        summary_path = f"{stem}_summary{ext or '.csv'}"

    specs = [
        NoiseSpec(pixel_noise_sigma=pn, outlier_fraction=of, scale_rel_error=se, depth_rel_noise=dn)
        for pn, of, se, dn in itertools.product(
            args.pixel_noise, args.outlier_fraction, args.scale_error, args.depth_noise
        )
    ]
    grid = run_grid(
        args.categories,
        specs,
        trials=args.trials,
        master_seed=args.seed,
        point_count=args.points,
        predictor_kind=args.predictor,
    )
    fileio.atomic_write_text(output, grid.trials_csv())
    fileio.atomic_write_text(summary_path, grid.summary_csv())

    for pipeline in ("decoupled", "coupled"):
        rows = [r for r in grid.trials if r.pipeline == pipeline]
        rot = np.median([r.rotation_error_deg for r in rows])
        trans = np.median([r.translation_error_cm for r in rows])
        print(
            f"{pipeline:10s} median rotation error {rot:10.4f} deg   "
            f"median translation error {trans:8.4f} cm   ({len(rows)} trials)"
        )
    print(f"trials -> {output}")
    print(f"summary -> {summary_path}")
    return EXIT_OK


# -- stats ---------------------------------------------------------------------------

def cmd_stats(args):
    by_category = {}
    for category, scale in fileio.load_scale_listing(args.input):
        by_category.setdefault(category, []).append(scale)
    stats_list = [compute_stats(cat, scales) for cat, scales in sorted(by_category.items())]
    fileio.save_stats(stats_list, args.output)
    if args.csv:
        rows = [[s.category, s.std_dev] for s in stats_list]
        fileio.atomic_write_text(args.csv, csv_text(("category", "std_dev"), rows))
    for s in stats_list:
        print(f"{s.category:10s} mean {s.mean_scale:.6f} m  std {s.std_dev:.6f} m  n={s.count}")
    print(f"stats -> {args.output}")
    return EXIT_OK


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ScalePoseError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
