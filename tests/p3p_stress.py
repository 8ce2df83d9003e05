"""Stress run for the P3P distance kernel (not collected by pytest).

``run`` draws seeded random camera-frame triangles, passes each through
``kernels.p3p_distance_sets`` as the block solver would, and counts the
problems whose true distance set does not come back. ``compare`` reads two
such files and lists the problems lost by one and not the other.

Problems: ``np.random.default_rng(seed)``; each problem is the
``np.column_stack`` of three size-3 draws, in this order x from U(-1, 1),
y from U(-1, 1) and z from U(1, 5); odd-numbered problems are rounded to a
0.25 grid, and triangles that fail the block solver's collinearity rule
are skipped. The truth is the points' norms, and a problem is lost when no
returned set is within 1e-8 times its largest distance of it. A set is
near-zero when its smallest distance is at most 1e-8 times its largest
(the camera placed at a vertex by rounding). At seed 0 with 40,000 draws,
39,922 problems remain.

    PYTHONPATH=src python tests/p3p_stress.py run parent.json
    PYTHONPATH=src python tests/p3p_stress.py run change.json
    PYTHONPATH=src python tests/p3p_stress.py compare parent.json change.json
"""

import argparse
import json
import sys
import time

import numpy as np

from scalepose import _kernels as kernels
from scalepose.pnp import _triad_frames

# a returned set this close to the truth, relative to its largest
# distance, recovers it; a set whose smallest distance is at most this
# times its largest is near-zero
REL_TOL = 1e-8


def make_problems(seed, draws):
    """(index, points (3, 3)) of every non-degenerate problem."""
    rng = np.random.default_rng(seed)
    problems = []
    for i in range(draws):
        pts = np.column_stack([rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3), rng.uniform(1.0, 5.0, 3)])
        if i % 2:
            pts = np.round(pts * 4.0) / 4.0
        if _triad_frames(pts[None])[1][0]:
            problems.append((i, pts))
    return problems


def kernel_args(tri, bear):
    """The kernel's inputs for triangle ``tri`` (3, 3) and unit bearings
    ``bear`` (3, 3): squared sides and bearing cosines, computed as the
    block solver computes them, as Python floats."""
    sides = np.square(tri[[1, 0, 0]] - tri[[2, 2, 1]]).sum(axis=1).tolist()
    cosines = np.vecdot(bear[[1, 0, 0]], bear[[2, 2, 1]]).tolist()
    return [*sides, *cosines]


def run(seed, draws):
    """Counts, the lost problems' indices and the time per kernel call."""
    problems = make_problems(seed, draws)
    args = [kernel_args(pts, pts / np.linalg.norm(pts, axis=1, keepdims=True)) for _, pts in problems]
    start = time.perf_counter()
    results = [kernels.p3p_distance_sets(*a) for a in args]
    elapsed = time.perf_counter() - start
    lost, sets, near_zero = [], 0, 0
    for (i, pts), found in zip(problems, results):
        truth = np.linalg.norm(pts, axis=1)
        sets += len(found)
        near_zero += sum(min(s) <= REL_TOL * max(s) for s in found)
        if not any(np.max(np.abs(np.array(s) - truth)) <= REL_TOL * truth.max() for s in found):
            lost.append(i)
    return {
        "seed": seed,
        "draws": draws,
        "problems": len(problems),
        "lost": len(lost),
        "sets": sets,
        "near_zero_sets": near_zero,
        "us_per_call": 1e6 * elapsed / max(1, len(problems)),
        "lost_problems": lost,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="solve every problem and write the counts")
    p_run.add_argument("output")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--draws", type=int, default=40000)
    p_cmp = sub.add_parser("compare", help="compare two result files")
    p_cmp.add_argument("parent")
    p_cmp.add_argument("change")
    args = parser.parse_args(argv)

    if args.command == "run":
        report = run(args.seed, args.draws)
        with open(args.output, "w") as f:
            json.dump(report, f)
        print(json.dumps({k: v for k, v in report.items() if k != "lost_problems"}))
        return 0

    with open(args.parent) as f:
        parent = json.load(f)
    with open(args.change) as f:
        change = json.load(f)
    if (parent["seed"], parent["draws"]) != (change["seed"], change["draws"]):
        print("the two runs drew different problems", file=sys.stderr)
        return 1
    for name, report in (("parent", parent), ("change", change)):
        print(name, json.dumps({k: v for k, v in report.items() if k != "lost_problems"}))
    print("sets without near-zero ones:", parent["sets"] - parent["near_zero_sets"],
          "->", change["sets"] - change["near_zero_sets"])
    p_lost, c_lost = set(parent["lost_problems"]), set(change["lost_problems"])
    print("lost by the change only:", sorted(c_lost - p_lost))
    print("lost by the parent only:", sorted(p_lost - c_lost))
    return 0


if __name__ == "__main__":
    sys.exit(main())
