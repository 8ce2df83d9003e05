"""Equivalence sweep for the pose solvers (not collected by pytest).

``run`` solves 5000 seeded random problems with ``ransac_pnp``, with
``solve_pnp_minimal`` on the first four correspondences and with
``solve_pnp_lsq`` on the noise-free, outlier-free pixels, and writes every
result of the checkout it imports to JSON (floats round-trip exactly).
Each RANSAC solve also records its refine on the consensus set it
refined: the start and final cost, the accepted steps, the number of
``kernels.reprojection_normal_eqs`` evaluations and cond(JᵀJ) at the
refined pose. Each minimal problem records the largest law-of-cosines
residual of its P3P distance sets, relative to the sum of the squared
sides. ``compare`` reads two such files, lists every exact-field
mismatch, reports the largest pose moves between them, judges the
refines on their own consensus sets (evaluation totals, refines that end
higher by more than 1e-12 or lower by more than 1%), lists every RANSAC
pose that moves beyond the noise floor with both refine costs, split at
cond(JᵀJ) 1e12, and every minimal pose that moves by more than 1e-9 with
both residuals. Masks are recomputed after the refine, so a cost over
the final mask would mix the refine's move with the inliers it gains or
loses.

Problems: model size log-uniform in 1e-4 to 1e4 m, 4 to 200 points, 30%
with an exact collinear run of 3 to all points at the start, 20% with such
a run perturbed by 1e-13 to 1e-3 of the size, 0-70% outliers anywhere in
the image, 0-1 px pixel noise, iteration caps 1 to 300, ``rng_seed`` the
problem's seed, threshold 2 px and confidence 0.999. ``ransac_pnp`` gives
4821 poses and 179 ``ConsensusNotFound``, with 29,698 degenerate and
28,899 no-solution rejections; ``solve_pnp_minimal`` 2401 pose lists, 1792
``DegenerateSample`` and 807 ``NoRealSolution``; ``solve_pnp_lsq`` 4818
poses, 138 ``RankDeficient`` and 44 ``InsufficientCorrespondences``.

    PYTHONPATH=src python tests/pnp_sweep.py run parent.json
    PYTHONPATH=src python tests/pnp_sweep.py run change.json
    PYTHONPATH=src python tests/pnp_sweep.py compare parent.json change.json
"""

import argparse
import json
import sys
from unittest import mock

import numpy as np

from p3p_stress import kernel_args
from scalepose import _kernels as kernels
from scalepose import pnp
from scalepose.errors import ScalePoseError
from scalepose.geometry import CameraIntrinsics, RigidPose, project, random_rotation
from scalepose.pnp import RansacConfig, _bearings, ransac_pnp, solve_pnp_lsq, solve_pnp_minimal

CAMERA = CameraIntrinsics(fx=577.5, fy=577.5, cx=319.5, cy=239.5)
IMAGE = (640.0, 480.0)


def make_problem(seed):
    """Pixels, clean pixels, model points, size and RANSAC settings of
    problem ``seed``."""
    rng = np.random.default_rng(seed)
    size = 10.0 ** rng.uniform(-4.0, 4.0)
    n = int(rng.integers(4, 201))
    points = rng.uniform(-size, size, size=(n, 3))
    kind = rng.random()
    if kind < 0.5:
        run = int(rng.integers(3, n + 1))
        direction = rng.normal(size=3)
        steps = rng.uniform(-1.0, 1.0, size=run)
        points[:run] = points[0] + size * steps[:, None] * direction / np.linalg.norm(direction)
        if kind >= 0.3:
            points[:run] += 10.0 ** rng.uniform(-13.0, -3.0) * size * rng.normal(size=(run, 3))
    depth = size * rng.uniform(3.0, 6.0)
    offset = rng.uniform(-0.15, 0.15, size=2) * depth
    pose = RigidPose(random_rotation(rng), [offset[0], offset[1], depth])
    outlier_fraction = rng.uniform(0.0, 0.7)
    noise = rng.uniform(0.0, 1.0)
    clean = project(pose.transform(points), CAMERA)
    pixels = clean + rng.normal(0.0, noise, size=(n, 2))
    bad = rng.choice(n, size=int(outlier_fraction * n), replace=False)
    pixels[bad] = rng.uniform([0.0, 0.0], IMAGE, size=(len(bad), 2))
    max_iterations = int(rng.integers(1, 301))
    return pixels, clean, points, size, max_iterations


def _pose(pose):
    return {"rotation": pose.rotation.tolist(), "translation": pose.translation.tolist()}


def _error(exc):
    return {"error": type(exc).__name__, "message": str(exc)}


def _recorded_ransac(pixels, points, config):
    """``ransac_pnp`` and a record of its refine on the consensus set it
    refined: start and final cost, accepted steps, normal-equation
    evaluations and cond(JᵀJ) at the refined pose."""
    normal_eqs, refine = kernels.reprojection_normal_eqs, pnp.refine_pnp
    record = {}
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return normal_eqs(*args)

    def recording(initial, image, model, k):
        pose, info = refine(initial, image, model, k, full_output=True)
        jtj = normal_eqs(pose.rotation, pose.translation, model, image, k.fx, k.fy, k.cx, k.cy)[0]
        record.update(start_cost=info["cost_history"][0], cost=info["final_cost"],
                      steps=info["iterations"], evaluations=calls, cond=float(np.linalg.cond(jtj)))
        return pose

    with mock.patch.object(kernels, "reprojection_normal_eqs", counting), \
            mock.patch.object(pnp, "refine_pnp", recording):
        result = ransac_pnp(pixels, points, CAMERA, config)
    return result, record


def _set_residual(pixels, points):
    """Largest law-of-cosines residual of the P3P distance sets of the
    first three correspondences, relative to the sum of the squared
    sides."""
    a2, b2, c2, ca, cb, cg = kernel_args(points[:3], _bearings(pixels[:3], CAMERA))
    worst = 0.0
    for s1, s2, s3 in kernels.p3p_distance_sets(a2, b2, c2, ca, cb, cg):
        worst = max(
            worst,
            abs(s2 * s2 + s3 * s3 - 2.0 * s2 * s3 * ca - a2),
            abs(s1 * s1 + s3 * s3 - 2.0 * s1 * s3 * cb - b2),
            abs(s1 * s1 + s2 * s2 - 2.0 * s1 * s2 * cg - c2),
        )
    return worst / (a2 + b2 + c2)


def solve(seed):
    """Every result of problem ``seed``, as JSON-ready values."""
    pixels, clean, points, size, max_iterations = make_problem(seed)
    out = {"seed": seed, "size": size}
    try:
        r, refine = _recorded_ransac(pixels, points, RansacConfig(2.0, max_iterations, 0.999, seed))
        out["ransac"] = {
            **_pose(r.pose),
            "mask": "".join("1" if v else "0" for v in r.inlier_mask),
            "mean_error": r.mean_reprojection_error,
            "iterations": r.iterations_used,
            "stop_reason": r.stop_reason,
            "rejected_degenerate": r.rejected_degenerate,
            "rejected_no_solution": r.rejected_no_solution,
            **refine,
        }
    except (ScalePoseError, ValueError) as exc:
        out["ransac"] = _error(exc)
    try:
        out["minimal"] = {
            "poses": [_pose(p) for p in solve_pnp_minimal(pixels[:4], points[:4], CAMERA)],
            "set_residual": _set_residual(pixels, points),
        }
    except (ScalePoseError, ValueError) as exc:
        out["minimal"] = _error(exc)
    try:
        out["lsq"] = _pose(solve_pnp_lsq(clean, points, CAMERA))
    except (ScalePoseError, ValueError) as exc:
        out["lsq"] = _error(exc)
    return out


def outcome_counts(results):
    """Solved and error-class counts per solver, and RANSAC's rejections."""
    counts = {"ransac": {}, "minimal": {}, "lsq": {}}
    degenerate = no_solution = 0
    for r in results:
        for solver in counts:
            key = r[solver].get("error", "solved")
            counts[solver][key] = counts[solver].get(key, 0) + 1
        degenerate += r["ransac"].get("rejected_degenerate", 0)
        no_solution += r["ransac"].get("rejected_no_solution", 0)
    counts["ransac"]["rejected_degenerate"] = degenerate
    counts["ransac"]["rejected_no_solution"] = no_solution
    return counts


def _move(a, b, key):
    return float(np.max(np.abs(np.asarray(a[key]) - np.asarray(b[key]))))


RANSAC_EXACT = ("error", "message", "mask", "iterations", "stop_reason", "rejected_degenerate", "rejected_no_solution")

# the parent against itself with only the refined points' order reversed
# moves RANSAC poses by up to these (rotation, mean error in px): the
# refine's noise floor
NOISE_FLOOR = {"rotation": 6.9e-7, "mean_error": 2.2e-6}
# refines that end higher than the parent's by more than this absolute cost
# (the refine's cost tolerance), or lower by more than this fraction, on
# their own consensus sets, are listed
COST_RISE = 1e-12
COST_FALL = 0.01
# above this cond(JᵀJ) the final pose lies in a flat valley of the cost
FLAT_COND = 1e12
# minimal-solver poses that move by more than this are listed
MINIMAL_LIST_ABOVE = 1e-9


def compare(parent, change):
    """Exact-field mismatches, pose moves, refine judgements, RANSAC poses
    beyond the noise floor and moved minimal-solver problems of ``change``
    against ``parent`` (lists of :func:`solve` results)."""
    mismatches, beyond, minimal_moved = [], [], []
    refines = {"evaluations": ([], []), "rises": [], "rose": [], "fell": []}
    moves = {"ransac_rotation": [], "ransac_translation": [], "ransac_mean_error": [],
             "minimal_rotation": [], "minimal_translation": [], "lsq_rotation": [], "lsq_translation": []}
    for p, c in zip(parent, change, strict=True):
        seed, scale = p["seed"], max(1.0, p["size"])
        pr, cr = p["ransac"], c["ransac"]
        for key in RANSAC_EXACT:
            if pr.get(key) != cr.get(key):
                mismatches.append(f"{seed} ransac {key}: {pr.get(key)!r} != {cr.get(key)!r}")
        if "error" not in pr and "error" not in cr:
            moves["ransac_rotation"].append((_move(pr, cr, "rotation"), seed))
            moves["ransac_translation"].append((_move(pr, cr, "translation") / scale, seed))
            moves["ransac_mean_error"].append((abs(pr["mean_error"] - cr["mean_error"]), seed))
            for side, r in zip(refines["evaluations"], (pr, cr)):
                side.append((r["evaluations"], seed))
            if cr["cost"] > pr["cost"]:
                refines["rises"].append((cr["cost"] - pr["cost"], seed))
            if cr["cost"] > pr["cost"] + COST_RISE:
                refines["rose"].append((seed, pr, cr))
            elif cr["cost"] < (1.0 - COST_FALL) * pr["cost"]:
                refines["fell"].append((seed, pr, cr))
            rotation, mean_error = moves["ransac_rotation"][-1][0], moves["ransac_mean_error"][-1][0]
            if rotation > NOISE_FLOOR["rotation"] or mean_error > NOISE_FLOOR["mean_error"]:
                beyond.append((seed, rotation, mean_error, pr, cr))

        pm, cm = p["minimal"], c["minimal"]
        for key in ("error", "message"):
            if pm.get(key) != cm.get(key):
                mismatches.append(f"{seed} minimal {key}: {pm.get(key)!r} != {cm.get(key)!r}")
        pposes, cposes = pm.get("poses", []), cm.get("poses", [])
        if len(pposes) != len(cposes):
            mismatches.append(f"{seed} minimal candidates: {len(pposes)} != {len(cposes)}")
        else:
            worst = 0.0
            for i, cpose in enumerate(cposes):
                # the candidate at position i must be the parent's i-th, not
                # another of its candidates
                nearest = min(range(len(pposes)), key=lambda j: _move(pposes[j], cpose, "rotation"))
                if nearest != i:
                    mismatches.append(f"{seed} minimal order: candidate {i} is the parent's {nearest}")
                moves["minimal_rotation"].append((_move(pposes[i], cpose, "rotation"), seed))
                moves["minimal_translation"].append((_move(pposes[i], cpose, "translation") / scale, seed))
                worst = max(worst, moves["minimal_rotation"][-1][0], moves["minimal_translation"][-1][0])
            if worst > MINIMAL_LIST_ABOVE:
                minimal_moved.append((seed, worst, pm["set_residual"], cm["set_residual"]))

        pl, cl = p["lsq"], c["lsq"]
        for key in ("error", "message"):
            if pl.get(key) != cl.get(key):
                mismatches.append(f"{seed} lsq {key}: {pl.get(key)!r} != {cl.get(key)!r}")
        if "error" not in pl and "error" not in cl:
            moves["lsq_rotation"].append((_move(pl, cl, "rotation"), seed))
            moves["lsq_translation"].append((_move(pl, cl, "translation") / scale, seed))
    return mismatches, moves, refines, beyond, minimal_moved


# pose moves above these are counted (translations relative to max(1 m, size))
COUNT_ABOVE = {"rotation": 1e-9, "translation": 1e-9, "mean_error": 1e-8}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="solve every problem and write the results")
    p_run.add_argument("output")
    p_run.add_argument("--problems", type=int, default=5000)
    p_cmp = sub.add_parser("compare", help="compare two result files")
    p_cmp.add_argument("parent")
    p_cmp.add_argument("change")
    args = parser.parse_args(argv)

    if args.command == "run":
        results = [solve(seed) for seed in range(args.problems)]
        with open(args.output, "w") as f:
            json.dump(results, f)
        print(json.dumps(outcome_counts(results), indent=1))
        return 0

    with open(args.parent) as f:
        parent = json.load(f)
    with open(args.change) as f:
        change = json.load(f)
    print("parent", json.dumps(outcome_counts(parent)))
    print("change", json.dumps(outcome_counts(change)))
    mismatches, moves, refines, beyond, minimal_moved = compare(parent, change)
    for line in mismatches:
        print("MISMATCH", line)
    print(f"{len(mismatches)} exact-field mismatch(es)")
    for name, values in moves.items():
        bound = COUNT_ABOVE[name.split("_", 1)[1]]
        worst, seed = max(values, default=(0.0, None))
        above = sum(v > bound for v, _ in values)
        print(f"{name}: {above} of {len(values)} above {bound:g}, worst {worst:.3g} (problem {seed})")
    for name, side in zip(("parent", "change"), refines["evaluations"]):
        most, seed = max(side, default=(0, None))
        print(f"{name} refines: {sum(v for v, _ in side)} evaluations over {len(side)}, "
              f"at most {most} (problem {seed})")
    worst, seed = max(refines["rises"], default=(0.0, None))
    print(f"refines that end higher on their consensus set: {len(refines['rises'])}, "
          f"worst by {worst:.3g} (problem {seed})")
    for key, what in (("rose", f"higher by more than {COST_RISE:g}"), ("fell", f"lower by more than {COST_FALL:.0%}")):
        print(f"refines that end {what} on their consensus set: {len(refines[key])}")
        for seed, pr, cr in refines[key]:
            print(f"  problem {seed}: cost {pr['start_cost']:.6g} -> {pr['cost']!r} in {pr['evaluations']} "
                  f"evaluations, now {cr['cost']!r} in {cr['evaluations']}, cond {cr['cond']:.3g}")
    for flat in (False, True):
        rows = [b for b in beyond if (max(b[3]["cond"], b[4]["cond"]) > FLAT_COND) == flat]
        print(f"RANSAC poses beyond the noise floor {NOISE_FLOOR} with cond(JᵀJ) "
              f"{'>' if flat else '<='} {FLAT_COND:g}: {len(rows)}")
        for seed, rotation, mean_error, pr, cr in rows:
            print(f"  problem {seed}: rotation {rotation:.3g}, mean error {mean_error:.3g} px, "
                  f"cond {pr['cond']:.3g} -> {cr['cond']:.3g}, refine cost {pr['cost']!r} -> {cr['cost']!r}")
    print(f"minimal-solver problems whose poses move by more than {MINIMAL_LIST_ABOVE:g}: {len(minimal_moved)}")
    for seed, worst, p_res, c_res in minimal_moved:
        print(f"  problem {seed}: move {worst:.3g}, largest set residual / sum of squared sides "
              f"{p_res:.3g} -> {c_res:.3g}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
