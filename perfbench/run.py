#!/usr/bin/env python3
"""Benchmark of the scalepose command line: one workload, closed loop.

    python3 perfbench/run.py --workload solve_outliers --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from ``src/`` of
the same checkout. One client issues one operation at a time through
``scalepose.cli.main``; each operation's inputs are files this benchmark
writes from ``--seed`` alone. Operations come in rounds with a fixed
make-up, and the timed phase runs whole rounds until ``--seconds`` have
passed and at least 100 operations are done. After the timed phase the
outputs are checked against the benchmark's own reference code.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` the benchmark runs one
round under the span tracer in ``spans.py`` and reports per-layer
metrics instead. Spans are written to ``perfbench/.work/<workload>/``.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before NumPy loads, and measure
# the pure-NumPy kernels, the only backend this package builds without Cython.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["SCALEPOSE_BACKEND"] = "pure"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("solve_outliers", "simulate_grid", "evaluate_scenes")
MIN_OPS = 100  # the 90th percentile then has at least ten samples beyond it
WARMUP_OPS = 3
SETUP_STARTS = 5

# A fresh interpreter: import the program, then read and parse the input
# files, and report when it is ready for its first operation.
_SETUP_CHILD = """
import json, sys, time
start = time.monotonic()
sys.path.insert(0, sys.argv[1])
import scalepose.cli
imported = time.monotonic()
for path in sys.argv[2:]:
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".jsonl"):
        [json.loads(line) for line in text.splitlines() if line.strip()]
    else:
        json.loads(text)
print(json.dumps({"ready": time.monotonic(), "import_ms": 1000.0 * (imported - start)}))
"""


def measure_setup(files):
    """Median set-up time and median import time over fresh interpreters."""
    setup, imports = [], []
    for _ in range(SETUP_STARTS):
        start = time.monotonic()
        child = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, SRC, *files],
            capture_output=True, text=True, check=True, cwd=ROOT, timeout=60,
        )
        report = json.loads(child.stdout.strip().splitlines()[-1])
        setup.append(report["ready"] - start)
        imports.append(report["import_ms"])
    return statistics.median(setup), statistics.median(imports)


def timed_phase(workload, run_op, seconds, first_round):
    """Whole rounds until ``seconds`` of operations and MIN_OPS are done.
    Input files for each round are written outside the clock."""
    done, latencies, failed, round_s = [], [], 0, []
    ops = first_round
    while True:
        round_start = time.perf_counter()
        for op in ops:
            start = time.perf_counter()
            code = run_op(op["argv"])
            latencies.append(time.perf_counter() - start)
            if code == 0:
                done.append(op)
            else:
                failed += 1
        round_s.append(time.perf_counter() - round_start)
        if sum(round_s) >= seconds and len(latencies) >= MIN_OPS:
            return done, latencies, failed, round_s
        ops = workload.round(len(round_s))


def traced_round(ops, run_op, workdir):
    """One round under the span tracer; the spans go to ``workdir``."""
    import spans

    tracer = spans.Tracer()
    with spans.installed(tracer):
        start = time.perf_counter()
        codes = [run_op(op["argv"]) for op in ops]
        round_s = [time.perf_counter() - start]
    tracer.dump(os.path.join(workdir, "spans.jsonl"))
    done = [op for op, code in zip(ops, codes) if code == 0]
    return tracer, done, len(ops) - len(done), round_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import scalepose
    from scalepose import _kernels, cli

    if not os.path.abspath(scalepose.__file__).startswith(SRC + os.sep):
        sys.exit(f"scalepose was imported from {scalepose.__file__}, not from {SRC}")
    import numpy as np

    module = __import__(args.workload)

    workdir = os.path.join(BENCH_DIR, ".work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = module.Workload(args.seed, workdir)
    first_round = workload.round(0)
    setup_s, import_ms = measure_setup(workload.input_files(first_round))

    with open(os.devnull, "w") as devnull:

        def run_op(argv):
            """Run one command in process, its console output discarded."""
            with contextlib.redirect_stdout(devnull), contextlib.redirect_stderr(devnull):
                return cli.main(argv)

        for op in first_round[:WARMUP_OPS]:
            run_op(op["argv"])
        if args.trace:
            tracer, done, failed, round_s = traced_round(first_round, run_op, workdir)
        else:
            done, latencies, failed, round_s = timed_phase(workload, run_op, args.seconds, first_round)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems, accuracy = workload.check(done, run_op)

    busy = sum(round_s)
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    attempted = len(done) + failed

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "round_s": round_s,
        "ops_per_s": attempted / busy, "backend": _kernels.backend_name(),
        "numpy": np.__version__, "python": sys.version.split()[0], "nproc": os.cpu_count(),
    }))
    if args.trace:
        metrics = tracer.metrics()
        metrics["cli.import_ms"] = (import_ms, "ms")
    else:
        ms = 1000.0 * np.asarray(latencies)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(done) / busy, "1/s"),
            "latency_p50_ms": (float(np.percentile(ms, 50)), "ms"),
            "latency_p90_ms": (float(np.percentile(ms, 90)), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "rot_err_p50_deg": (accuracy["rot_err_p50_deg"], "deg"),
            "trans_err_p50_cm": (accuracy["trans_err_p50_cm"], "cm"),
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
