#!/usr/bin/env python3
"""witnesskit benchmark: closed-loop passes over one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/RATIONALE.md): seesaw-small, lift-fullscale,
decompose-cli.  One process runs passes one after another until
``--seconds`` have elapsed; a pass runs every task of the workload
once, in order, on inputs drawn from the pass seed ``N * 1000 + k``
(pass k), so that one run averages over several seeded inputs.  Every
task is gated on its tolerance.  BLAS runs single-threaded.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
pass twice, untraced and then traced, and prints the per-layer metrics
of the first traced pass plus the tracing overhead; all spans are
written to .bench_run/trace-<workload>-<seed>.jsonl.gz.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it record the
environment and details.  The exit code is nonzero when any task fails.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"
WORKLOAD_NAMES = ("seesaw-small", "lift-fullscale", "decompose-cli")
SETUP_CHILDREN = 2  # setup_s is the median of these and the run's own setup
TAIL_PERCENTILES = (99, 90, 50)


def _nonnegative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_nonnegative, required=True)
    parser.add_argument("--seconds", type=_nonnegative, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help="time one set-up and print it (internal)")
    return parser.parse_args(argv)


def _pin_blas_threads():
    """Run BLAS single-threaded; numpy reads this when first imported.

    On two virtual cores, two BLAS threads made the same task flip
    between about 25 ms and 390 ms from one call to the next (threads
    waiting on a core the host had parked), and the first second after
    an idle spell ran ten times slower.  One thread stays well under the
    core count and removes both effects.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _setup(name, seed, workdir):
    """Import the package and build the inputs of the first pass."""
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    try:
        import workloads
    except ModuleNotFoundError as exc:
        sys.exit(f"cannot import the witnesskit sources under {ROOT / 'src'}: {exc}")
    setup, build = workloads.WORKLOADS[name]
    state = setup(str(workdir))
    first = build(state, _pass_seed(seed, 0))
    return time.perf_counter() - start, state, build, first


def _pass_seed(seed, k):
    return seed * 1000 + k


def _run_pass(tasks, tracer, failures):
    latencies = []
    start = time.perf_counter()
    for index, (name, task) in enumerate(tasks):
        if tracer is not None:
            tracer.task = index
        t0 = time.perf_counter()
        try:
            task()
        except Exception as exc:  # every miss is counted, none dropped
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        latencies.append(time.perf_counter() - t0)
    return time.perf_counter() - start, latencies


def _nearest_rank(ordered, p):
    return ordered[math.ceil(len(ordered) * p / 100) - 1]


def _tail(ordered):
    """Highest listed percentile with at least ten samples beyond it,
    or the maximum when there are too few samples."""
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n - math.ceil(n * p / 100) >= 10:
            return p, _nearest_rank(ordered, p)
    return 100, ordered[-1]


def _environment(cores):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }


def _setup_samples(args, own):
    samples = [own]
    for _ in range(SETUP_CHILDREN):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(out.stdout.split()[-1]))
    return samples


def _measure(args, cores, own_setup, state, build, tasks):
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    setup = None if tracer else _setup_samples(args, own_setup)
    failures = []
    plain, traced, latencies, by_task = [], [], [], {}
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        if k:
            tasks = build(state, _pass_seed(args.seed, k))
        wall, lat = _run_pass(tasks, None, failures)
        plain.append(wall)
        latencies += lat
        for (name, _), seconds in zip(tasks, lat):
            by_task.setdefault(name, []).append(seconds)
        if tracer is not None:
            tracer.pass_index = k
            tracer.install()
            try:
                traced.append(_run_pass(tasks, tracer, failures)[0])
            finally:
                tracer.uninstall()
        k += 1
        if time.perf_counter() >= deadline:
            break
    attempted = len(latencies) * (2 if tracer is not None else 1)
    env = _environment(cores)
    print(json.dumps({"environment": env}))
    if tracer is None:
        percentile, tail = _tail(sorted(latencies))
        task_medians = {name: statistics.median(v) for name, v in by_task.items()}
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            # passes draw different inputs, so the mean estimates the
            # expected pass time with less spread than the median
            "wall_s": (statistics.fmean(plain), "s"),
            "task_p50_ms": (1e3 * statistics.median_high(task_medians.values()), "ms"),
            "task_tail_ms": (1e3 * tail, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        detail = {
            "task_tail_percentile": percentile,
            "task_samples": len(latencies),
            "passes": k,
            "pass_wall_s": plain,
            "setup_samples_s": setup,
            "task_median_ms": {name: 1e3 * v for name, v in task_medians.items()},
        }
    else:
        overhead = statistics.median(t - p for t, p in zip(traced, plain))
        metrics = {
            key: (value, tracing.unit_of(key))
            for key, value in tracing.layer_metrics(tracer.spans, 0).items()
        }
        metrics["trace.overhead_s"] = (overhead, "s")
        path = RUN_DIR / f"trace-{args.workload}-{args.seed}.jsonl.gz"
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "environment": env,
                            "span": ["id", "name", "start", "end", "parent", "task", "pass", "note"]})
        detail = {
            "passes": k,
            "plain_pass_s": plain,
            "traced_pass_s": traced,
            "spans": len(tracer.spans),
            "trace_file": str(path.relative_to(ROOT)),
        }
    detail["failed_ratio"] = len(failures) / attempted
    detail["failures"] = failures
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


def main(argv=None):
    args = _parse_args(argv)
    cores = _pin_blas_threads()
    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        own_setup, state, build, tasks = _setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(own_setup)
            return 0
        return _measure(args, cores, own_setup, state, build, tasks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
