"""twosheet benchmark: one workload per process, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload decide_lattice --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the same batch untraced and
traced, in turns, and prints the per-layer metrics and the tracing overhead.  The
last line of stdout is a JSON object with the keys correct, attempted, failed and
metrics.  Lines before it starting with '#' record the environment and every
metric with its unit.  The package is imported from the checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

# Pin every thread pool to one thread before numpy is imported.
for _var in ("TWOSHEET_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "_out")
WORKLOAD_NAMES = ("decide_lattice", "cone_surface", "oracle_2d", "oracle_4d")
SETUP_REPEATS = 5

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("items_per_s", "1/s"),
]


def _import_package():
    """Import twosheet from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import twosheet

    if os.path.dirname(os.path.dirname(os.path.abspath(twosheet.__file__))) != SRC:
        sys.exit(f"perfbench: twosheet imported from {twosheet.__file__}, not {SRC}")
    return twosheet


def _setup(name: str, seed: int, out_dir: str):
    """Import, model load and the inputs of the first pass: what precedes the first op."""
    _import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](ROOT, seed, out_dir)
    return workload, workload.inputs(0)


def _environment(twosheet) -> dict:
    import hashlib
    import platform

    import numpy
    import scipy

    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(os.path.join(SRC, "twosheet"))):
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(base, f), "rb") as fh:
                    digest.update(f.encode() + b"\0" + fh.read())
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=10)
        if res.returncode == 0:
            commit = res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "twosheet": twosheet.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "threads": {v: os.environ[v] for v in ("TWOSHEET_THREADS", "OMP_NUM_THREADS",
                                              "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _measure_setup(args) -> list:
    """Wall time of SETUP_REPEATS fresh processes that set up and exit."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        # a blocking wait returns when the child exits; wait(timeout=...) polls in
        # steps of up to 50 ms, which made the times read in 50 ms steps
        killer = threading.Timer(120.0, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
            proc.kill()  # no-op once it has exited
            proc.wait()
        times.append(time.perf_counter() - start)
        if code != 0:
            sys.exit(f"perfbench: set-up of {args.workload} failed with code {code}")
    return times


def _run_workload(args) -> int:
    setup_times = _measure_setup(args)
    run_dir = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        return _measure(args, setup_times, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(args, setup_times, run_dir) -> int:
    import resource

    workload, first_inputs = _setup(args.workload, args.seed, run_dir)
    import twosheet
    from tracer import PER_LAYER, Tracer
    from workloads import Recorder

    rec = Recorder()
    outputs = []
    walls, traced_walls, rates = [], [], []
    tracers = []
    start = time.perf_counter()
    k = 0
    while True:
        if args.trace:
            # the same batch untraced, then traced: counts repeat exactly
            t0 = time.perf_counter()
            outputs.append(workload.run_pass(first_inputs, rec))
            walls.append(time.perf_counter() - t0)
            tracer = Tracer()
            tracer.install(twosheet)
            rec.tracer = tracer
            try:
                t0 = time.perf_counter()
                outputs.append(workload.run_pass(first_inputs, rec))
                traced_walls.append(time.perf_counter() - t0)
            finally:
                rec.tracer = None
                tracer.uninstall()
            tracers.append(tracer)
        else:
            inputs = first_inputs if k == 0 else workload.inputs(k)
            items, item_s = rec.items, rec.item_s
            t0 = time.perf_counter()
            outputs.append(workload.run_pass(inputs, rec))
            walls.append(time.perf_counter() - t0)
            if rec.item_s > item_s:
                rates.append((rec.items - items) / (rec.item_s - item_s))
        k += 1
        step = statistics.median(walls) + (statistics.median(traced_walls) if args.trace else 0)
        if k >= workload.max_passes or time.perf_counter() - start + step > args.seconds:
            break
    timed_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for out in outputs:
        workload.check(out, rec)

    env = _environment(twosheet)
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} passes {k} timed {timed_s:.3f} s "
          f"ops {len(rec.op_s)} items {rec.items} attempted {rec.attempted} "
          f"failed {rec.failed} failed_ratio {rec.failed / rec.attempted:.6g}")
    for note in rec.notes:
        print(f"# FAILED {note}")

    if args.trace:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        values = tracers[0].metrics(overhead)
        units = {name: unit for name, unit, _ in PER_LAYER}
        tracers[0].write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv.gz"))
    else:
        # quantiles needs two values; fewer ops only happen when sampling failed
        ops = rec.op_s if len(rec.op_s) >= 2 else (rec.op_s or [0.0]) * 2
        deciles = statistics.quantiles(ops, n=10, method="inclusive")
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
            "op_ms_p50": 1e3 * deciles[4],
            "op_ms_p90": 1e3 * deciles[8],
            "items_per_s": statistics.median(rates) if rates else 0.0,
        }
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"# {args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0


def _run_all(args) -> int:
    """Every workload in its own process; prints one table and a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = res.stdout.splitlines()
        if res.returncode != 0 or not lines:
            sys.stderr.write(res.stderr)
            sys.exit(f"perfbench: workload {name} exited with code {res.returncode}")
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "twosheet", "__init__.py")):
        sys.stderr.write(f"perfbench: no twosheet package under {SRC}\n")
        return 2
    if args.setup_only:
        _setup(args.workload, args.seed, OUT_DIR)
        return 0
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
