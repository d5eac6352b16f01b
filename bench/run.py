"""pinchlab benchmark: one workload, its metrics, and a verdict on every result.

Run from the root of a pinchlab checkout (pinchlab is imported from ./src):

    python3 bench/run.py --workload tensor-campaign --seed 1 --seconds 30 --trace 0

The workload's fixed work is repeated, with the same seed, for about
--seconds seconds in this one process.  With --trace 0 the end-to-end
metrics are reported: medians over repetitions, set-up the median of
several fresh processes, and times scaled to a reference host speed that
is sampled while they run (see hostspeed.py).  With --trace 1 untraced and
traced repetitions alternate, and the per-layer metrics come from the
traced ones, in plain elapsed time.  Every printed line before the last
is for people; the last line is one JSON object: {"correct", "attempted",
"failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import hostspeed
from tracer import Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("tensor-campaign", "profile-campaign", "cli-exact")
SETUP_PROBES = 3
# The set-up probe samples host speed in its own process, with every kernel
# part (importing is no one workload's hot path); numpy is loaded before
# sampling starts because the kernel uses it.
PROBE = """\
import sys
import numpy, hostspeed
with hostspeed.sampled() as region:
    from workloads import WORKLOADS
    WORKLOADS[sys.argv[1]].ready()
print(region.speed, sum(region.samples))
"""
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cap_threads():
    """Cap BLAS/OpenMP threads at the CPUs this process may use.  Must run
    before numpy is imported; the cap is inherited by the set-up probes."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def stamp(seed, nproc):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": nproc, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blasThreads": int(os.environ[THREAD_VARS[0]]),
            "seed": seed}


def setup_seconds(name, root):
    """Time of a fresh interpreter that imports pinchlab and makes the
    workload ready (first-use caches filled), up to its exit: (scaled, elapsed).
    The probe reports the host speed it sampled and its kernel's own time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(BENCH_DIR)]))
    started = perf_counter()
    done = subprocess.run([sys.executable, "-B", "-c", PROBE, name], env=env, cwd=root,
                          check=True, stdout=subprocess.PIPE, text=True, timeout=120)
    elapsed = perf_counter() - started
    speed, kernel = map(float, done.stdout.split()[-2:])
    return (elapsed - kernel) * speed, elapsed


def _timed(workload, seed, tracer=None):
    """One repetition in plain elapsed time: (seconds, outcome)."""
    with tracer.installed() if tracer else nullcontext():
        started = perf_counter()
        outcome = workload.run(seed)
        wall = perf_counter() - started
    return wall, outcome


def _scaled(workload, seed):
    """One repetition with host speed sampled: (Region, outcome)."""
    with hostspeed.sampled(workload.hot_paths) as region:
        outcome = workload.run(seed)
    return region, outcome


def measure(workload, seed, seconds, trace, root, probes=SETUP_PROBES):
    """Repeat the workload for about `seconds`; return the run's summary.

    Plain runs report end-to-end metrics, scaled to the reference host speed.
    Traced runs alternate an untraced and a traced repetition, so that
    trace.overhead_frac compares like with like, and report per-layer metrics.
    """
    setup = [] if trace else [setup_seconds(workload.name, root) for _ in range(probes)]
    workload.ready()
    deadline = perf_counter() + seconds
    plain, traced, tracers = [], [], []
    while True:
        round_started = perf_counter()
        if trace:
            plain.append(_timed(workload, seed))
            tracers.append(Tracer())
            traced.append(_timed(workload, seed, tracers[-1]))
        else:
            plain.append(_scaled(workload, seed))
        if perf_counter() + (perf_counter() - round_started) > deadline:
            break
    outcomes = [o for _, o in plain + traced]
    summary = {
        "reps": len(plain),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "known_red": sum(o.known_red for o in outcomes),
        "problems": sorted({p for o in outcomes for p in o.problems}),
        "outcome": outcomes[0],
    }
    if trace:
        walls = [w for w, _ in plain]
        metrics = layer_metrics(tracers)
        metrics["trace.overhead_frac"] = (
            statistics.median(w for w, _ in traced) / statistics.median(walls) - 1)
        summary["absent"] = tracers[0].absent
    else:
        walls = [r.elapsed for r, _ in plain]
        metrics = {
            "setup_s": statistics.median(scaled for scaled, _ in setup),
            "wall_s": statistics.median(r.scaled for r, _ in plain),
            "items_per_s": statistics.median(o.items / r.scaled for r, o in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        summary["speeds"] = [r.speed for r, _ in plain]
        summary["setup_elapsed"] = [elapsed for _, elapsed in setup]
    summary["walls"] = walls
    summary["metrics"] = metrics
    return summary


def final_line(summary, units):
    """The result object the last line of output carries."""
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": summary["metrics"][name], "unit": units[name]}
                    for name in units},
    }


def print_report(args, info, summary, units, digest):
    print(f"stamp {json.dumps(info, sort_keys=True)}")
    print(f"workload {args.workload}  reps {summary['reps']}  trace {args.trace}")
    print(f"rep_s {' '.join(f'{w:.4f}' for w in summary['walls'])}   (elapsed)")
    if "speeds" in summary:
        print(f"host_speed {' '.join(f'{v:.3f}' for v in summary['speeds'])}"
              f"   (reference = 1; times below are scaled by it)")
        print(f"setup_elapsed_s {' '.join(f'{v:.4f}' for v in summary['setup_elapsed'])}")
    print(f"digest {args.workload} {digest}")
    for name, unit in units.items():
        print(f"  {name:<48} {summary['metrics'][name]:>14.6g} {unit}")
    bad = summary["failed"] + summary["known_red"]
    print(f"  {'failed_frac':<48} {bad / summary['attempted']:>14.6g} ratio"
          f"  ({bad} of {summary['attempted']}; known red {summary['known_red']})")
    for problem in summary["problems"]:
        print(f"  problem: {problem}")
    for name in summary.get("absent", []):
        print(f"  trace: absent {name}")


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "pinchlab" / "__init__.py").is_file():
        print("error: no src/pinchlab here; run from the root of a pinchlab checkout",
              file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))
    import workloads

    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    summary = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                      args.trace, root)
    print_report(args, stamp(args.seed, nproc), summary, units,
                 workloads.digest(summary["outcome"]))
    print(json.dumps(final_line(summary, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
