"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
        [--trace 0|1] [--out FILE]

Run it from anywhere; it measures the checkout it sits in.  It first
compiles the checkout's ``src/repro`` and builds the C kernels in a
``prepare`` child, so no timing includes them.  It then runs the
workload in a fresh child interpreter per iteration, one at a time,
while the next iteration is expected to end within ``--seconds``, and
at least ``MIN_ITERS`` times.  Each child is single-threaded.

End-to-end metrics are medians over the iterations.  ``setup_s`` is a
child's time from spawn to ready: interpreter start, ``import repro``,
and loading the warm C kernels.  ``wall_s`` is the workload call alone.
``peak_rss_mb`` is the child's ``ru_maxrss``.  With ``--trace 1``, one
more iteration runs under cProfile, and the run prints the per-layer
metrics instead (see ``layers.py``).

An iteration fails if it raises, exits non-zero, or produces outputs
whose digests differ from ``golden.json`` (seeds 0 and 1) or from the
run's other iterations.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every iteration succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

import layers
from workloads import HERE, ROOT, SRC, WORKLOADS

GOLDEN = os.path.join(HERE, "golden.json")
CHILD = os.path.join(HERE, "workloads.py")
BUILD = os.path.join(ROOT, ".bench_build")

#: End-to-end metrics, as (name, unit); all lower-is-better.
E2E = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
#: The fewest iterations a median is taken over; the longest workload
#: runs about 6 s, so three fit in the default window.
MIN_ITERS = 3
#: BENCHMARK.json's ``run_seconds``.
DEFAULT_SECONDS = 20
#: Hard cap on one run, inside the 180 s a run may take.
RUN_LIMIT_S = 160.0


def child_env() -> Dict[str, str]:
    """The children's environment: this checkout's code, kernels cached
    inside the checkout, one thread, fixed string hashing."""
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, TMPDIR=os.path.join(BUILD, "tmp"),
               PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(args: Sequence[str], timeout: float) -> dict:
    """Run one child to completion; returns its JSON result plus
    ``setup_s`` (spawn to ``ready``) and ``elapsed_s`` (spawn to exit).
    A child that fails gets an ``error`` key."""
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD, *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = (first + rest).splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if first == "ready\n":
        result["setup_s"] = ready - start
    result["elapsed_s"] = time.perf_counter() - start
    if code != 0 and "error" not in result:
        result["error"] = f"child exited {code}"
    return result


def prepare() -> dict:
    """Compile the checkout and build the kernels; returns the
    environment the results are only comparable within."""
    env = spawn(["prepare"], RUN_LIMIT_S)
    if "error" in env:
        raise RuntimeError(f"prepare failed: {env['error']}")
    return {"kernel_mode": env["kernel_mode"], "python": env["python"],
            "numpy": env["numpy"], "nproc": len(os.sched_getaffinity(0))}


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, first and third quartile and count of ``values``.  The
    quartiles interpolate between samples (``numpy.percentile``'s
    default), which suits the few samples of a run."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _check(samples: List[dict], golden: Optional[dict]) -> None:
    """Mark samples whose outputs differ from golden or from the first
    good sample."""
    reference = golden
    for s in samples:
        if "error" in s:
            continue
        if reference is None:
            reference = s["digests"]
        elif s["digests"] != reference:
            s["error"] = ("outputs differ from golden.json" if golden
                          else "outputs differ between iterations")


def measure(workload: str, seed: int, seconds: float,
            trace: bool = False) -> dict:
    """One benchmark run; returns its full record (see the module
    docstring)."""
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; "
                         f"have {sorted(WORKLOADS)}")
    with open(GOLDEN) as fh:
        golden = json.load(fh).get(workload, {}).get(str(seed))
    env = prepare()
    start = time.perf_counter()
    samples: List[dict] = []

    def left() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - start)

    while True:
        spent = time.perf_counter() - start
        if samples and (spent > RUN_LIMIT_S / 2 or (
                len(samples) >= MIN_ITERS and spent + statistics.median(
                    s["elapsed_s"] for s in samples) > seconds)):
            break
        samples.append(spawn(["run", workload, str(seed)], left()))
    traced = spawn(["trace", workload, str(seed)], left()) if trace else None
    runs = samples + ([traced] if traced else [])
    _check(runs, golden)
    good = [s for s in samples if "error" not in s]
    failed = sum("error" in s for s in runs)
    metrics: Dict[str, dict] = {}
    if good:
        values = {"wall_s": [s["wall_s"] for s in good],
                  "setup_s": [s["setup_s"] for s in good],
                  "peak_rss_mb": [s["rss_mb"] for s in good]}
        for name, unit in E2E:
            metrics[name] = {**quartiles(values[name]), "unit": unit}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env, "attempted": len(runs),
              "failed": failed, "failed_frac": failed / len(runs),
              "metrics": metrics, "samples": samples}
    if traced is not None:
        record["traced"] = traced
        if "error" not in traced and good:
            record["layer_metrics"] = layer_metrics(
                traced, metrics["wall_s"]["value"])
    return record


def layer_metrics(traced: dict, wall_s: float) -> Dict[str, dict]:
    """The per-layer metrics of one traced iteration; ``wall_s`` is the
    untraced median."""
    t = traced["trace"]
    values = {}
    for layer, row in t["layers"].items():
        values[f"{layer}.share"] = row["share"]
        values[f"{layer}.calls_in"] = row["calls_in"]
    values["sim.core.events"] = t["events"]
    values["sim.core.events_per_s"] = t["events"] / wall_s
    for name in layers.COUNTED:
        values[name] = t[name]
    values["trace.overhead_x"] = traced["wall_s"] / wall_s
    return {name: {"value": values[name], "unit": unit}
            for name, unit in layers.metric_names()}


def report(record: dict) -> dict:
    """Print the run's metrics by name and unit; returns the final
    result object."""
    trace = record["trace"]
    print(f"workload {record['workload']} seed {record['seed']} "
          f"kernel_mode {record['env']['kernel_mode']} "
          f"nproc {record['env']['nproc']}")
    for name, m in record["metrics"].items():
        print(f"  {name:<14s} {m['value']:12.4f} {m['unit']:<5s} "
              f"q1 {m['q1']:.4f}  q3 {m['q3']:.4f}  n {m['n']}")
    print(f"  {'failed_frac':<14s} {record['failed_frac']:12.4f} ratio "
          f"({record['failed']}/{record['attempted']})")
    for s in record["samples"] + [record.get("traced") or {}]:
        if "error" in s:
            print(f"  FAILED: {s['error']}")
    if trace:
        for name, m in record.get("layer_metrics", {}).items():
            print(f"  {name:<28s} {m['value']:16.6g} {m['unit']}")
    shown = record.get("layer_metrics", {}) if trace else record["metrics"]
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in shown.items()}
    correct = record["failed"] == 0 and bool(metrics)
    return {"correct": correct, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="run one benchmark workload and print its metrics")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measurement window (default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also profile one iteration and print the "
                             "per-layer metrics")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the run's full record as JSON")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro sources at {SRC}: run.py must sit in a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds,
                     trace=bool(args.trace))
    result = report(record)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
