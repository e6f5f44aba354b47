"""Run a full benchmark set and write one results file for compare.py.

    python3 perfbench/suite.py --out FILE [--repeats 3] [--seed 0]
        [--workload NAME]... [--trace]

Each pass runs every workload once (one ``run.py`` measurement of
``run.DEFAULT_SECONDS``), and passes rotate the workload order, so slow
drift on the host spreads over all workloads instead of landing on one.
A workload's end-to-end metric is the median of its per-pass medians,
with the quartiles and the count.  ``--trace`` traces the last pass:
each workload's measurement there adds one profiled iteration, which
gives the per-layer numbers.  The file records the kernel mode, Python
and NumPy versions, ``nproc``, host and git commit, because only
results that share the first three compare.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

import run
from workloads import WORKLOADS


def _commit() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(run.ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                             env=env, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def summarize(records: List[dict]) -> dict:
    """One workload's entry in the results file."""
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = {}
    for name, unit in run.E2E:
        values = [r["metrics"][name]["value"] for r in records
                  if name in r["metrics"]]
        if values:
            metrics[name] = {**run.quartiles(values), "unit": unit,
                             "values": values}
    out = {"metrics": metrics, "attempted": attempted, "failed": failed,
           "failed_frac": failed / attempted if attempted else 1.0,
           "runs": records}
    if "layer_metrics" in records[-1]:  # the traced last pass
        out["layer_metrics"] = records[-1]["layer_metrics"]
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/suite.py",
        description="run every workload, interleaved, and write a "
                    "results file")
    parser.add_argument("--out", required=True, metavar="FILE")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--trace", action="store_true",
                        help="trace the last pass for the per-layer numbers")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        raise SystemExit(f"--repeats must be >= 1, got {args.repeats}")
    names = args.workload or list(WORKLOADS)
    records: Dict[str, List[dict]] = {name: [] for name in names}
    for p in range(args.repeats):
        k = p % len(names)
        trace = args.trace and p == args.repeats - 1
        for name in names[k:] + names[:k]:
            rec = run.measure(name, args.seed, run.DEFAULT_SECONDS,
                              trace=trace)
            wall = rec["metrics"].get("wall_s", {}).get("value", float("nan"))
            print(f"pass {p + 1}/{args.repeats} {name:<16s} "
                  f"wall_s {wall:8.3f}  failed {rec['failed']}/"
                  f"{rec['attempted']}{'  traced' if trace else ''}",
                  flush=True)
            records[name].append(rec)
    env = records[names[0]][0]["env"]
    results = {
        "schema": 1, "seed": args.seed, "repeats": args.repeats,
        "seconds": run.DEFAULT_SECONDS,
        "env": {**env, "commit": _commit(),
                "host": " ".join(os.uname()[i] for i in (0, 2, 4))},
        "workloads": {name: summarize(records[name]) for name in names},
    }
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    failed = sum(w["failed"] for w in results["workloads"].values())
    print(f"wrote {args.out}; {failed} failed iterations")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
