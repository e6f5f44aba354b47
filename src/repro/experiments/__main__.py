"""CLI: regenerate any paper table/figure.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig07
    python -m repro.experiments fig13 --scale medium --seeds 0 1 2
    python -m repro.experiments all --jobs 4
    python -m repro.experiments validate      # PASS/FAIL claims report
    python -m repro.experiments validate --jobs 8 --seeds 0 1 2

Sweeps fan out across ``--jobs`` worker processes and consult the
on-disk result cache (``.repro-cache/`` by default) unless ``--no-cache``
is given; results are byte-identical to a serial, uncached run.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.common import FULL, MEDIUM, SMALL
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.runner import (DEFAULT_CACHE_DIR, SweepRunner,
                                      run_experiments)

SCALES = {"small": SMALL, "medium": MEDIUM, "full": FULL}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate tables/figures from the IPDPS'14 paper")
    parser.add_argument("experiment",
                        help="experiment id (e.g. fig07), 'all', or 'list'")
    parser.add_argument("--scale", choices=sorted(SCALES), default="small",
                        help="cluster scale (default: small)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0],
                        help="seeds; the median is reported (paper: 5 runs)")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes for the sweep (default: 1; "
                             "results are byte-identical at any job count)")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help=f"result cache location (default: "
                             f"$REPRO_CACHE_DIR or {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-progress", action="store_true",
                        help="suppress per-cell progress on stderr")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write a Chrome trace per engine run "
                             "(forces --jobs 1 and --no-cache; multiple "
                             "runs get -2, -3, ... suffixes)")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write a JSONL run log per engine run "
                             "(forces --jobs 1 and --no-cache)")
    parser.add_argument("--probe-period", type=float, default=0.25,
                        help="telemetry gauge sampling period in sim "
                             "seconds (default: 0.25)")
    args = parser.parse_args(argv)

    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")

    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    capturing = bool(args.trace_out or args.metrics_out)
    jobs, cache = args.jobs, not args.no_cache
    if capturing:
        # Capture sessions live in this process, and a cache hit would
        # skip the engine run entirely — nothing to observe either way.
        if jobs != 1:
            print("telemetry capture forces --jobs 1", file=sys.stderr)
            jobs = 1
        if cache:
            print("telemetry capture forces --no-cache", file=sys.stderr)
            cache = False
        if args.probe_period <= 0:
            raise SystemExit(f"--probe-period must be positive, "
                             f"got {args.probe_period}")

    runner = SweepRunner(jobs=jobs, cache=cache,
                         cache_dir=args.cache_dir,
                         progress=not args.no_progress)

    session = None
    if capturing:
        from repro.obs import capture as obs_capture
        session = obs_capture.install(obs_capture.CaptureSession(
            trace_out=args.trace_out, metrics_out=args.metrics_out,
            probe_period=args.probe_period))
    try:
        if args.experiment == "validate":
            from repro.experiments.validate import render_report, validate
            report = validate(scale=SCALES[args.scale],
                              seeds=tuple(args.seeds), runner=runner)
            print(render_report(report))
            return 0 if all(r["pass"] for r in report) else 1

        ids = sorted(EXPERIMENTS) if args.experiment == "all" \
            else [args.experiment]
        for _, result in run_experiments(ids, scale=SCALES[args.scale],
                                         seeds=tuple(args.seeds),
                                         runner=runner):
            print(result.render())
            print()
        return 0
    finally:
        if session is not None:
            from repro.obs import capture as obs_capture
            obs_capture.uninstall()
            for trace_path, runlog_path in session.written:
                for path in (trace_path, runlog_path):
                    if path:
                        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
