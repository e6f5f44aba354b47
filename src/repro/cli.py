"""Top-level command-line interface.

Subcommands::

    python -m repro describe-cluster [--nodes N]
    python -m repro run --workload groupby --data-gb 40 [--nodes N]
        [--store ramdisk|ssd|lustre] [--elb] [--cad] [--delay-scheduling]
        [--speculation] [--failure-rate P] [--crash NODE@T[:RESTART_T]]...
        [--mem-frac F] [--mem-elastic]
        [--seed S] [--gantt] [--csv FILE] [--json FILE]
        [--trace-out TRACE.json] [--metrics-out RUNLOG.jsonl]
        [--probe-period S]
    python -m repro serve --arrival-rate R --jobs N
        [--tenants name[:weight[:quota]],...] [--policy fifo|fair]
        [--base-gb G] [--nodes N] [--seed S] [--handoff-delay S]
        [--elb] [--cad] [--mem-frac F] [--mem-elastic] [--json FILE]
        [--explain]
    python -m repro report RUNLOG.jsonl  (per-phase utilization summary)
    python -m repro explain [RUNLOG.jsonl]   (critical path + attribution
        + scheduler decision audit; without a runlog it simulates the
        job itself, taking the same flags as `run`)
    python -m repro bench [--quick] [--check] [--scenario NAME]...
        [--jobs N] [--capture-dir DIR]   (fingerprints equal to the
        captured digests and to the telemetry run's, and the
        critical-path attribution sum; no timing)
    python -m repro experiments ...      (alias of repro.experiments CLI)
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.timeline import gantt, to_csv, write_json
from repro.cluster.spec import GB, MB, hyperion
from repro.cluster.variability import LognormalSpeed
from repro.core.engine import EngineOptions, run_job
from repro.core.faults import FaultPlan, NodeCrash
from repro.workloads import (
    grep_spec,
    groupby_spec,
    kmeans_spec,
    logistic_regression_spec,
    wordcount_spec,
)

__all__ = ["main"]

# Every factory takes (data_bytes, store) with store=None meaning "the
# workload's default"; a workload that shuffles threads the store into
# its spec, one that does not appears in NO_SHUFFLE_WORKLOADS and the
# CLI rejects an explicit --store for it instead of silently ignoring it.
WORKLOADS = {
    "groupby": lambda data, store: groupby_spec(
        data, shuffle_store=store if store is not None else "ramdisk",
        fetch_mode="network" if store != "lustre" else "lustre-local"),
    "grep": lambda data, store: grep_spec(data, shuffle_store=store),
    "lr": lambda data, store: logistic_regression_spec(data),
    "wordcount": lambda data, store: wordcount_spec(data,
                                                    shuffle_store=store),
    "kmeans": lambda data, store: kmeans_spec(data),
}

#: Workloads whose per-iteration aggregates stay in memory: there is no
#: materialised shuffle, so no storage device choice to make.
NO_SHUFFLE_WORKLOADS = frozenset({"lr", "kmeans"})


def _add_job_args(p: argparse.ArgumentParser) -> None:
    """The job-shape flags shared by ``run`` and ``explain``."""
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   default="groupby")
    p.add_argument("--data-gb", type=float, default=40.0)
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--store", choices=["ramdisk", "ssd", "lustre"],
                   default=None,
                   help="shuffle storage device (default: the "
                        "workload's own; rejected for workloads "
                        "without a shuffle)")
    p.add_argument("--elb", action="store_true")
    p.add_argument("--cad", action="store_true")
    p.add_argument("--delay-scheduling", action="store_true")
    p.add_argument("--speculation", action="store_true")
    p.add_argument("--failure-rate", type=float, default=0.0)
    p.add_argument("--crash", action="append", default=[],
                   metavar="NODE@T[:RESTART_T]",
                   help="crash NODE at sim time T, optionally restarting "
                        "it (empty) at RESTART_T; repeatable")
    p.add_argument("--mem-frac", type=float, default=None,
                   help="manage executor memory at this fraction of the "
                        "node's Spark heap (0 < f <= 1; shrunk heaps "
                        "spill); default: memory unmanaged")
    p.add_argument("--mem-elastic", action="store_true",
                   help="with managed memory, launch tasks shrunk "
                        "instead of declining offers (implies "
                        "--mem-frac 1.0 unless given)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--speed-sigma", type=float, default=0.18)


def _job_config(args):
    """Validate the shared job flags and build ``(spec, options)``."""
    if args.store is not None and args.workload in NO_SHUFFLE_WORKLOADS:
        raise SystemExit(
            f"--store {args.store} has no effect on --workload "
            f"{args.workload}: it keeps its per-iteration aggregates in "
            f"memory and never materialises shuffle data; drop --store or "
            f"pick a shuffling workload (groupby, grep, wordcount)")
    if not 0.0 <= args.failure_rate <= 1.0:
        raise SystemExit(
            f"--failure-rate must be within [0, 1], got {args.failure_rate}")
    if args.nodes <= 0:
        raise SystemExit(
            f"--nodes must be a positive node count, got {args.nodes}")
    if args.data_gb <= 0:
        raise SystemExit(
            f"--data-gb must be a positive data size in GB, "
            f"got {args.data_gb}")
    spec = WORKLOADS[args.workload](args.data_gb * GB, args.store)
    options = EngineOptions(
        delay_scheduling=args.delay_scheduling, elb=args.elb, cad=args.cad,
        speculation=args.speculation, task_failure_rate=args.failure_rate,
        seed=args.seed, fault_plan=_parse_crashes(args.crash),
        memory=_memory_config(args))
    return spec, options


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Memory-resident MapReduce on HPC systems (IPDPS'14 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    desc = sub.add_parser("describe-cluster",
                          help="print the simulated testbed's spec")
    desc.add_argument("--nodes", type=int, default=100)

    run = sub.add_parser("run", help="simulate one job")
    _add_job_args(run)
    run.add_argument("--gantt", action="store_true",
                     help="render an ASCII task timeline")
    run.add_argument("--csv", metavar="FILE",
                     help="write the task trace as CSV")
    run.add_argument("--json", metavar="FILE",
                     help="write full job metrics as JSON")
    run.add_argument("--trace-out", metavar="FILE",
                     help="write a Chrome trace-event JSON (load in "
                          "Perfetto / chrome://tracing)")
    run.add_argument("--metrics-out", metavar="FILE",
                     help="write the JSONL structured run log "
                          "(events + sampled metric series)")
    run.add_argument("--probe-period", type=float, default=0.25,
                     help="gauge sampling period in sim seconds "
                          "(default: 0.25)")

    serve = sub.add_parser(
        "serve", help="run a continuous multi-tenant job stream on one "
                      "warm cluster")
    serve.add_argument("--arrival-rate", type=float, default=0.05,
                       help="aggregate job arrivals per sim second, split "
                            "evenly across tenants (default: 0.05)")
    serve.add_argument("--jobs", type=int, default=20,
                       help="total jobs to run (default: 20)")
    serve.add_argument("--tenants", default="etl:2,adhoc:1",
                       help="comma-separated name[:weight[:quota]] specs "
                            "(default: etl:2,adhoc:1)")
    serve.add_argument("--policy", choices=["fifo", "fair"], default="fifo",
                       help="inter-job scheduler (default: fifo)")
    serve.add_argument("--base-gb", type=float, default=8.0,
                       help="base data scale; each job draws a multiplier "
                            "on this (default: 8)")
    serve.add_argument("--nodes", type=int, default=8)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--handoff-delay", type=float, default=0.5,
                       help="executor-handoff delay in sim seconds when a "
                            "core moves between jobs (default: 0.5)")
    serve.add_argument("--elb", action="store_true",
                       help="enable ELB inside every job")
    serve.add_argument("--cad", action="store_true",
                       help="enable CAD inside every job")
    serve.add_argument("--mem-frac", type=float, default=None,
                       help="share one managed executor-heap pool (this "
                            "fraction of each node's Spark heap) across "
                            "all concurrent jobs; default: unmanaged")
    serve.add_argument("--mem-elastic", action="store_true",
                       help="with managed memory, launch tasks shrunk "
                            "instead of declining offers")
    serve.add_argument("--json", metavar="FILE",
                       help="write the full stream result as JSON")
    serve.add_argument("--explain", action="store_true",
                       help="also print per-tenant time attribution "
                            "(wait vs. service) and the scheduler "
                            "decision audit")

    report = sub.add_parser(
        "report", help="summarize a run log written by --metrics-out")
    report.add_argument("runlog", metavar="RUNLOG.jsonl")

    explain = sub.add_parser(
        "explain", help="critical path, time attribution, and scheduler "
                        "decision audit for one run")
    explain.add_argument("runlog", nargs="?", metavar="RUNLOG.jsonl",
                         help="explain an existing run log (written by "
                              "run --metrics-out); omitted: simulate the "
                              "job described by the flags below")
    _add_job_args(explain)
    explain.add_argument("--probe-period", type=float, default=0.25,
                         help="gauge sampling period in sim seconds "
                              "(default: 0.25)")
    explain.add_argument("--segments", type=int, default=40,
                         help="critical-path segments to print before "
                              "eliding (default: 40)")
    explain.add_argument("--json", metavar="FILE",
                         help="also write full job metrics as JSON "
                              "(run mode only; byte-identical to "
                              "`run --json` for the same flags)")

    bench = sub.add_parser(
        "bench", help="check that the macro scenarios reproduce their "
                      "captured fingerprints")
    bench.add_argument("--quick", action="store_true",
                       help="small scenario sizes (CI smoke)")
    bench.add_argument("--check", action="store_true",
                       help="also compare each fingerprint with the "
                            "digest captured for it (bench/digests.json)")
    bench.add_argument("--scenario", action="append", default=[],
                       metavar="NAME",
                       help="run only this scenario (repeatable); "
                            "default: all")
    bench.add_argument("--jobs", "-j", type=int, default=1,
                       help="run scenarios in parallel worker processes; "
                            "the output is identical (default: 1)")
    bench.add_argument("--capture-dir", default=None, metavar="DIR",
                       help="also export each scenario's instrumented run "
                            "as TRACE_<name>.json + LOG_<name>.jsonl here")

    sub.add_parser("experiments",
                   help="regenerate paper tables/figures "
                        "(alias of python -m repro.experiments)",
                   add_help=False)
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv[:1] == ["experiments"]:
        from repro.experiments.__main__ import main as experiments_main
        return experiments_main(argv[1:])

    args = parser.parse_args(argv)
    if args.command == "describe-cluster":
        return _describe(args)
    if args.command == "bench":
        from repro.bench import main as bench_main
        return bench_main(args)
    if args.command == "report":
        return _report(args)
    if args.command == "explain":
        return _explain(args)
    if args.command == "serve":
        return _serve(args)
    return _run(args)


def _describe(args) -> int:
    if args.nodes <= 0:
        raise SystemExit(
            f"--nodes must be a positive node count, got {args.nodes}")
    spec = hyperion(args.nodes)
    node = spec.node
    print(f"cluster: {spec.n_nodes} nodes "
          f"({spec.n_nodes * node.cores} cores)")
    print(f"  node: {node.cores} cores, {node.ram_bytes / GB:.0f} GB RAM "
          f"({node.spark_mem_bytes / GB:.0f} GB Spark, "
          f"{node.ramdisk_bytes / GB:.0f} GB RAMDisk)")
    print(f"  ramdisk: {node.ramdisk_read_bw / GB:.1f}/"
          f"{node.ramdisk_write_bw / GB:.1f} GB/s r/w, "
          f"{node.ramdisk_usable_bytes / GB:.0f} GB usable")
    print(f"  ssd: {node.ssd_bytes / GB:.0f} GB, "
          f"{node.ssd_read_bw / MB:.0f}/{node.ssd_write_bw / MB:.0f} "
          f"MB/s r/w, clean pool {node.ssd_clean_pool_bytes / GB:.0f} GB")
    print(f"  page cache: {node.page_cache_bytes / GB:.0f} GB "
          f"(dirty limit {node.page_cache_dirty_bytes / GB:.0f} GB)")
    print(f"  nic: {spec.nic_bw / GB:.1f} GB/s full duplex")
    print(f"  lustre: {spec.lustre_aggregate_bw / GB:.1f} GB/s aggregate, "
          f"{spec.lustre_n_oss} OSSes, "
          f"{spec.lustre_mds_ops_per_s:.0f} MDS ops/s")
    return 0


def _memory_config(args):
    """``--mem-frac`` / ``--mem-elastic`` → a MemoryConfig (or None)."""
    if args.mem_frac is None and not args.mem_elastic:
        return None
    from repro.core.memory import MemoryConfig
    frac = args.mem_frac if args.mem_frac is not None else 1.0
    if not 0.0 < frac <= 1.0:
        raise SystemExit(
            f"--mem-frac must be in (0, 1], got {frac:g}")
    return MemoryConfig(mem_frac=frac, elastic=args.mem_elastic)


def _parse_crashes(specs: Sequence[str]) -> Optional[FaultPlan]:
    """``NODE@T`` or ``NODE@T:RESTART_T`` → a :class:`FaultPlan`.

    ``NODE@T:`` (empty restart) means the node never rejoins.  A plan
    that restarts a node before (or at) its own crash, or crashes it at
    a negative time, is contradictory and rejected here with a pointed
    message rather than left to surface as an engine error mid-run.
    """
    if not specs:
        return None
    crashes = []
    for raw in specs:
        try:
            node_part, times = raw.split("@", 1)
            at_part, _, restart_part = times.partition(":")
            node = int(node_part)
            at = float(at_part)
            restart_at = float(restart_part) if restart_part else None
        except ValueError as exc:
            raise SystemExit(
                f"bad --crash {raw!r} (expected NODE@T[:RESTART_T]): {exc}")
        if node < 0:
            raise SystemExit(
                f"bad --crash {raw!r}: node must be >= 0, got {node}")
        if at < 0:
            raise SystemExit(
                f"bad --crash {raw!r}: crash time must be >= 0, got {at:g}")
        if restart_at is not None and restart_at <= at:
            raise SystemExit(
                f"bad --crash {raw!r}: restart time {restart_at:g} must be "
                f"strictly after the crash time {at:g}")
        crashes.append(NodeCrash(at=at, node=node, restart_at=restart_at))
    return FaultPlan(tuple(crashes))


def _serve(args) -> int:
    from repro.serve import StreamServer, parse_tenants
    if args.arrival_rate <= 0:
        raise SystemExit(
            f"--arrival-rate must be > 0 jobs/s, got {args.arrival_rate}")
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    if args.base_gb <= 0:
        raise SystemExit(f"--base-gb must be > 0, got {args.base_gb}")
    if args.nodes <= 0:
        raise SystemExit(
            f"--nodes must be a positive node count, got {args.nodes}")
    if args.handoff_delay < 0:
        raise SystemExit(
            f"--handoff-delay must be >= 0, got {args.handoff_delay}")
    try:
        tenants = parse_tenants(
            [t for t in args.tenants.split(",") if t])
    except ValueError as exc:
        raise SystemExit(f"bad --tenants: {exc}")
    telemetry = None
    if args.explain:
        from repro.obs.telemetry import Telemetry
        telemetry = Telemetry()
    server = StreamServer(
        tenants, arrival_rate=args.arrival_rate, n_jobs=args.jobs,
        policy=args.policy, base_gb=args.base_gb, seed=args.seed,
        moving_delay=args.handoff_delay,
        cluster_spec=hyperion(args.nodes),
        options=EngineOptions(elb=args.elb, cad=args.cad,
                              memory=_memory_config(args)),
        telemetry=telemetry)
    result = server.run()
    print("\n".join(result.summary_lines()))
    if telemetry is not None:
        from repro.obs.audit import audit_lines, iter_audit
        telemetry.finish()
        print()
        print("\n".join(_tenant_attribution_lines(result)))
        print("\n".join(audit_lines(iter_audit(telemetry.events))))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(result.to_json())
        print(f"wrote stream result: {args.json}")
    return 0


def _tenant_attribution_lines(result) -> list:
    """Per-tenant sojourn decomposition: where each tenant's latency
    went (queue wait vs. service), and who is slowed down the most."""
    lines = ["tenant attribution (latency = wait + service):"]
    worst = None
    for tenant in result.tenants():
        outs = [o for o in result.outcomes if o.tenant == tenant]
        n = len(outs)
        wait = sum(o.first_grant_at - o.arrived_at for o in outs) / n
        service = sum(o.service for o in outs) / n
        slowdown = sum(o.slowdown for o in outs) / n
        lines.append(f"  {tenant:<10s} jobs={n:<4d} "
                     f"wait_mean={wait:9.3f}s "
                     f"service_mean={service:9.3f}s "
                     f"slowdown_mean={slowdown:6.2f}x")
        if worst is None or slowdown > worst[1]:
            worst = (tenant, slowdown, wait, service)
    if worst is not None:
        tenant, slowdown, wait, service = worst
        total = wait + service
        share = 100.0 * wait / total if total > 0 else 0.0
        lines.append(f"slowest tenant: {tenant} "
                     f"(slowdown {slowdown:.2f}x; {share:.1f}% of its "
                     f"sojourn spent queueing for slots)")
    return lines


def _run(args) -> int:
    spec, options = _job_config(args)
    telemetry = None
    if args.trace_out or args.metrics_out:
        from repro.obs.telemetry import Telemetry
        if args.probe_period <= 0:
            raise SystemExit(
                f"--probe-period must be positive, got {args.probe_period}")
        telemetry = Telemetry(probe_period=args.probe_period)
    result = run_job(spec, cluster_spec=hyperion(args.nodes),
                     options=options,
                     speed_model=LognormalSpeed(sigma=args.speed_sigma),
                     telemetry=telemetry)
    print(result.summary())
    if args.gantt:
        print()
        print(gantt(result))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(to_csv(result))
        print(f"wrote task trace: {args.csv}")
    if args.json:
        with open(args.json, "w") as fh:
            write_json(result, fh)
        print(f"wrote job metrics: {args.json}")
    if args.trace_out:
        from repro.obs.export import write_chrome_trace
        write_chrome_trace(args.trace_out, telemetry)
        print(f"wrote Chrome trace: {args.trace_out} "
              f"(open in https://ui.perfetto.dev)")
    if args.metrics_out:
        from repro.obs.export import write_runlog
        from repro.obs.telemetry import traced_count
        write_runlog(args.metrics_out, telemetry)
        print(f"wrote run log: {args.metrics_out} "
              f"({traced_count(telemetry.events)} events, "
              f"{telemetry.probe.samples_taken} samples)")
    return 0


def _load_runlog(path: str):
    """The run log at ``path``; a log the reader rejects (or cannot
    open) ends the command with its one-line message."""
    from repro.obs.runlog import load_runlog
    try:
        return load_runlog(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc))


def _report(args) -> int:
    from repro.analysis.timeline import phase_report
    print(phase_report(_load_runlog(args.runlog)))
    return 0


def _explain(args) -> int:
    from repro.obs.audit import audit_lines, iter_audit
    from repro.obs.critpath import explain_lines
    from repro.obs.spans import SpanRecorder
    if args.segments < 1:
        raise SystemExit(
            f"--segments must be >= 1, got {args.segments}")
    if args.runlog is not None:
        # Post-mortem mode: everything comes from the structured run log.
        if args.json:
            raise SystemExit(
                "--json needs a fresh simulation; drop the RUNLOG "
                "argument to run one")
        log = _load_runlog(args.runlog)
        rec = SpanRecorder.from_runlog(log)
        meta, events = log.meta, log.events
    else:
        # Run mode: simulate the job under telemetry.  The trace sink is
        # observation-only, so the result (and `--json`) is
        # byte-identical to a telemetry-off `repro run` (CI asserts it).
        from repro.obs.telemetry import Telemetry
        spec, options = _job_config(args)
        if args.probe_period <= 0:
            raise SystemExit(
                f"--probe-period must be positive, got {args.probe_period}")
        telemetry = Telemetry(probe_period=args.probe_period)
        result = run_job(spec, cluster_spec=hyperion(args.nodes),
                         options=options,
                         speed_model=LognormalSpeed(sigma=args.speed_sigma),
                         telemetry=telemetry)
        # Export before the span fold, so that the two never hold their
        # working memory at the same time.
        if args.json:
            with open(args.json, "w") as fh:
                write_json(result, fh)
        rec = SpanRecorder.from_telemetry(telemetry)
        meta, events = telemetry.meta, telemetry.events
    lines = explain_lines(rec, meta, max_segments=args.segments)
    lines.append("")
    lines.extend(audit_lines(iter_audit(events)))
    print("\n".join(lines))
    if args.runlog is None and args.json:
        print(f"wrote job metrics: {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
