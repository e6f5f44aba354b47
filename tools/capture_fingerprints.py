"""Capture reference job fingerprints for the byte-identity regressions.

Two case lists, one data file each, one directory of CLI outputs, and
the bench digests:

* ``CASES`` → ``tests/data/fingerprints_head.json``:
  ``tests/core/test_mechanism_identity.py`` asserts that runs with both
  shuffle-volume mechanisms disabled reproduce these values byte-for-byte.
* ``FETCH_PATH_CASES`` → ``tests/data/fingerprints_fetch_paths.json``:
  ``tests/core/test_fetch_path_identity.py`` pins the shuffle-fetch paths
  the first list does not reach (recovery gates and redirects, orphaned
  reducer bodies, speculation, attempt failures, per-round shuffles,
  spill around the fetch body, Lustre-local with ELB).
* ``EXPLAIN_CASES`` → ``tests/data/explain_golden/``: the stdout of
  ``repro explain`` (simulated and post mortem), ``repro report`` and
  ``repro serve --explain``, which ``tests/obs/test_explain_identity.py``
  compares byte for byte.
* ``bench`` → ``src/repro/bench/digests.json``: every
  :data:`~repro.bench.scenarios.SCENARIOS` entry's fingerprint digest at
  ``--quick`` and at full scale, which ``repro bench --check`` compares
  with as its ``golden`` verdict.
* ``tables`` → ``tests/data/experiment_tables.json``: the assembled
  table (title, headers, rows, notes) of every experiment that declares
  shared job cells, at the validate batch's scale and seeds, plus the
  shuffle-volume sweep at the two-node scale its tests run;
  ``tests/experiments/test_runner.py`` and
  ``tests/experiments/test_shuffle_volume.py`` compare them exactly.

Run on a known-good tree to (re)generate one target:

    PYTHONPATH=src python tools/capture_fingerprints.py            # head
    PYTHONPATH=src python tools/capture_fingerprints.py fetch-paths
    PYTHONPATH=src python tools/capture_fingerprints.py explain
    PYTHONPATH=src python tools/capture_fingerprints.py bench
    PYTHONPATH=src python tools/capture_fingerprints.py tables
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

from repro.cluster.spec import hyperion
from repro.core.engine import EngineOptions, run_job
from repro.core.faults import FaultPlan, ShuffleOutputLoss
from repro.core.memory import MemoryConfig
from repro.workloads import (grep_spec, groupby_spec, kmeans_spec,
                             logistic_regression_spec, wordcount_spec)

GB = 1024.0 ** 3

#: (label, spec factory, options) — one entry per pinned configuration.
CASES = [
    ("groupby-ssd-stock",
     lambda: groupby_spec(4 * GB, shuffle_store="ssd"),
     lambda: EngineOptions(seed=3)),
    ("groupby-ramdisk-elb",
     lambda: groupby_spec(4 * GB, shuffle_store="ramdisk"),
     lambda: EngineOptions(seed=3, elb=True)),
    ("groupby-ssd-cad",
     lambda: groupby_spec(4 * GB, shuffle_store="ssd"),
     lambda: EngineOptions(seed=3, cad=True)),
    ("groupby-lustre-local",
     lambda: groupby_spec(2 * GB, shuffle_store="lustre",
                          fetch_mode="lustre-local"),
     lambda: EngineOptions(seed=3)),
    ("groupby-lustre-shared",
     lambda: groupby_spec(2 * GB, shuffle_store="lustre",
                          fetch_mode="lustre-shared"),
     lambda: EngineOptions(seed=3)),
    ("wordcount-hdfs",
     lambda: wordcount_spec(4 * GB),
     lambda: EngineOptions(seed=7)),
    ("grep-hdfs",
     lambda: grep_spec(4 * GB),
     lambda: EngineOptions(seed=7, delay_scheduling=True)),
    ("kmeans-cached",
     lambda: kmeans_spec(2 * GB, iterations=3),
     lambda: EngineOptions(seed=11)),
    ("logreg-cached",
     lambda: logistic_regression_spec(1 * GB, iterations=3),
     lambda: EngineOptions(seed=11)),
]

#: Shuffle-fetch paths outside ``CASES``, all GroupBy on ``hyperion(4)``.
#: At seed 11 the 2 GB SSD job fetches over about [1.070, 1.312) s
#: (``tests/integration/test_recovery.py``), which the two fault times
#: below aim into.
FETCH_PATH_CASES = [
    # The stored copy of node 2's output is lost mid-fetch: its readers
    # park on the availability gate and resume at the re-stored host.
    ("fetch-shuffle-output-loss",
     lambda: groupby_spec(2 * GB, shuffle_store="ssd"),
     lambda: EngineOptions(seed=11, fault_plan=FaultPlan(
         (ShuffleOutputLoss(at=1.1, node=2),)))),
    # A crash inside the fetch window interrupts the reducer attempts on
    # node 1; their bodies keep fetching as orphans.
    ("fetch-crash-orphans",
     lambda: groupby_spec(2 * GB, shuffle_store="ssd"),
     lambda: EngineOptions(seed=11, fault_plan=FaultPlan.single_crash(
         node=1, at=1.2, restart_at=60.0))),
    # Noisy reduce compute makes fetch stragglers: backup copies fetch
    # every slice again, and the losers' bodies run on as orphans.
    ("fetch-speculation",
     lambda: groupby_spec(4 * GB, shuffle_store="ssd",
                          reduce_rate=0.3 * GB).with_(
         compute_noise_sigma=0.8),
     lambda: EngineOptions(seed=3, speculation=True)),
    ("fetch-task-failures",
     lambda: groupby_spec(4 * GB, shuffle_store="ssd"),
     lambda: EngineOptions(seed=3, task_failure_rate=0.2)),
    ("fetch-combiner-partition-stable",
     lambda: groupby_spec(4 * GB, shuffle_store="ssd",
                          combiner=True).with_(
         iterations=3, partition_stable=True),
     lambda: EngineOptions(seed=3)),
    ("fetch-elastic-spill",
     lambda: groupby_spec(4 * GB, shuffle_store="ssd"),
     lambda: EngineOptions(seed=5, memory=MemoryConfig(
         mem_frac=0.4, elastic=True))),
    ("fetch-lustre-local-elb",
     lambda: groupby_spec(2 * GB, shuffle_store="lustre",
                          fetch_mode="lustre-local"),
     lambda: EngineOptions(seed=3, elb=True)),
]

#: Run logs the post-mortem cases read: name -> ``repro run`` argv
#: (``--metrics-out`` is appended).  ``trace`` is CI trace-smoke's run:
#: CAD and a mid-job crash; ``pressure`` adds a tight managed heap, so
#: its log carries CAD throttles and memory declines.
EXPLAIN_RUNLOGS = {
    "trace": ["run", "--workload", "groupby", "--data-gb", "8",
              "--nodes", "4", "--store", "ssd", "--cad", "--seed", "11",
              "--crash", "1@1.0:3.0", "--probe-period", "0.1"],
    "pressure": ["run", "--workload", "groupby", "--data-gb", "24",
                 "--nodes", "2", "--store", "ssd", "--cad",
                 "--mem-frac", "0.4", "--seed", "0"],
}

#: (golden file, CLI argv); ``{trace}`` / ``{pressure}`` name the run
#: logs above.
EXPLAIN_CASES = [
    # CI explain-smoke's job, simulated by `repro explain` itself.
    ("explain_job.txt",
     ["explain", "--workload", "groupby", "--data-gb", "8", "--nodes",
      "4", "--store", "ssd", "--elb", "--cad", "--seed", "11"]),
    ("explain_trace_runlog.txt", ["explain", "{trace}"]),
    ("report_trace_runlog.txt", ["report", "{trace}"]),
    # CI explain-smoke's serve stream.
    ("serve_explain.txt",
     ["serve", "--nodes", "4", "--jobs", "8", "--base-gb", "1",
      "--arrival-rate", "0.5", "--policy", "fair", "--seed", "7",
      "--explain"]),
    # Throttle waits, memory declines and CAD steps in the audit.
    ("explain_pressure.txt",
     ["explain", "--workload", "groupby", "--data-gb", "24", "--nodes",
      "2", "--store", "ssd", "--cad", "--mem-frac", "0.4", "--seed", "0",
      "--segments", "12"]),
    ("explain_pressure_runlog.txt",
     ["explain", "{pressure}", "--segments", "12"]),
    ("report_pressure_runlog.txt", ["report", "{pressure}"]),
    # Memory waits on the critical path, ELB vetoes, delay passes.
    ("explain_elastic.txt",
     ["explain", "--workload", "groupby", "--data-gb", "16", "--nodes",
      "4", "--store", "ssd", "--elb", "--cad", "--mem-frac", "0.5",
      "--mem-elastic", "--delay-scheduling", "--seed", "3",
      "--segments", "8"]),
    # Every way an attempt is abandoned: lost speculation races, attempt
    # failures and a node crash, so the trace order of the interrupt
    # bookkeeping is pinned, not only the results.
    ("explain_abandon.txt",
     ["explain", "--workload", "groupby", "--data-gb", "32", "--nodes",
      "4", "--store", "ssd", "--cad", "--speculation", "--failure-rate",
      "0.05", "--speed-sigma", "0.5", "--seed", "11", "--crash",
      "1@1.0:3.0"]),
]

EXPLAIN_DIR = "explain_golden"

#: Case list and data file per capture target.
TARGETS = {
    "head": (CASES, "fingerprints_head.json"),
    "fetch-paths": (FETCH_PATH_CASES, "fingerprints_fetch_paths.json"),
}

N_NODES = 4


def fingerprint(result) -> dict:
    return {
        "job_time": result.job_time,
        "phases": {name: [ph.start, ph.end, len(ph.tasks)]
                   for name, ph in result.phases.items()},
        "tasks": sorted(
            [t.phase, t.task_id, t.node, t.queued_at, t.started_at,
             t.finished_at, t.bytes] for t in result.all_tasks()),
        "node_intermediate": [float(x) for x in result.node_intermediate],
        "node_task_counts": [int(x) for x in result.node_task_counts],
    }


def capture(cases=CASES) -> dict:
    out = {}
    for label, spec_fn, opt_fn in cases:
        res = run_job(spec_fn(), cluster_spec=hyperion(N_NODES),
                      options=opt_fn())
        out[label] = fingerprint(res)
        print(f"{label}: job_time={res.job_time:.6f}")
    return out


def _cli_stdout(argv) -> str:
    from repro.cli import main as cli_main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {code}")
    return buf.getvalue()


def explain_outputs(workdir: str) -> dict:
    """Golden file name -> stdout of its ``EXPLAIN_CASES`` command; the
    run logs are written into ``workdir``."""
    logs = {}
    for name, argv in EXPLAIN_RUNLOGS.items():
        logs[name] = os.path.join(workdir, f"{name}.jsonl")
        _cli_stdout(argv + ["--metrics-out", logs[name]])
    return {name: _cli_stdout([a.format(**logs) for a in argv])
            for name, argv in EXPLAIN_CASES}


def bench_digests() -> dict:
    """Scale (``quick``/``full``) -> scenario -> fingerprint digest, the
    values ``repro bench`` prints in its ``fingerprint`` column."""
    from repro.bench.harness import fingerprint_digest
    from repro.bench.scenarios import SCENARIOS, run_scenario
    out = {}
    for scale, quick in (("quick", True), ("full", False)):
        out[scale] = {}
        for name in SCENARIOS:
            fp = run_scenario(name, quick=quick).fingerprint
            out[scale][name] = fingerprint_digest(fp)
            print(f"{scale} {name}: {out[scale][name]}")
    return out


#: Experiments whose assembled tables ``tables`` pins: the validate
#: batch's job-cell experiments at (SMALL, seed 0), and shuffle-volume
#: at the scale of its acceptance tests.
TABLE_EXPERIMENTS = ("fig05", "fig07", "fig08", "fig09", "fig13", "fig14")
TABLES_FILE = "experiment_tables.json"


def table_json(result) -> dict:
    """The pinned view of an ``ExperimentResult``: everything it renders."""
    return {"title": result.title, "headers": list(result.headers),
            "rows": [list(row) for row in result.rows],
            "notes": list(result.notes)}


def experiment_tables() -> dict:
    from repro.experiments import fig_shuffle_volume, registry
    from repro.experiments.common import SMALL, Scale
    from repro.experiments.runner import SweepRunner
    seeds = (0,)
    batch = [cell for exp_id in TABLE_EXPERIMENTS
             for cell in registry.module(exp_id).cells(scale=SMALL,
                                                       seeds=seeds)]
    results = SweepRunner().run_cells(batch)
    out = {exp_id: table_json(registry.module(exp_id).assemble(
        results, scale=SMALL, seeds=seeds)) for exp_id in TABLE_EXPERIMENTS}
    out["shuffle-volume@tiny"] = table_json(fig_shuffle_volume.run(
        scale=Scale("tiny", n_nodes=2), seeds=seeds))
    return out


def _data_path(name: str) -> str:
    return os.path.normpath(os.path.join(
        os.path.dirname(__file__), "..", "tests", "data", name))


def main(argv=None) -> None:
    args = sys.argv[1:] if argv is None else argv
    target = args[0] if args else "head"
    if target == "explain":
        out_dir = _data_path(EXPLAIN_DIR)
        os.makedirs(out_dir, exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            outputs = explain_outputs(tmp)
        for name, text in outputs.items():
            with open(os.path.join(out_dir, name), "w") as fh:
                fh.write(text)
        print(f"wrote {len(outputs)} files to {out_dir}")
        return
    if target == "bench":
        from repro.bench.harness import GOLDEN_PATH
        digests = bench_digests()
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {GOLDEN_PATH}")
        return
    if target == "tables":
        path = _data_path(TABLES_FILE)
        with open(path, "w") as fh:
            json.dump(experiment_tables(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
        return
    if target not in TARGETS:
        raise SystemExit(f"unknown target {target!r}; choose from "
                         f"{sorted(TARGETS) + ['bench', 'explain', 'tables']}")
    cases, name = TARGETS[target]
    path = _data_path(name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(capture(cases), fh, indent=1, sort_keys=True)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
