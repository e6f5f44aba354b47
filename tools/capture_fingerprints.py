"""Capture reference job fingerprints for the byte-identity regressions.

Two case lists, one data file each:

* ``CASES`` → ``tests/data/fingerprints_head.json``:
  ``tests/core/test_mechanism_identity.py`` asserts that runs with both
  shuffle-volume mechanisms disabled reproduce these values byte-for-byte.
* ``FETCH_PATH_CASES`` → ``tests/data/fingerprints_fetch_paths.json``:
  ``tests/core/test_fetch_path_identity.py`` pins the shuffle-fetch paths
  the first list does not reach (recovery gates and redirects, orphaned
  reducer bodies, speculation, attempt failures, per-round shuffles,
  spill around the fetch body, Lustre-local with ELB).

Run on a known-good tree to (re)generate one file:

    PYTHONPATH=src python tools/capture_fingerprints.py            # head
    PYTHONPATH=src python tools/capture_fingerprints.py fetch-paths
"""

from __future__ import annotations

import json
import os
import sys

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


def main(argv=None) -> None:
    args = sys.argv[1:] if argv is None else argv
    target = args[0] if args else "head"
    if target not in TARGETS:
        raise SystemExit(f"unknown target {target!r}; "
                         f"choose from {sorted(TARGETS)}")
    cases, name = TARGETS[target]
    path = os.path.join(os.path.dirname(__file__), "..",
                        "tests", "data", name)
    path = os.path.normpath(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(capture(cases), fh, indent=1, sort_keys=True)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
