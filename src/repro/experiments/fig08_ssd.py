"""Fig 8 — Leveraging SSDs for intermediate data.

GroupBy with intermediate data on the node-local SSD (ext4, behind the
OS page cache) versus the RAMDisk, sweeping the paper's 100 GB – 1.5 TB
range.  Paper findings:

* (a) SSD ≈ RAMDisk up to ~600 GB (page-cache absorption); RAMDisk wins
  clearly beyond ~700 GB; the SSD supports larger datasets than the
  RAMDisk can hold at all.
* (b) Dissection on SSD: shuffling (network-bound) dominates ≤ 600 GB;
  storing and shuffling contribute equally at 700–900 GB; both drop
  sharply beyond 900 GB as SSD writes degrade (GC) — and reads become
  SSD-bound.
* (c) The spread between the fastest and slowest ShuffleMapTask grows to
  ~18× at 1.5 TB.
* (d) Task execution time vs launch order shows three eras: fast (write
  buffer + clean blocks), degraded (GC activates), severe (deep queues
  compound the interference).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.cluster.variability import LognormalSpeed
from repro.core.engine import EngineOptions, run_job
from repro.experiments.common import (GB, HDFS_RAMDISK_MAX_BYTES, TB,
                                      Scale, SMALL, ExperimentResult)
from repro.experiments.jobcell import job_cell, median_run
from repro.experiments.runner import Cell, SweepRunner, run_sweep
from repro.storage.device import DeviceFullError
from repro.workloads import groupby_spec

__all__ = ["run", "run_task_trace", "cells", "assemble",
           "PAPER_TASK_SPREAD_1_5TB"]

PAPER_TASK_SPREAD_1_5TB = 18.0

PAPER_DATA_SIZES = (100 * GB, 300 * GB, 600 * GB, 800 * GB,
                    1024 * GB, 1.5 * TB)

STORES = ("ramdisk", "ssd")


def _spec(store: str, data_bytes: float, scale: Scale):
    return groupby_spec(data_bytes, shuffle_store=store,
                        n_reducers=scale.n_nodes * 16)


def _job(store: str, paper_bytes: float, scale: Scale, seed: int) -> Cell:
    return job_cell(_spec(store, scale.bytes_of(paper_bytes), scale), scale,
                    EngineOptions(seed=seed), LognormalSpeed())


def _charted(store: str, paper_bytes: float) -> bool:
    """The paper's RAMDisk curve ends at ~1.2 TB (§IV-B)."""
    return store != "ramdisk" or paper_bytes <= HDFS_RAMDISK_MAX_BYTES


def cells(scale: Scale = SMALL, seeds: Sequence[int] = (0,),
          data_sizes: Sequence[float] = PAPER_DATA_SIZES) -> List[Cell]:
    """One job cell per (store, data size, seed) on the paper's curves;
    the RAMDisk jobs are fig07's HDFS jobs, and the SSD jobs from 600 GB
    on are fig14's stock-dispatch jobs."""
    return [_job(store, paper_bytes, scale, seed)
            for paper_bytes in data_sizes
            for store in STORES if _charted(store, paper_bytes)
            for seed in seeds]


def assemble(results: Mapping[Cell, Dict[str, object]],
             scale: Scale = SMALL, seeds: Sequence[int] = (0,),
             data_sizes: Sequence[float] = PAPER_DATA_SIZES
             ) -> ExperimentResult:
    result = ExperimentResult(
        "fig08", "GroupBy intermediate data on SSD vs RAMDisk",
        headers=["data_GB(paper)", "ramdisk_s", "ssd_s", "ssd/ramdisk",
                 "ssd_compute_s", "ssd_store_s", "ssd_fetch_s",
                 "ssd_task_spread"])
    for paper_bytes in data_sizes:
        ram, ssd = (
            median_run([results[_job(store, paper_bytes, scale, s)]
                        for s in seeds])
            if _charted(store, paper_bytes) else None
            for store in STORES)
        result.add(
            paper_bytes / GB,
            ram["job_time"] if ram else float("nan"),
            ssd["job_time"] if ssd else float("nan"),
            (ssd["job_time"] / ram["job_time"]) if ram and ssd
            else float("nan"),
            ssd["compute_time"] if ssd else float("nan"),
            ssd["store_time"] if ssd else float("nan"),
            ssd["fetch_time"] if ssd else float("nan"),
            ssd["task_spread"] if ssd else float("nan"),
        )
    result.note("paper: SSD ~= RAMDisk <= 600 GB (page cache); RAMDisk "
                "wins > 700 GB; storing collapses > 900 GB (SSD GC); "
                f"task spread up to {PAPER_TASK_SPREAD_1_5TB}x at 1.5 TB")
    result.note(f"scale={scale.name}; sizes are paper labels at "
                f"{scale.data_factor:.2f}x volume")
    return result


def run(scale: Scale = SMALL, seeds: Sequence[int] = (0,),
        data_sizes: Sequence[float] = PAPER_DATA_SIZES,
        runner: Optional[SweepRunner] = None) -> ExperimentResult:
    return run_sweep(cells, assemble, runner, scale=scale, seeds=seeds,
                     data_sizes=data_sizes)


def run_task_trace(scale: Scale = SMALL, seed: int = 0,
                   paper_bytes: float = 1.5 * TB) -> ExperimentResult:
    """Fig 8(d): ShuffleMapTask execution time by launch order."""
    result = ExperimentResult(
        "fig08d", "ShuffleMapTask execution time by launch order (SSD)",
        headers=["launch_index", "duration_s"])
    try:
        res = run_job(_spec("ssd", scale.bytes_of(paper_bytes), scale),
                      cluster_spec=scale.cluster(),
                      options=EngineOptions(seed=seed),
                      speed_model=LognormalSpeed())
    except DeviceFullError:
        result.note("SSD too small at this scale")
        return result
    ordered = res.phases["store"].by_launch_order()
    for i, rec in enumerate(ordered):
        result.add(i, rec.duration)
    # Era summary: paper shows fast -> degraded -> severe.
    d = np.array([r.duration for r in ordered])
    third = max(1, len(d) // 3)
    result.extra["era_means"] = [float(d[:third].mean()),
                                 float(d[third:2 * third].mean()),
                                 float(d[2 * third:].mean())]
    result.note(f"era means (fast/degraded/severe): "
                f"{result.extra['era_means']}")
    return result


def main() -> None:  # pragma: no cover
    print(run().render())
    print()
    print(run_task_trace().render())


if __name__ == "__main__":  # pragma: no cover
    main()
