"""Fig 13 — Enhanced Load Balancer under storage and network bottlenecks.

GroupBy with per-node speed variation so the stock scheduler piles
intermediate data onto fast nodes (Fig 12); ELB caps any node at 125 % of
the cluster average and routes the rest to lightly loaded nodes.

* **Storage bottleneck** (Fig 13(a)): intermediate data on the SSDs.
  Paper: Spark and ELB comparable ≤ 900 GB; ELB wins ~26 % on job time
  between 1 TB and 1.5 TB (staging/storing phase up to 2.2× faster),
  computation phases unchanged.
* **Network bottleneck** (Fig 13(b)): fetch request size shrunk from
  1 GB to 128 KB so many more round trips carry the same data.  Paper:
  ELB ~14.8 % better on average, shuffle phase ~29.1 % faster over
  400 GB–1.2 TB; the imbalance hurts even small datasets (17.5 % at
  400 GB).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.stats import improvement
from repro.cluster.variability import LognormalSpeed
from repro.config import SparkConf
from repro.core.engine import EngineOptions
from repro.experiments.common import (GB, TB, Scale, SMALL,
                                      ExperimentResult)
from repro.experiments.jobcell import job_cell, median_run
from repro.experiments.runner import Cell, SweepRunner, run_sweep
from repro.workloads import groupby_spec

__all__ = ["run", "cells", "assemble",
           "PAPER_STORAGE_GAIN", "PAPER_NETWORK_SHUFFLE_GAIN"]

PAPER_STORAGE_GAIN = 26.0          # % job time, 1-1.5 TB, SSD bottleneck
PAPER_NETWORK_SHUFFLE_GAIN = 29.1  # % shuffle time, network bottleneck

STORAGE_SIZES = (600 * GB, 1024 * GB, 1.5 * TB)
NETWORK_SIZES = (400 * GB, 800 * GB, 1.2 * TB)
KB = 1024.0


def _job(scenario: str, paper_bytes: float, elb: bool, scale: Scale,
         seed: int) -> Cell:
    data = scale.bytes_of(paper_bytes)
    if scenario == "storage":
        spec = groupby_spec(data, shuffle_store="ssd",
                            n_reducers=scale.n_nodes * 16)
        conf = SparkConf()
    else:
        spec = groupby_spec(data, shuffle_store="ramdisk",
                            n_reducers=scale.n_nodes * 16)
        # The paper narrows the network by shrinking FetchRequests.
        conf = SparkConf(fetch_request_bytes=128 * KB)
    options = EngineOptions(conf=conf, elb=elb, seed=seed)
    # sigma is chosen so the max/mean intermediate-data imbalance at this
    # node count matches the 100-node tail the paper measured in Fig 12
    # (~1.5x): small clusters need a wider per-node draw to reproduce the
    # same extreme-order statistics.  The network scenario is the more
    # tail-sensitive one (the hot node's NIC is the critical path), so it
    # uses the wider draw.
    if scenario == "storage":
        speed_model = LognormalSpeed(sigma=0.28)
    else:
        speed_model = LognormalSpeed(sigma=0.45, low=0.4, high=2.5)
    return job_cell(spec, scale, options, speed_model)


def cells(scale: Scale = SMALL, seeds: Sequence[int] = (0,),
          storage_sizes: Sequence[float] = STORAGE_SIZES,
          network_sizes: Sequence[float] = NETWORK_SIZES) -> List[Cell]:
    """One job cell per (scenario, data size, elb on/off, seed)."""
    return [_job(scenario, paper_bytes, elb, scale, seed)
            for scenario, sizes in (("storage", storage_sizes),
                                    ("network", network_sizes))
            for paper_bytes in sizes
            for elb in (False, True)
            for seed in seeds]


def assemble(results: Mapping[Cell, Dict[str, float]],
             scale: Scale = SMALL, seeds: Sequence[int] = (0,),
             storage_sizes: Sequence[float] = STORAGE_SIZES,
             network_sizes: Sequence[float] = NETWORK_SIZES
             ) -> ExperimentResult:
    result = ExperimentResult(
        "fig13", "ELB vs stock Spark under storage / network bottlenecks",
        headers=["scenario", "data_GB(paper)", "spark_s", "elb_s",
                 "job_gain_%", "spark_store_s", "elb_store_s",
                 "spark_fetch_s", "elb_fetch_s"])
    for scenario, sizes in (("storage", storage_sizes),
                            ("network", network_sizes)):
        for paper_bytes in sizes:
            spark, elb = (
                median_run([results[_job(scenario, paper_bytes, flag,
                                         scale, s)] for s in seeds])
                for flag in (False, True))
            result.add(scenario, paper_bytes / GB,
                       spark["job_time"], elb["job_time"],
                       improvement(spark["job_time"], elb["job_time"]),
                       spark["store_time"], elb["store_time"],
                       spark["fetch_time"], elb["fetch_time"])
    result.note(f"paper: storage ~{PAPER_STORAGE_GAIN}% job gain at "
                f"1-1.5TB; network shuffle ~{PAPER_NETWORK_SHUFFLE_GAIN}% "
                "faster")
    result.note(f"scale={scale.name}")
    return result


def run(scale: Scale = SMALL, seeds: Sequence[int] = (0,),
        storage_sizes: Sequence[float] = STORAGE_SIZES,
        network_sizes: Sequence[float] = NETWORK_SIZES,
        runner: Optional[SweepRunner] = None) -> ExperimentResult:
    return run_sweep(cells, assemble, runner, scale=scale, seeds=seeds,
                     storage_sizes=storage_sizes, network_sizes=network_sizes)


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
