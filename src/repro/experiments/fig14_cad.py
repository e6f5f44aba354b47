"""Fig 14 — Congestion-Aware task Dispatching on SSD-backed shuffle.

GroupBy with intermediate data on the SSDs, stock dispatch vs CAD.
Paper: CAD accelerates the storing phase once the data size exceeds
~600 GB — by up to 41.2 % over 700 GB–1.5 TB — without hurting the other
phases; job execution time improves ~19.8 % on average.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.stats import improvement
from repro.cluster.variability import LognormalSpeed
from repro.core.engine import EngineOptions
from repro.experiments.common import (GB, TB, Scale, SMALL,
                                      ExperimentResult)
from repro.experiments.jobcell import job_cell, median_run
from repro.experiments.runner import Cell, SweepRunner, run_sweep
from repro.workloads import groupby_spec

__all__ = ["run", "cells", "assemble",
           "PAPER_STORE_GAIN", "PAPER_JOB_GAIN"]

PAPER_STORE_GAIN = 41.2   # % storing-phase gain, 700 GB - 1.5 TB
PAPER_JOB_GAIN = 19.8     # % average job-time gain

PAPER_DATA_SIZES = (400 * GB, 600 * GB, 800 * GB, 1024 * GB, 1.5 * TB)


def _job(paper_bytes: float, cad: bool, scale: Scale, seed: int) -> Cell:
    spec = groupby_spec(scale.bytes_of(paper_bytes), shuffle_store="ssd",
                        n_reducers=scale.n_nodes * 16)
    return job_cell(spec, scale, EngineOptions(cad=cad, seed=seed),
                    LognormalSpeed())


def cells(scale: Scale = SMALL, seeds: Sequence[int] = (0,),
          data_sizes: Sequence[float] = PAPER_DATA_SIZES) -> List[Cell]:
    """One job cell per (data size, cad on/off, seed); the stock-dispatch
    jobs from 600 GB on are fig08's SSD jobs."""
    return [_job(paper_bytes, cad, scale, seed)
            for paper_bytes in data_sizes
            for cad in (False, True)
            for seed in seeds]


def assemble(results: Mapping[Cell, Dict[str, float]],
             scale: Scale = SMALL, seeds: Sequence[int] = (0,),
             data_sizes: Sequence[float] = PAPER_DATA_SIZES
             ) -> ExperimentResult:
    result = ExperimentResult(
        "fig14", "CAD vs stock Spark dispatch (SSD intermediate data)",
        headers=["data_GB(paper)", "spark_s", "cad_s", "job_gain_%",
                 "spark_store_s", "cad_store_s", "store_gain_%",
                 "spark_fetch_s", "cad_fetch_s"])
    for paper_bytes in data_sizes:
        spark, cad = (
            median_run([results[_job(paper_bytes, flag, scale, s)]
                        for s in seeds])
            for flag in (False, True))
        result.add(paper_bytes / GB, spark["job_time"], cad["job_time"],
                   improvement(spark["job_time"], cad["job_time"]),
                   spark["store_time"], cad["store_time"],
                   improvement(spark["store_time"], cad["store_time"]),
                   spark["fetch_time"], cad["fetch_time"])
    result.note(f"paper: storing phase up to -{PAPER_STORE_GAIN}% beyond "
                f"700GB; job time -{PAPER_JOB_GAIN}% on average; no effect "
                "below ~600GB")
    result.note(f"scale={scale.name}")
    return result


def run(scale: Scale = SMALL, seeds: Sequence[int] = (0,),
        data_sizes: Sequence[float] = PAPER_DATA_SIZES,
        runner: Optional[SweepRunner] = None) -> ExperimentResult:
    return run_sweep(cells, assemble, runner, scale=scale, seeds=seeds,
                     data_sizes=data_sizes)


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
