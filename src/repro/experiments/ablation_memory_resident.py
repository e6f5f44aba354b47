"""Ablation — what "memory-resident" buys (paper §II-C).

The paper's premise is that Spark's memory-resident RDDs make iterative
analytics fast: intermediate results stay in distributed memory across
iterations instead of being re-read from the filesystem.  This ablation
runs Logistic Regression with RDD caching on and off, against both
storage architectures, quantifying the feature the whole paper builds
on — and showing it is *more* valuable on the compute-centric (Lustre)
configuration, where re-reading input costs shared-filesystem bandwidth
every iteration.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.stats import median, speedup
from repro.cluster.variability import LognormalSpeed
from repro.core.engine import EngineOptions, run_job
from repro.experiments.common import (GB, MB, Scale, SMALL,
                                      ExperimentResult)
from repro.experiments.runner import (Cell, SweepRunner, cell_scale,
                                      make_cell, run_sweep)
from repro.workloads import logistic_regression_spec

__all__ = ["run", "cells", "run_cell", "assemble"]

PAPER_INPUT_BYTES = 200 * GB


def _job_time(source: str, cached: bool, iterations: int, scale: Scale,
              seed: int) -> float:
    # A lighter model than the paper's LR (150 MB/s/core instead of
    # 20 MB/s/core): with heavy per-byte compute the input re-read hides
    # behind the math and caching is free either way; a data-hungry model
    # is where memory residency actually pays.
    spec = logistic_regression_spec(
        input_bytes=scale.bytes_of(PAPER_INPUT_BYTES),
        split_bytes=64 * MB, input_source=source,
        compute_rate=150 * MB,
        iterations=iterations).with_(cache_input=cached)
    res = run_job(spec, cluster_spec=scale.cluster(),
                  options=EngineOptions(seed=seed),
                  speed_model=LognormalSpeed(sigma=0.14))
    return res.job_time


def cells(scale: Scale = SMALL, seeds: Sequence[int] = (0,),
          iterations: int = 3) -> List[Cell]:
    """One cell per (input source, caching on/off, seed) LR job."""
    return [make_cell("ablation-mem", "job", scale, seed, source=source,
                      cached=cached, iterations=int(iterations))
            for source in ("hdfs", "lustre")
            for cached in (True, False)
            for seed in seeds]


def run_cell(cell: Cell) -> Dict[str, float]:
    p = cell.params_dict
    return {"job_time": _job_time(p["source"], p["cached"],
                                  p["iterations"], cell_scale(cell),
                                  cell.seed)}


def assemble(results: Mapping[Cell, Dict[str, float]],
             scale: Scale = SMALL, seeds: Sequence[int] = (0,),
             iterations: int = 3) -> ExperimentResult:
    result = ExperimentResult(
        "ablation-mem",
        "Memory-resident RDDs on vs off (LR, 3 iterations)",
        headers=["input_source", "cached_s", "uncached_s",
                 "caching_speedup"])

    def seconds(source: str, is_cached: bool) -> float:
        return median([results[make_cell(
            "ablation-mem", "job", scale, s, source=source,
            cached=is_cached, iterations=int(iterations))]["job_time"]
            for s in seeds])

    for source in ("hdfs", "lustre"):
        cached = seconds(source, True)
        uncached = seconds(source, False)
        result.add(source, cached, uncached, speedup(uncached, cached))
    result.note("memory residency should pay more on Lustre, where every "
                "re-read competes for the shared OSS bandwidth")
    return result


def run(scale: Scale = SMALL, seeds: Sequence[int] = (0,),
        iterations: int = 3,
        runner: Optional[SweepRunner] = None) -> ExperimentResult:
    return run_sweep(cells, assemble, runner, scale=scale, seeds=seeds,
                     iterations=iterations)


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
