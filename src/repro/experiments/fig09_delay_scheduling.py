"""Fig 9 — Performance degradation caused by delay scheduling.

Same data-centric HDFS configuration, delay scheduling on vs off.
Paper findings at 32 MB splits: job execution time degrades by 42.7 %
for Grep and 9.9 % for LR when delay scheduling is active; similar
degradation at other split sizes.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.stats import median
from repro.cluster.variability import LognormalSpeed
from repro.core.engine import EngineOptions
from repro.experiments.common import (GB, MB, Scale, SMALL,
                                      ExperimentResult)
from repro.experiments.jobcell import job_cell
from repro.experiments.runner import Cell, SweepRunner, run_sweep
from repro.workloads import grep_spec, logistic_regression_spec

__all__ = ["run", "cells", "assemble",
           "PAPER_GREP_DEGRADATION", "PAPER_LR_DEGRADATION"]

PAPER_GREP_DEGRADATION = 42.7   # percent, 32 MB splits
PAPER_LR_DEGRADATION = 9.9      # percent, 32 MB splits

PAPER_INPUT_BYTES = 200 * GB
SPLIT_SIZES = (32 * MB, 64 * MB, 128 * MB)


def _job(benchmark: str, delay: bool, split: float, scale: Scale,
         seed: int) -> Cell:
    make_spec = grep_spec if benchmark == "grep" \
        else logistic_regression_spec
    spec = make_spec(input_bytes=scale.bytes_of(PAPER_INPUT_BYTES),
                     split_bytes=float(split), input_source="hdfs")
    return job_cell(spec, scale,
                    EngineOptions(delay_scheduling=delay, seed=seed),
                    LognormalSpeed(sigma=0.14))


def cells(scale: Scale = SMALL, seeds: Sequence[int] = (0,),
          splits: Sequence[float] = SPLIT_SIZES) -> List[Cell]:
    """One job cell per (benchmark, split, delay on/off, seed); the
    delay-on jobs are fig05's HDFS jobs."""
    return [_job(benchmark, delay, split, scale, seed)
            for benchmark in ("grep", "lr")
            for split in splits
            for delay in (False, True)
            for seed in seeds]


def assemble(results: Mapping[Cell, Dict[str, float]],
             scale: Scale = SMALL, seeds: Sequence[int] = (0,),
             splits: Sequence[float] = SPLIT_SIZES) -> ExperimentResult:
    result = ExperimentResult(
        "fig09", "Delay scheduling on vs off (HDFS configuration)",
        headers=["benchmark", "split_MB", "immediate_s", "delay_s",
                 "degradation_%"])

    def seconds(benchmark: str, delay: bool, split: float) -> float:
        return median([results[_job(benchmark, delay, split, scale, s)]
                       ["job_time"] for s in seeds])

    for benchmark in ("grep", "lr"):
        for split in splits:
            off = seconds(benchmark, False, split)
            on = seconds(benchmark, True, split)
            result.add(benchmark, split / MB, off, on,
                       (on - off) / off * 100.0)
    result.note(f"paper at 32MB: Grep +{PAPER_GREP_DEGRADATION}%, "
                f"LR +{PAPER_LR_DEGRADATION}%")
    result.note(f"scale={scale.name}")
    return result


def run(scale: Scale = SMALL, seeds: Sequence[int] = (0,),
        splits: Sequence[float] = SPLIT_SIZES,
        runner: Optional[SweepRunner] = None) -> ExperimentResult:
    return run_sweep(cells, assemble, runner, scale=scale, seeds=seeds,
                     splits=splits)


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
