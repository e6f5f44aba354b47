"""Fig 5 — Performance of retrieving inputs from HDFS vs Lustre.

Paper setup: Grep and Logistic Regression read their input either from
the data-centric HDFS-over-RAMDisk configuration or from the
compute-centric Lustre file system, with split sizes 32/64/128 MB.

Paper findings:

* Fig 5(a) Grep (scan-bound): the Lustre configuration is up to ~5.7×
  slower than HDFS at 32 MB splits; growing the split to 128 MB recovers
  ~15.9 % on Lustre (less scheduling overhead) but a large gap remains.
* Fig 5(b) LR (compute-bound): storage architecture barely matters; in
  fact Lustre *wins* by ~12.7 % because Spark's delay scheduling on the
  HDFS configuration holds tasks back for locality.
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
           "PAPER_GREP_SLOWDOWN_32MB", "PAPER_LR_LUSTRE_GAIN"]

#: Paper: Lustre up to 5.7x worse than HDFS for Grep at 32 MB splits.
PAPER_GREP_SLOWDOWN_32MB = 5.7
#: Paper: Lustre outperforms HDFS by 12.7% for LR (delay-scheduling tax).
PAPER_LR_LUSTRE_GAIN = 12.7

#: Input volume at paper scale (100 nodes); scaled per run.
PAPER_INPUT_BYTES = 200 * GB
SPLIT_SIZES = (32 * MB, 64 * MB, 128 * MB)


def _job(benchmark: str, source: str, split: float, scale: Scale,
         seed: int) -> Cell:
    make_spec = grep_spec if benchmark == "grep" \
        else logistic_regression_spec
    spec = make_spec(input_bytes=scale.bytes_of(PAPER_INPUT_BYTES),
                     split_bytes=float(split), input_source=source)
    # Spark's stock configuration uses delay scheduling; on Lustre there
    # is no locality metadata, so every task launches immediately.
    options = EngineOptions(delay_scheduling=(source == "hdfs"), seed=seed)
    return job_cell(spec, scale, options, LognormalSpeed(sigma=0.14))


def cells(scale: Scale = SMALL, seeds: Sequence[int] = (0,),
          splits: Sequence[float] = SPLIT_SIZES) -> List[Cell]:
    """One job cell per (benchmark, split, input source, seed); the HDFS
    jobs are fig09's delay-on jobs."""
    return [_job(benchmark, source, split, scale, seed)
            for benchmark in ("grep", "lr")
            for split in splits
            for source in ("hdfs", "lustre")
            for seed in seeds]


def assemble(results: Mapping[Cell, Dict[str, float]],
             scale: Scale = SMALL, seeds: Sequence[int] = (0,),
             splits: Sequence[float] = SPLIT_SIZES) -> ExperimentResult:
    result = ExperimentResult(
        "fig05", "Job execution time: input from HDFS vs Lustre",
        headers=["benchmark", "split_MB", "hdfs_s", "lustre_s",
                 "lustre/hdfs"])

    def seconds(benchmark: str, source: str, split: float) -> float:
        return median([results[_job(benchmark, source, split, scale, s)]
                       ["job_time"] for s in seeds])

    for benchmark in ("grep", "lr"):
        for split in splits:
            hdfs = seconds(benchmark, "hdfs", split)
            lustre = seconds(benchmark, "lustre", split)
            result.add(benchmark, split / MB, hdfs, lustre, lustre / hdfs)
    result.note(f"paper: Grep Lustre/HDFS up to {PAPER_GREP_SLOWDOWN_32MB}x "
                f"at 32MB; LR Lustre ~{PAPER_LR_LUSTRE_GAIN}% faster")
    result.note(f"scale={scale.name} ({scale.n_nodes} nodes, "
                f"{scale.bytes_of(PAPER_INPUT_BYTES) / GB:.0f} GB input)")
    return result


def run(scale: Scale = SMALL, seeds: Sequence[int] = (0,),
        splits: Sequence[float] = SPLIT_SIZES,
        runner: Optional[SweepRunner] = None) -> ExperimentResult:
    return run_sweep(cells, assemble, runner, scale=scale, seeds=seeds,
                     splits=splits)


def main() -> None:  # pragma: no cover - CLI glue
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
