"""Fig 10 — Task execution time with local vs remote input data.

The paper compares the average (plus min/max) task execution time of the
three benchmarks when input is read locally versus from a remote server,
showing that enforcing 100 % locality buys almost nothing: Spark
pipelines computation with input, and on an InfiniBand fabric a remote
DataNode read keeps up with a local one.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.cluster.variability import LognormalSpeed
from repro.core.engine import EngineOptions, run_job
from repro.experiments.common import (GB, MB, Scale, SMALL,
                                      ExperimentResult)
from repro.experiments.runner import (Cell, SweepRunner, cell_scale,
                                      make_cell, run_sweep)
from repro.workloads import grep_spec, groupby_spec, logistic_regression_spec

__all__ = ["run", "cells", "run_cell", "assemble"]

PAPER_INPUT_BYTES = 100 * GB


def _specs(scale: Scale):
    data = scale.bytes_of(PAPER_INPUT_BYTES)
    # Random placement for every HDFS benchmark here: the experiment
    # needs a population of both local and remote launches to compare.
    return {
        "GroupBy": groupby_spec(data, split_bytes=128 * MB,
                                n_reducers=scale.n_nodes * 16),
        "Grep": grep_spec(data, split_bytes=128 * MB,
                          input_source="hdfs").with_(
                              hdfs_placement="random"),
        "LR": logistic_regression_spec(data, split_bytes=128 * MB,
                                       input_source="hdfs",
                                       iterations=1).with_(
                                           hdfs_placement="random"),
    }


def cells(scale: Scale = SMALL, seeds: Sequence[int] = (0,)) -> List[Cell]:
    """One cell per (benchmark, seed) job; each yields the per-task
    local/remote duration populations."""
    return [make_cell("fig10", "job", scale, seed, benchmark=name)
            for name in _specs(scale)
            for seed in seeds]


def run_cell(cell: Cell) -> Dict[str, List[float]]:
    scale = cell_scale(cell)
    spec = _specs(scale)[cell.params_dict["benchmark"]]
    res = run_job(spec, cluster_spec=scale.cluster(),
                  options=EngineOptions(seed=cell.seed),
                  speed_model=LognormalSpeed(sigma=0.14))
    local: List[float] = []
    remote: List[float] = []
    for t in res.phases["compute"].tasks:
        if t.local is True:
            local.append(t.duration)
        elif t.local is False:
            remote.append(t.duration)
    return {"local": local, "remote": remote}


def assemble(results: Mapping[Cell, Dict[str, List[float]]],
             scale: Scale = SMALL, seeds: Sequence[int] = (0,)
             ) -> ExperimentResult:
    result = ExperimentResult(
        "fig10", "Task execution time: local vs remote input data",
        headers=["benchmark", "local_mean_s", "local_min_s", "local_max_s",
                 "remote_mean_s", "remote_min_s", "remote_max_s",
                 "remote/local"])
    for name in _specs(scale):
        local: List[float] = []
        remote: List[float] = []
        for seed in seeds:
            durations = results[make_cell("fig10", "job", scale, seed,
                                          benchmark=name)]
            local.extend(durations["local"])
            remote.extend(durations["remote"])
        lm = _stats(local)
        rm = _stats(remote)
        ratio = (rm[0] / lm[0]) if local and remote else float("nan")
        result.add(name, *lm, *rm, ratio)
    result.note("paper: enforcing 100% locality provides little gain for "
                "all three benchmarks (pipelined input)")
    result.note("GroupBy generates input in memory, so it has no "
                "local/remote distinction (n/a rows)")
    return result


def run(scale: Scale = SMALL, seeds: Sequence[int] = (0,),
        runner: Optional[SweepRunner] = None) -> ExperimentResult:
    return run_sweep(cells, assemble, runner, scale=scale, seeds=seeds)


def _stats(durations: List[float]):
    if not durations:
        return (float("nan"), float("nan"), float("nan"))
    arr = np.array(durations)
    return (float(arr.mean()), float(arr.min()), float(arr.max()))


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
