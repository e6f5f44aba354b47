"""Fig 12 — Unbalanced task assignment → unbalanced intermediate data.

Paper setup: GroupBy with 256 MB splits; 2500 tasks on 50 nodes, 5000 on
100, 7500 on 150.  Node performance varies with background workload skew,
so the greedy scheduler gives fast nodes more tasks; each task deposits a
unit of intermediate data, so data skews identically.  In the 100-node
case the 3 head nodes host ~7 GB each while the 10 tail nodes host
>14 GB — a 2× spread that drags the storing/shuffling phases (Fig 11).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.cdf import cdf, percentile_spread
from repro.cluster.variability import LognormalSpeed
from repro.core.engine import EngineOptions, run_job
from repro.experiments.common import (GB, MB, Scale, SMALL,
                                      ExperimentResult)
from repro.experiments.runner import (Cell, SweepRunner, cell_scale,
                                      make_cell, run_sweep)
from repro.workloads import groupby_spec

__all__ = ["run", "cells", "run_cell", "assemble", "PAPER_SPREAD"]

PAPER_SPREAD = 2.0  # tail nodes host ~2x the data of head nodes

#: (tasks, nodes) pairs from the paper, scaled by node count.
PAPER_CASES = ((2500, 50), (5000, 100), (7500, 150))
SPLIT = 256 * MB


def _case_nodes_tasks(paper_tasks: int, paper_nodes: int,
                      scale: Scale) -> Tuple[int, int]:
    n_nodes = max(2, round(paper_nodes * scale.n_nodes / 100))
    n_tasks = round(paper_tasks * n_nodes / paper_nodes)
    return n_nodes, n_tasks


def cells(scale: Scale = SMALL, seeds: Sequence[int] = (0,),
          cases: Sequence[Tuple[int, int]] = PAPER_CASES) -> List[Cell]:
    """One cell per (case, seed) computation-stage run."""
    return [make_cell("fig12", "job", scale, seed,
                      paper_tasks=paper_tasks, paper_nodes=paper_nodes)
            for paper_tasks, paper_nodes in cases
            for seed in seeds]


def run_cell(cell: Cell) -> Dict[str, object]:
    p = cell.params_dict
    scale = cell_scale(cell)
    n_nodes, n_tasks = _case_nodes_tasks(p["paper_tasks"],
                                         p["paper_nodes"], scale)
    # Only the computation stage matters here: the experiment measures
    # how tasks and their intermediate data distribute over nodes.
    spec = groupby_spec(n_tasks * SPLIT, split_bytes=SPLIT,
                        n_reducers=n_nodes * 16).with_(
                            shuffle_store=None)
    res = run_job(spec, cluster_spec=scale.cluster().scaled(n_nodes),
                  options=EngineOptions(seed=cell.seed),
                  speed_model=LognormalSpeed())
    data = np.sort(res.node_intermediate)
    head = float(data[:max(1, n_nodes * 3 // 100 or 1)].mean())
    tail = float(data[-max(1, n_nodes * 10 // 100 or 1):].mean())
    return {"head": head, "tail": tail,
            "data_spread": tail / head if head > 0 else float("inf"),
            "task_spread": percentile_spread(res.node_task_counts,
                                             low=5, high=95),
            "node_intermediate": [float(x) for x in res.node_intermediate]}


def assemble(results: Mapping[Cell, Dict[str, object]],
             scale: Scale = SMALL, seeds: Sequence[int] = (0,),
             cases: Sequence[Tuple[int, int]] = PAPER_CASES
             ) -> ExperimentResult:
    result = ExperimentResult(
        "fig12", "Task and intermediate-data distribution across nodes",
        headers=["case", "nodes", "tasks", "head_GB", "tail_GB",
                 "tail/head", "task_spread"])
    for paper_tasks, paper_nodes in cases:
        n_nodes, n_tasks = _case_nodes_tasks(paper_tasks, paper_nodes,
                                             scale)
        runs = [results[make_cell("fig12", "job", scale, seed,
                                  paper_tasks=paper_tasks,
                                  paper_nodes=paper_nodes)]
                for seed in seeds]
        head_tail = [(r["head"], r["tail"]) for r in runs]
        mid = len(seeds) // 2
        head, tail = sorted(head_tail)[mid]
        result.add(f"{paper_tasks}/{paper_nodes}", n_nodes, n_tasks,
                   head / GB, tail / GB,
                   float(np.median([r["data_spread"] for r in runs])),
                   float(np.median([r["task_spread"] for r in runs])))
        # As in the original serial loop, the CDF comes from the run of
        # the last seed in declaration order.
        result.extra[f"cdf_{paper_tasks}_{paper_nodes}"] = cdf(
            runs[-1]["node_intermediate"])
    result.note(f"paper: ~{PAPER_SPREAD}x workload difference between "
                "head (3 nodes) and tail (10 nodes) of the distribution")
    result.note(f"scale={scale.name}; node counts scaled by "
                f"{scale.n_nodes}/100")
    return result


def run(scale: Scale = SMALL, seeds: Sequence[int] = (0,),
        cases: Sequence[Tuple[int, int]] = PAPER_CASES,
        runner: Optional[SweepRunner] = None) -> ExperimentResult:
    return run_sweep(cells, assemble, runner, scale=scale, seeds=seeds,
                     cases=cases)


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
