"""Ablation — spill vs. wait under executor-heap scarcity (DESIGN.md §13).

The paper keeps intermediate data memory-resident by construction; this
ablation asks what happens when executor heaps cannot hold a full
complement of tasks.  A *rigid* admission policy (Spark's default) holds
every task to its ideal heap and lets offers go unfilled — concurrency
drops and waves stretch.  A *memory-elastic* policy launches some tasks
shrunk, paying a spill-I/O penalty (overflow written to and re-read from
the node-local spill store) to keep every core busy.  Sweeping the heap
fraction against {stock, ELB, CAD} shows where each side of that trade
wins — and whether CAD's device-congestion signal, built for shuffle
stores, also reacts to spill traffic hitting the same SSD.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.stats import median, speedup
from repro.cluster.variability import LognormalSpeed
from repro.core.engine import EngineOptions, run_job
from repro.core.memory import MemoryConfig
from repro.experiments.common import (GB, MB, Scale, SMALL,
                                      ExperimentResult)
from repro.experiments.runner import (Cell, SweepRunner, cell_scale,
                                      make_cell, run_sweep)
from repro.workloads import groupby_spec

__all__ = ["run", "cells", "run_cell", "assemble",
           "FRACTIONS", "MECHANISMS"]

PAPER_INPUT_BYTES = 400 * GB

#: Heap fractions swept: 1.0 is the no-scarcity control (rigid and
#: elastic must coincide there), the rest are increasing pressure.
#: Deliberately not multiples of the per-core heap share: scarcity that
#: divides evenly (or whose remainder falls below min_task_frac) leaves
#: no room for the elastic policy to shrink a task into, collapsing
#: both modes onto the same schedule.  With 16 cores these leave
#: remainders of 0.4–0.8 of an ideal heap per node.
FRACTIONS = (1.0, 0.65, 0.4, 0.3)
MECHANISMS = ("stock", "elb", "cad")

#: Spill curve for the sweep: a shrunk task spills half its working set
#: at full shrink, sublinearly for mild shrink (gamma > 1 — hash
#: aggregation degrades gracefully until the table really can't fit).
SPILL_RATIO = 0.5
SPILL_GAMMA = 1.5

#: Compute-heavy GroupBy variant: at the stock 350 MB/s/core generate
#: rate the compute stage is a blink and queueing never accumulates;
#: 150 MB/s/core makes waves long enough that lost concurrency hurts
#: more than spill I/O — the regime the elastic policy is for.
_GENERATE_RATE = 150 * MB


def _run(mechanism: str, frac: float, elastic: bool, scale: Scale,
         seed: int) -> Dict[str, float]:
    spec = groupby_spec(
        scale.bytes_of(PAPER_INPUT_BYTES), split_bytes=128 * MB,
        shuffle_store="ssd", generate_rate=_GENERATE_RATE)
    mem = MemoryConfig(mem_frac=frac, elastic=elastic,
                       spill_store="ssd", spill_ratio=SPILL_RATIO,
                       spill_gamma=SPILL_GAMMA)
    options = EngineOptions(seed=seed,
                            elb=(mechanism == "elb"),
                            cad=(mechanism == "cad"),
                            memory=mem)
    res = run_job(spec, cluster_spec=scale.cluster(), options=options,
                  speed_model=LognormalSpeed(sigma=0.14))
    m = res.memory
    return {"job_time": res.job_time,
            "spill_gb": m.spill_bytes_written / GB,
            "tasks_shrunk": float(m.tasks_shrunk),
            "declines": float(m.grants_declined)}


def cells(scale: Scale = SMALL, seeds: Sequence[int] = (0,)) -> List[Cell]:
    """One cell per (mechanism, heap fraction, admission mode, seed)."""
    return [make_cell("ablation-spill", "job", scale, seed,
                      mechanism=mechanism, frac=frac, elastic=elastic)
            for mechanism in MECHANISMS
            for frac in FRACTIONS
            for elastic in (False, True)
            for seed in seeds]


def run_cell(cell: Cell) -> Dict[str, float]:
    p = cell.params_dict
    return _run(p["mechanism"], p["frac"], p["elastic"],
                cell_scale(cell), cell.seed)


def assemble(results: Mapping[Cell, Dict[str, float]],
             scale: Scale = SMALL,
             seeds: Sequence[int] = (0,)) -> ExperimentResult:
    result = ExperimentResult(
        "ablation-spill",
        "Rigid vs memory-elastic admission under heap scarcity (GroupBy "
        "on SSD)",
        headers=["mechanism", "mem_frac", "rigid_s", "elastic_s",
                 "elastic_gain", "spill_gb", "tasks_shrunk"])

    def cell_for(mechanism: str, frac: float, elastic: bool, seed: int):
        return make_cell("ablation-spill", "job", scale, seed,
                         mechanism=mechanism, frac=frac, elastic=elastic)

    def med(mechanism: str, frac: float, elastic: bool, key: str) -> float:
        return median([results[cell_for(mechanism, frac, elastic, s)][key]
                       for s in seeds])

    for mechanism in MECHANISMS:
        for frac in FRACTIONS:
            rigid = med(mechanism, frac, False, "job_time")
            elastic = med(mechanism, frac, True, "job_time")
            result.add(mechanism, frac, rigid, elastic,
                       speedup(rigid, elastic),
                       med(mechanism, frac, True, "spill_gb"),
                       med(mechanism, frac, True, "tasks_shrunk"))
    result.note("at mem_frac=1.0 rigid and elastic must coincide (no "
                "task ever shrinks); under scarcity elastic trades spill "
                "I/O for restored concurrency")
    result.note("spill traffic shares the shuffle SSD: CAD's congestion "
                "signal sees it and backs the storing stage off the "
                "device spill is hammering")
    return result


def run(scale: Scale = SMALL, seeds: Sequence[int] = (0,),
        runner: Optional[SweepRunner] = None) -> ExperimentResult:
    return run_sweep(cells, assemble, runner, scale=scale, seeds=seeds)


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
