"""Sustained load — do the single-job optimisations survive a busy cluster?

Every paper figure measures one job on an idle system.  This sweep runs
a continuous two-tenant Poisson stream of TPC-H-flavoured jobs on one
warm cluster (fair-share tenancy, so jobs genuinely overlap) and asks
whether ELB and CAD still pay off when the cluster is never idle: the
mechanisms fight load imbalance and device congestion *created by the
job itself*, but on a shared cluster the background is other tenants'
traffic, which neither mechanism can see.

One cell = one whole stream run at a given (arrival rate, mechanism,
seed); reported metrics come from the stream server's per-tenant
latency/slowdown telemetry histograms.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.cluster.variability import LognormalSpeed
from repro.core.engine import EngineOptions
from repro.experiments.common import (GB, Scale, SMALL, ExperimentResult)
from repro.experiments.runner import (Cell, SweepRunner, cell_scale,
                                      make_cell, run_sweep)
from repro.serve import StreamServer, Tenant

__all__ = ["run", "cells", "run_cell", "assemble",
           "ARRIVAL_RATES", "MECHANISMS", "TENANTS"]

#: Aggregate arrivals per sim second: lightly loaded → saturated.
ARRIVAL_RATES = (0.05, 0.2, 0.5)
MECHANISMS = ("stock", "elb", "cad", "elb+cad")
#: Two tenants, unequal weight, one quota-capped — the setup the serve
#: CLI defaults to.
TENANTS = (Tenant("etl", weight=2.0, quota=1.0),
           Tenant("adhoc", weight=1.0, quota=0.5))
N_JOBS = 24
#: Per-job base size at the paper's 100 nodes (jobs draw 0.25x-2x this);
#: large enough that join-class jobs materialise real shuffle volume.
PAPER_BASE_BYTES = 250 * GB


def _options(mech: str) -> EngineOptions:
    return EngineOptions(elb="elb" in mech, cad="cad" in mech)


def cells(scale: Scale = SMALL, seeds: Sequence[int] = (0,),
          rates: Sequence[float] = ARRIVAL_RATES,
          mechanisms: Sequence[str] = MECHANISMS) -> List[Cell]:
    """One cell per (arrival rate, mechanism, seed) stream run."""
    return [make_cell("stream-load", "stream", scale, seed,
                      rate=rate, mech=mech)
            for rate in rates for mech in mechanisms for seed in seeds]


def run_cell(cell: Cell) -> Dict[str, float]:
    p = cell.params_dict
    scale = cell_scale(cell)
    server = StreamServer(
        TENANTS, arrival_rate=p["rate"], n_jobs=N_JOBS, policy="fair",
        base_gb=scale.bytes_of(PAPER_BASE_BYTES) / GB, seed=cell.seed,
        cluster_spec=scale.cluster(),
        # Same widened per-node speed draw as fig13's storage scenario:
        # without node variability ELB has no imbalance to fight.
        speed_model=LognormalSpeed(sigma=0.28),
        options=_options(p["mech"]))
    result = server.run()
    out: Dict[str, float] = {"makespan": result.makespan,
                             "jobs": float(len(result.outcomes))}
    for tenant, st in result.tenant_stats().items():
        out[f"{tenant}_latency_mean"] = st["latency_mean"]
        out[f"{tenant}_latency_p90"] = st["latency_p90"]
        out[f"{tenant}_slowdown_mean"] = st["slowdown_mean"]
    lats = [o.latency for o in result.outcomes]
    sds = [o.slowdown for o in result.outcomes]
    out["latency_mean"] = sum(lats) / len(lats)
    out["slowdown_mean"] = sum(sds) / len(sds)
    return out


def assemble(results: Mapping[Cell, Dict[str, float]],
             scale: Scale = SMALL, seeds: Sequence[int] = (0,),
             rates: Sequence[float] = ARRIVAL_RATES,
             mechanisms: Sequence[str] = MECHANISMS) -> ExperimentResult:
    result = ExperimentResult(
        "stream-load",
        "Sustained multi-tenant load: ELB/CAD on a never-idle cluster",
        headers=["rate_jobs_s", "mechanism", "latency_s", "slowdown",
                 "vs_stock_%", "etl_latency_s", "adhoc_latency_s",
                 "makespan_s"])
    for rate in rates:
        stock = _mean([results[make_cell("stream-load", "stream", scale, s,
                                         rate=rate, mech="stock")]
                       for s in seeds])
        for mech in mechanisms:
            m = _mean([results[make_cell("stream-load", "stream", scale, s,
                                         rate=rate, mech=mech)]
                       for s in seeds])
            gain = 100.0 * (stock["latency_mean"] - m["latency_mean"]) \
                / stock["latency_mean"]
            result.add(rate, mech, m["latency_mean"], m["slowdown_mean"],
                       gain, m.get("etl_latency_mean", float("nan")),
                       m.get("adhoc_latency_mean", float("nan")),
                       m["makespan"])
    result.note(f"{N_JOBS} jobs per stream, tenants="
                + ",".join(f"{t.name}:{t.weight:g}:{t.quota:g}"
                           for t in TENANTS)
                + ", fair-share pools, warm cluster throughout")
    result.note(f"scale={scale.name}")
    return result


def run(scale: Scale = SMALL, seeds: Sequence[int] = (0,),
        rates: Sequence[float] = ARRIVAL_RATES,
        mechanisms: Sequence[str] = MECHANISMS,
        runner: Optional[SweepRunner] = None) -> ExperimentResult:
    return run_sweep(cells, assemble, runner, scale=scale, seeds=seeds,
                     rates=rates, mechanisms=mechanisms)


def _mean(runs: List[Dict[str, float]]) -> Dict[str, float]:
    keys = runs[0].keys()
    return {k: sum(r[k] for r in runs) / len(runs) for k in keys}


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
