"""Fig 7 — GroupBy performance when intermediate data lives on Lustre.

Three configurations for the storing/fetching of intermediate data:

* **HDFS** (really: node-local RAMDisk shuffle dirs) — the data-centric
  baseline, capacity-limited to ~1.2 TB cluster-wide in the paper.
* **Lustre-local** (Fig 6 left) — shuffle files on Lustre, but fetch
  requests are served by the *writer* from its client cache, so no lock
  traffic; data crosses the network as usual.
* **Lustre-shared** (Fig 6 right) — fetchers read Lustre directly; every
  read revokes the writer's lock, forcing a flush to the OSSes first.

Paper findings: HDFS beats Lustre-local by up to 6.5× (gap grows
linearly with data size); Lustre-shared is up to 3.8× worse than
Lustre-local, with the damage concentrated in the shuffling phase
(up to an order of magnitude slower — Fig 7(b)) while storing phases
stay comparable.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.cluster.variability import LognormalSpeed
from repro.core.engine import EngineOptions
from repro.experiments.common import GB, Scale, SMALL, ExperimentResult
from repro.experiments.jobcell import job_cell, median_run
from repro.experiments.runner import Cell, SweepRunner, run_sweep
from repro.workloads import groupby_spec

__all__ = ["run", "cells", "assemble",
           "PAPER_HDFS_SPEEDUP", "PAPER_SHARED_SLOWDOWN"]

PAPER_HDFS_SPEEDUP = 6.5      # HDFS vs Lustre-local, up to
PAPER_SHARED_SLOWDOWN = 3.8   # Lustre-shared vs Lustre-local, up to

#: Paper sweeps intermediate data volume; 100 GB – 1 TB slice here.
PAPER_DATA_SIZES = (100 * GB, 200 * GB, 400 * GB, 600 * GB, 1024 * GB)

CONFIGS = {
    "hdfs": dict(shuffle_store="ramdisk", fetch_mode="network"),
    "lustre-local": dict(shuffle_store="lustre", fetch_mode="lustre-local"),
    "lustre-shared": dict(shuffle_store="lustre", fetch_mode="lustre-shared"),
}


def _job(config: str, paper_bytes: float, scale: Scale, seed: int) -> Cell:
    spec = groupby_spec(scale.bytes_of(paper_bytes),
                        n_reducers=scale.n_nodes * 16,
                        **CONFIGS[config])
    return job_cell(spec, scale, EngineOptions(seed=seed), LognormalSpeed())


def cells(scale: Scale = SMALL, seeds: Sequence[int] = (0,),
          data_sizes: Sequence[float] = PAPER_DATA_SIZES) -> List[Cell]:
    """One job cell per (storage configuration, data size, seed); the
    HDFS jobs are fig08's RAMDisk jobs.  The paper's HDFS/RAMDisk curve
    stops (at ~1.2 TB) where the intermediate data no longer fits on the
    RAMDisks: such a job comes back ``ok: False``."""
    return [_job(config, paper_bytes, scale, seed)
            for paper_bytes in data_sizes
            for config in CONFIGS
            for seed in seeds]


def assemble(results: Mapping[Cell, Dict[str, object]],
             scale: Scale = SMALL, seeds: Sequence[int] = (0,),
             data_sizes: Sequence[float] = PAPER_DATA_SIZES
             ) -> ExperimentResult:
    result = ExperimentResult(
        "fig07", "GroupBy with intermediate data on HDFS vs Lustre",
        headers=["data_GB(paper)", "hdfs_s", "lustre_local_s",
                 "lustre_shared_s", "local/hdfs", "shared/local",
                 "local_store_s", "local_fetch_s", "shared_store_s",
                 "shared_fetch_s"])
    for paper_bytes in data_sizes:
        runs: Dict[str, Optional[Dict[str, object]]] = {}
        for config in CONFIGS:
            runs[config] = median_run([
                results[_job(config, paper_bytes, scale, s)]
                for s in seeds])
        hdfs, local, shared = (runs["hdfs"], runs["lustre-local"],
                               runs["lustre-shared"])
        result.add(
            paper_bytes / GB,
            hdfs["job_time"] if hdfs else float("nan"),
            local["job_time"] if local else float("nan"),
            shared["job_time"] if shared else float("nan"),
            (local["job_time"] / hdfs["job_time"]) if hdfs and local
            else float("nan"),
            (shared["job_time"] / local["job_time"]) if shared and local
            else float("nan"),
            local["store_time"] if local else float("nan"),
            local["fetch_time"] if local else float("nan"),
            shared["store_time"] if shared else float("nan"),
            shared["fetch_time"] if shared else float("nan"),
        )
    result.note(f"paper: HDFS up to {PAPER_HDFS_SPEEDUP}x over "
                f"Lustre-local; Lustre-shared up to "
                f"{PAPER_SHARED_SLOWDOWN}x worse than Lustre-local")
    result.note(f"scale={scale.name}; data sizes are paper-scale labels, "
                f"run at {scale.data_factor:.2f}x volume")
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
