"""Shuffle-volume mechanisms — combiners and M3R partition stability
(DESIGN.md §14).

The paper attacks the shuffle by *relocating* intermediate data
(RAMDisk / SSD / Lustre, §IV–V); this sweep attacks its *volume*, the
other axis the related work optimises:

* **In-node combiner** (arXiv:1511.04861): merge each node's map
  outputs key-by-key before the storing stage.  The reduction factor is
  derived from the intermediate key distribution — expected distinct
  keys among the node's pairs under the truncated Zipf
  ``combine.zipf_pmf``, which ``datagen.generate_kv_pairs`` also draws
  from — so skewing the keys honestly shrinks the curve instead of
  dialling a hand-tuned ratio.
* **M3R partition-stable shuffle** (arXiv:1208.4168): for iterative
  jobs, pin the reducer→node map after the first round so reducer-side
  state stays put and later rounds ship only the iteration delta.

Three panels: a mechanism × {stock, ELB, CAD} × {RAMDisk, SSD, Lustre}
grid (does volume reduction compose with the paper's placement and
scheduling optimisations?), a key-skew sweep (fetch volume must fall
monotonically as the Zipf head sharpens), and a per-iteration kMeans
comparison (partition-stable rounds after the first must move strictly
fewer bytes).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.stats import median, speedup
from repro.core.engine import EngineOptions, run_job
from repro.experiments.common import (GB, MB, Scale, SMALL,
                                      ExperimentResult)
from repro.experiments.runner import (Cell, SweepRunner, cell_scale,
                                      make_cell, run_sweep)
from repro.workloads import groupby_spec, kmeans_spec

__all__ = ["run", "cells", "run_cell", "assemble",
           "POLICIES", "STORES", "SKEWS", "GRID_SKEW"]

PAPER_INPUT_BYTES = 100 * GB

POLICIES = ("stock", "elb", "cad")
STORES = ("ramdisk", "ssd", "lustre")
#: Key-skew sweep points (Zipf exponent ``1 + skew``); 0 is uniform.
SKEWS = (0.0, 0.6, 1.2, 1.8)
#: The grid panel's fixed skew: uniform keys, where the combiner's
#: reduction is weakest (pure distinct-key dedup, no Zipf head), so the
#: residual volume stays visible against every store and policy.
GRID_SKEW = 0.0

#: kMeans M3R panel: per-iteration assignment shuffle of half the input;
#: once the partition map is pinned only this fraction of it moves.
KMEANS_ITERATIONS = 3
KMEANS_SHUFFLE_RATIO = 0.5
KMEANS_DELTA_RATIO = 0.1


def _shuffle_stats(res) -> Dict[str, float]:
    s = res.shuffle
    return {"job_time": res.job_time,
            "stored_gb": s.post_combine_bytes / GB,
            "fetched_gb": s.fetched_bytes / GB,
            "reduction": s.reduction_factor}


def _run_groupby(policy: str, store: str, skew: float, combiner: bool,
                 scale: Scale, seed: int) -> Dict[str, float]:
    spec = groupby_spec(
        scale.bytes_of(PAPER_INPUT_BYTES), split_bytes=128 * MB,
        shuffle_store=store,
        fetch_mode="lustre-local" if store == "lustre" else "network",
        combiner=combiner, key_skew=skew)
    options = EngineOptions(seed=seed,
                            elb=(policy == "elb"),
                            cad=(policy == "cad"))
    res = run_job(spec, cluster_spec=scale.cluster(), options=options)
    return _shuffle_stats(res)


def _run_kmeans(stable: bool, scale: Scale, seed: int) -> Dict[str, float]:
    spec = kmeans_spec(
        scale.bytes_of(PAPER_INPUT_BYTES), iterations=KMEANS_ITERATIONS,
        shuffle_ratio=KMEANS_SHUFFLE_RATIO, partition_stable=stable,
        delta_ratio=KMEANS_DELTA_RATIO)
    res = run_job(spec, cluster_spec=scale.cluster(),
                  options=EngineOptions(seed=seed))
    stats = _shuffle_stats(res)
    stats["per_iter_fetched_gb"] = [b / GB for b in
                                    res.shuffle.per_iteration_fetched]
    return stats


def cells(scale: Scale = SMALL, seeds: Sequence[int] = (0,)) -> List[Cell]:
    """One cell per distinct simulation of the three panels: the grid
    and the skew sweep share their stock/SSD/uniform-key GroupBy jobs."""
    groupby = [
        dict(policy=policy, store=store, skew=GRID_SKEW, combiner=combiner)
        for policy in POLICIES for store in STORES
        for combiner in (False, True)]
    groupby += [dict(policy="stock", store="ssd", skew=skew,
                     combiner=combiner)
                for skew in SKEWS for combiner in (False, True)]
    out = [make_cell("shuffle-volume", "groupby", scale, seed, **params)
           for params in groupby for seed in seeds]
    out += [make_cell("shuffle-volume", "m3r", scale, seed, stable=stable)
            for stable in (False, True) for seed in seeds]
    return list(dict.fromkeys(out))


def run_cell(cell: Cell) -> Dict[str, float]:
    p = cell.params_dict
    if cell.kind == "m3r":
        return _run_kmeans(p["stable"], cell_scale(cell), cell.seed)
    return _run_groupby(p["policy"], p["store"], p["skew"], p["combiner"],
                        cell_scale(cell), cell.seed)


def assemble(results: Mapping[Cell, Dict[str, float]],
             scale: Scale = SMALL,
             seeds: Sequence[int] = (0,)) -> ExperimentResult:
    result = ExperimentResult(
        "shuffle-volume",
        "Shuffle-volume mechanisms: in-node combiner and M3R "
        "partition-stable rounds vs the stock engine",
        headers=["part", "config", "stock_gb", "mech_gb", "ratio",
                 "stock_s", "mech_s", "speedup"])

    def med(kind: str, key: str, **params) -> float:
        vals = [results[make_cell("shuffle-volume", kind, scale, s,
                                  **params)][key]
                for s in seeds]
        return median(vals)

    def groupby_row(part: str, config: str, **params) -> None:
        off_gb, on_gb, off_s, on_s = (
            med("groupby", key, combiner=combiner, **params)
            for key in ("fetched_gb", "job_time")
            for combiner in (False, True))
        result.add(part, config, off_gb, on_gb,
                   on_gb / off_gb if off_gb else 0.0,
                   off_s, on_s, speedup(off_s, on_s))

    for policy in POLICIES:
        for store in STORES:
            groupby_row("grid", f"{policy}/{store}", policy=policy,
                        store=store, skew=GRID_SKEW)
    for skew in SKEWS:
        groupby_row("skew", f"zipf={skew}", policy="stock", store="ssd",
                    skew=skew)

    base_time = med("m3r", "job_time", stable=False)
    m3r_time = med("m3r", "job_time", stable=True)
    for i in range(KMEANS_ITERATIONS):
        def iter_gb(stable: bool) -> float:
            vals = [results[make_cell("shuffle-volume", "m3r", scale, s,
                                      stable=stable)]
                    ["per_iter_fetched_gb"][i]
                    for s in seeds]
            return median(vals)

        off_gb, on_gb = iter_gb(False), iter_gb(True)
        result.add("m3r", f"kmeans iter {i}", off_gb, on_gb,
                   on_gb / off_gb if off_gb else 0.0,
                   base_time, m3r_time, speedup(base_time, m3r_time))

    result.note("skew panel: combiner-on fetched_gb must fall "
                "monotonically with the Zipf skew — the reduction "
                "factor is the expected distinct-key count, not a "
                "hand-set ratio")
    result.note("m3r panel: with the partition map pinned, iterations "
                "after the first ship only the re-assignment delta "
                f"({KMEANS_DELTA_RATIO:.0%} of the round volume); the "
                "non-stable baseline reshuffles in full every round")
    return result


def run(scale: Scale = SMALL, seeds: Sequence[int] = (0,),
        runner: Optional[SweepRunner] = None) -> ExperimentResult:
    return run_sweep(cells, assemble, runner, scale=scale, seeds=seeds)


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
