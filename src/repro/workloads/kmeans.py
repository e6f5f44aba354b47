"""kMeans — iterative clustering, the paper's other GroupBy consumer.

kMeans combines both paper benchmark archetypes: per-iteration heavy
vector math (like LR) plus a groupBy-style shuffle of cluster
assignments.  It exercises the memory-resident feature (§II-C): the
point set is cached across iterations while only the small centroid
table moves.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.jobspec import JobSpec
from repro.core.local import LocalContext

GB = 1024.0 ** 3
MB = 1024.0 ** 2

__all__ = ["kmeans_spec", "run_kmeans_local"]


def kmeans_spec(input_bytes: float,
                split_bytes: float = 64 * MB,
                input_source: str = "hdfs",
                iterations: int = 5,
                compute_rate: float = 60 * MB,
                n_reducers: Optional[int] = None,
                shuffle_ratio: float = 0.0,
                shuffle_store: Optional[str] = None,
                partition_stable: bool = False,
                delta_ratio: float = 0.1) -> JobSpec:
    """Simulated kMeans: iterative compute stages over cached input.

    By default the per-iteration shuffle (centroid partial sums) is tiny
    — a few kilobytes per task — so like LR the simulation models it as
    pure computation; the cached-input / locality behaviour is what
    matters.  (The local program does shuffle: after map-side combining
    each map partition sends at most ``k`` partial sums.)

    ``shuffle_ratio > 0`` instead models the full assignment shuffle
    (cluster id → point sums) every iteration: ``shuffle_ratio`` of the
    input moves per round.  ``partition_stable=True`` is the M3R mode —
    the reducer→node map from iteration 0 is pinned, so later rounds
    ship only the re-assignment delta (``delta_ratio`` of the volume:
    points that changed cluster, a small fraction once Lloyd's algorithm
    starts converging).
    """
    if shuffle_ratio < 0:
        raise ValueError(f"shuffle_ratio must be >= 0, got {shuffle_ratio}")
    if shuffle_ratio > 0 and shuffle_store is None:
        shuffle_store = "ramdisk"
    return JobSpec(
        name="kMeans",
        input_bytes=input_bytes,
        split_bytes=split_bytes,
        map_compute_rate=compute_rate,
        intermediate_ratio=shuffle_ratio,
        input_source=input_source,
        shuffle_store=shuffle_store if shuffle_ratio > 0 else None,
        iterations=iterations,
        cache_input=True,
        n_reducers=n_reducers,
        hdfs_placement="roundrobin",   # generated numeric data
        compute_noise_sigma=0.05,
        partition_stable=partition_stable,
        delta_ratio=delta_ratio if partition_stable else 1.0,
    )


def run_kmeans_local(points: List[np.ndarray], k: int,
                     iterations: int = 5, seed: int = 0,
                     ctx: Optional[LocalContext] = None
                     ) -> Tuple[np.ndarray, List[int]]:
    """Really run Lloyd's algorithm on the RDD API.

    Returns (centroids, assignment per point).  Each iteration is a
    map (assign to nearest centroid) + reduceByKey (sum per cluster) —
    the groupBy pattern the paper calls out — over a cached input RDD.
    """
    if not points:
        raise ValueError("need at least one point")
    if not 1 <= k <= len(points):
        raise ValueError(f"k={k} outside [1, {len(points)}]")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    ctx = ctx if ctx is not None else LocalContext(parallelism=4)
    rng = np.random.default_rng(seed)
    centroids = np.array([points[i] for i in
                          rng.choice(len(points), size=k, replace=False)])
    data = ctx.parallelize(points).cache()

    for _ in range(iterations):
        def assign(p, centroids=centroids):
            dists = ((centroids - p) ** 2).sum(axis=1)
            return int(np.argmin(dists)), (p, 1)

        sums = (data.map(assign)
                .reduce_by_key(lambda a, b: (a[0] + b[0], a[1] + b[1]))
                .collect())
        for cluster_id, (total, count) in sums:
            centroids[cluster_id] = total / count

    assignment = [int(((centroids - p) ** 2).sum(axis=1).argmin())
                  for p in points]
    return centroids, assignment
