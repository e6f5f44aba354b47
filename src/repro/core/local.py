"""The local execution backend: really computes RDD programs.

Evaluation is pull-based: narrow transformations stream through Python
iterators (pipelining, as Spark pipelines operators within a stage);
:class:`~repro.core.rdd.ShuffledRDD` boundaries materialise hash
partitions once per shuffle and are memoised, mirroring Spark's shuffle
files.  Cached RDDs keep their computed partitions in memory.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.rdd import RDD, ShuffledRDD, SourceRDD

__all__ = ["LocalBackend", "LocalContext"]


class LocalBackend:
    """Executes lineage graphs in-process."""

    def __init__(self) -> None:
        self._rdd_cache: Dict[Tuple[int, int], List] = {}
        self._shuffle_cache: Dict[int, List[List]] = {}
        # Statistics, so tests can verify caching/shuffle behaviour.
        self.shuffles_run = 0
        self.partitions_computed = 0

    # -- evaluation -----------------------------------------------------------
    def iterate(self, rdd: RDD) -> Iterator:
        for split in range(rdd.num_partitions):
            yield from rdd.iterator(split, self)

    def collect(self, rdd: RDD) -> List:
        return list(self.iterate(rdd))

    # -- caching ----------------------------------------------------------------
    def get_or_compute_cached(self, rdd: RDD, split: int) -> List:
        key = (rdd.rdd_id, split)
        hit = self._rdd_cache.get(key)
        if hit is None:
            hit = list(rdd.compute(split, self))
            self._rdd_cache[key] = hit
            self.partitions_computed += 1
        return hit

    # -- shuffle ------------------------------------------------------------------
    def get_or_run_shuffle(self, rdd: ShuffledRDD) -> List[List]:
        buckets = self._shuffle_cache.get(rdd.rdd_id)
        if buckets is None:
            buckets = self._run_shuffle(rdd)
            self._shuffle_cache[rdd.rdd_id] = buckets
            self.shuffles_run += 1
        return buckets

    def _run_shuffle(self, rdd: ShuffledRDD) -> List[List]:
        parent = rdd.parents[0]
        n_out = rdd.num_partitions
        # Storing phase: bucket by hash(key), combining per bucket.
        combined: List[Dict] = [dict() for _ in range(n_out)]
        for split in range(parent.num_partitions):
            for k, v in parent.iterator(split, self):
                bucket = combined[rdd.partition_of(k)]
                if k in bucket:
                    bucket[k] = rdd.merge_value(bucket[k], v)
                else:
                    bucket[k] = rdd.create(v)
        # Fetching phase is trivial in-process: emit bucket contents.
        return [list(bucket.items()) for bucket in combined]


class LocalContext:
    """Entry point for real (non-simulated) RDD programs.

    Mirrors ``SparkContext``::

        ctx = LocalContext(parallelism=4)
        counts = (ctx.parallelize(lines)
                    .flat_map(str.split)
                    .map(lambda w: (w, 1))
                    .reduce_by_key(int.__add__)
                    .collect())
    """

    def __init__(self, parallelism: int = 4) -> None:
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.parallelism = parallelism
        self.backend = LocalBackend()

    def parallelize(self, data, num_partitions: Optional[int] = None) -> RDD:
        items = list(data)
        n = num_partitions if num_partitions is not None else self.parallelism
        if n < 1:
            raise ValueError("num_partitions must be >= 1")
        n = min(n, max(1, len(items)))
        size = int(math.ceil(len(items) / n)) if items else 1
        return SourceRDD(self, [items[i * size:(i + 1) * size]
                                for i in range(n)])
