"""Resilient Distributed Datasets: the lazy programming model (§II-C).

A miniature of Spark's RDD API, cut to the operators the workload
programs and the examples run: transformations build a lineage graph
lazily; actions trigger execution through the context's backend.
Narrow transformations (``map``, ``flat_map``, ``filter``) pipeline
within a stage; :class:`ShuffledRDD` introduces a stage boundary,
materialising hash-partitioned buckets exactly like Spark's shuffle
files.

The local backend really computes (see :mod:`repro.core.local`).  The
simulation engine executes :class:`~repro.core.jobspec.JobSpec`
descriptors instead, because the paper's questions are about scheduling
and I/O, not record values; ``tests/workloads/test_workload_shapes.py``
runs each workload's RDD program here and checks that its ``JobSpec``
has the shape the program implies.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, List, Optional, TypeVar

T = TypeVar("T")
U = TypeVar("U")
V = TypeVar("V")

__all__ = ["RDD", "ShuffledRDD"]

_next_rdd_id = itertools.count()


class RDD:
    """Base class: a lazily evaluated, partitioned collection."""

    def __init__(self, ctx, parents=()) -> None:
        self.ctx = ctx
        self.parents = parents
        self.rdd_id = next(_next_rdd_id)
        self.is_cached = False

    # -- to be provided by subclasses -------------------------------------------
    @property
    def num_partitions(self) -> int:
        raise NotImplementedError

    def compute(self, split: int, backend) -> Iterator:
        raise NotImplementedError

    # -- evaluation --------------------------------------------------------------
    def iterator(self, split: int, backend) -> Iterator:
        """Iterate one partition, honouring caching."""
        if self.is_cached:
            return iter(backend.get_or_compute_cached(self, split))
        return self.compute(split, backend)

    def cache(self) -> "RDD":
        """Keep computed partitions in memory (the memory-resident
        feature that makes iterative jobs like LR fast)."""
        self.is_cached = True
        return self

    # -- transformations (lazy) ----------------------------------------------------
    def map(self, f: Callable[[T], U]) -> "RDD":
        return MapPartitionsRDD(self, lambda it: map(f, it), "map")

    def flat_map(self, f: Callable[[T], Iterable[U]]) -> "RDD":
        return MapPartitionsRDD(
            self, lambda it: itertools.chain.from_iterable(map(f, it)),
            "flatMap")

    def filter(self, f: Callable[[T], bool]) -> "RDD":
        return MapPartitionsRDD(self, lambda it: filter(f, it), "filter")

    def combine_by_key(self, create, merge_value, merge_combiners,
                       num_partitions: Optional[int] = None) -> "RDD":
        if num_partitions is None:
            num_partitions = self.num_partitions
        elif num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        return ShuffledRDD(self, create, merge_value, merge_combiners,
                           num_partitions)

    def group_by_key(self, num_partitions: Optional[int] = None) -> "RDD":
        return self.combine_by_key(lambda v: [v],
                                   lambda acc, v: (acc.append(v) or acc),
                                   lambda a, b: a + b, num_partitions)

    def reduce_by_key(self, f: Callable[[V, V], V],
                      num_partitions: Optional[int] = None) -> "RDD":
        return self.combine_by_key(lambda v: v, f, f, num_partitions)

    # -- actions (eager) --------------------------------------------------------------
    def collect(self) -> List:
        return self.ctx.backend.collect(self)

    def reduce(self, f: Callable[[T, T], T]):
        it = self.ctx.backend.iterate(self)
        try:
            acc = next(it)
        except StopIteration:
            raise ValueError("reduce of empty RDD") from None
        for x in it:
            acc = f(acc, x)
        return acc

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} id={self.rdd_id}>"


class SourceRDD(RDD):
    """An RDD backed by in-memory partitions."""

    def __init__(self, ctx, partitions: List[List]) -> None:
        super().__init__(ctx)
        self._partitions = partitions

    @property
    def num_partitions(self) -> int:
        return len(self._partitions)

    def compute(self, split: int, backend) -> Iterator:
        return iter(self._partitions[split])


class MapPartitionsRDD(RDD):
    """A narrow transformation: pipelines within its parent's stage."""

    def __init__(self, parent: RDD, f: Callable[[Iterator], Iterator],
                 op_name: str) -> None:
        super().__init__(parent.ctx, (parent,))
        self.f = f
        self.op_name = op_name

    @property
    def num_partitions(self) -> int:
        return self.parents[0].num_partitions

    def compute(self, split: int, backend) -> Iterator:
        return self.f(self.parents[0].iterator(split, backend))


class ShuffledRDD(RDD):
    """A wide transformation: hash-partitions the parent's key/value
    records into ``num_partitions`` buckets with combineByKey semantics.

    This is the stage boundary: computing any partition requires the
    whole parent, so the backend materialises the shuffle once (the
    storing phase) and serves buckets from it (the fetching phase).
    """

    def __init__(self, parent: RDD, create, merge_value, merge_combiners,
                 num_partitions: int) -> None:
        super().__init__(parent.ctx, (parent,))
        self.create = create
        self.merge_value = merge_value
        self.merge_combiners = merge_combiners
        self._num_partitions = num_partitions

    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    def partition_of(self, key) -> int:
        return hash(key) % self._num_partitions

    def compute(self, split: int, backend) -> Iterator:
        buckets = backend.get_or_run_shuffle(self)
        return iter(buckets[split])
