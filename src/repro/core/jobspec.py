"""Simulation job descriptors.

A :class:`JobSpec` captures everything the simulated engine needs to know
about a MapReduce job: data volumes, per-byte computation intensity, the
shuffle footprint, and where input / intermediate data live.  The three
paper benchmarks (§III-B) are thin factories over this type — see
:mod:`repro.workloads`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

GB = 1024.0 ** 3
MB = 1024.0 ** 2

__all__ = ["JobSpec"]

INPUT_SOURCES = ("generated", "hdfs", "lustre")
SHUFFLE_STORES = (None, "ramdisk", "ssd", "lustre")
FETCH_MODES = ("network", "lustre-local", "lustre-shared")


@dataclass(frozen=True)
class JobSpec:
    """A simulated MapReduce job.

    The execution plan follows the paper's three-stage pipeline (Fig 4):
    a computation stage producing key/value pairs in memory, a storing
    stage (ShuffleMapTasks) materialising intermediate data, and a
    fetching stage shuffling it to reducers.  Jobs without a shuffle
    (``shuffle_store=None``) stop after the computation stage; iterative
    jobs (``iterations > 1``) repeat the computation stage, optionally
    reading input from memory after the first pass.
    """

    name: str = "job"
    #: Total input bytes (== intermediate bytes for GroupBy-style jobs).
    input_bytes: float = 10 * GB
    #: Input split / HDFS block size; determines the map-task count.
    split_bytes: float = 128 * MB
    #: Nominal per-core map computation throughput, bytes/second.
    map_compute_rate: float = 800 * MB
    #: Nominal per-core reduce computation throughput, bytes/second.
    reduce_compute_rate: float = 1.5 * GB
    #: Intermediate data volume as a fraction of input (GroupBy: 1.0).
    intermediate_ratio: float = 0.0
    #: Where map tasks read input from.
    input_source: str = "generated"
    #: Where the storing phase materialises intermediate data.
    shuffle_store: Optional[str] = None
    #: How fetching tasks retrieve intermediate data.
    fetch_mode: str = "network"
    #: Reducer count; ``None`` → twice the cluster core count.
    n_reducers: Optional[int] = None
    #: Iterations of the computation stage (LR runs 3).
    iterations: int = 1
    #: Whether iterations beyond the first read input from memory (RDD
    #: caching, the memory-resident feature of §II-C).
    cache_input: bool = False
    #: HDFS input block placement: "random" reflects a real ingest
    #: (replica targets drawn per block); "roundrobin" is the idealised
    #: perfectly balanced layout.
    hdfs_placement: str = "random"
    #: Multiplicative lognormal noise on per-task compute time.
    compute_noise_sigma: float = 0.08
    #: Extra lognormal noise on storing-task service (SSD placement etc.).
    store_noise_sigma: float = 0.10
    #: Ideal per-task executor heap; ``None`` derives it from the node
    #: spec (``spark_mem_bytes / cores`` — one full heap share per core).
    #: Only consulted when the run manages memory (EngineOptions.memory).
    task_heap_bytes: Optional[float] = None
    # -- shuffle-volume mechanisms (DESIGN.md §14); both default off, --
    # -- keeping every historical fingerprint byte-identical.          --
    #: In-node combiner: merge each node's map outputs key-by-key before
    #: the storing stage (arXiv:1511.04861).  The reduction factor is
    #: derived from the key distribution below, not hand-tuned.
    combiner: bool = False
    #: Zipf skew of the intermediate key distribution (the exponent is
    #: ``1 + key_skew``, truncated to ``n_keys`` ranks; 0 = uniform) —
    #: ``combine.zipf_pmf``, which ``datagen.generate_kv_pairs(skew=...)``
    #: also draws from.
    key_skew: float = 0.0
    #: Distinct intermediate keys the workload can produce.
    n_keys: int = 1 << 20
    #: Average bytes per intermediate key/value record.
    pair_bytes: float = 100.0
    #: Per-core throughput of the in-node hash-merge pass, bytes/second.
    combine_compute_rate: float = 2.5 * GB
    #: M3R-style partition-stable shuffle (arXiv:1208.4168): pin the
    #: reducer→node mapping across iterations so cached reducer-side
    #: partitions stay local and only deltas move after iteration 1.
    partition_stable: bool = False
    #: Fraction of the intermediate volume shuffled per iteration after
    #: the first (the centroid/assignment delta); 1.0 = full reshuffle.
    delta_ratio: float = 1.0

    def __post_init__(self) -> None:
        if self.input_bytes < 0:
            raise ValueError("input_bytes must be non-negative")
        if self.split_bytes <= 0:
            raise ValueError("split_bytes must be positive")
        if self.map_compute_rate <= 0 or self.reduce_compute_rate <= 0:
            raise ValueError("compute rates must be positive")
        if not 0 <= self.intermediate_ratio:
            raise ValueError("intermediate_ratio must be non-negative")
        if self.input_source not in INPUT_SOURCES:
            raise ValueError(f"input_source must be one of {INPUT_SOURCES}")
        if self.shuffle_store not in SHUFFLE_STORES:
            raise ValueError(f"shuffle_store must be one of {SHUFFLE_STORES}")
        if self.fetch_mode not in FETCH_MODES:
            raise ValueError(f"fetch_mode must be one of {FETCH_MODES}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.fetch_mode.startswith("lustre") and \
                self.shuffle_store not in (None, "lustre"):
            raise ValueError(
                "lustre fetch modes require shuffle_store='lustre'")
        if self.task_heap_bytes is not None and self.task_heap_bytes <= 0:
            raise ValueError("task_heap_bytes must be positive when set")
        if self.key_skew < 0:
            raise ValueError(
                f"key_skew must be >= 0, got {self.key_skew}")
        if self.n_keys < 1:
            raise ValueError(f"n_keys must be >= 1, got {self.n_keys}")
        if self.pair_bytes <= 0:
            raise ValueError(
                f"pair_bytes must be > 0, got {self.pair_bytes}")
        if self.combine_compute_rate <= 0:
            raise ValueError(
                f"combine_compute_rate must be > 0, got "
                f"{self.combine_compute_rate}")
        if not 0.0 <= self.delta_ratio <= 1.0:
            raise ValueError(
                f"delta_ratio must be in [0, 1], got {self.delta_ratio}")
        if self.combiner and self.shuffle_store is None:
            raise ValueError(
                "combiner=True needs a shuffle (shuffle_store is None: "
                "there is no intermediate data to combine)")
        if self.partition_stable and self.shuffle_store is None:
            raise ValueError(
                "partition_stable=True needs a shuffle (shuffle_store is "
                "None: there is no reducer partition map to pin)")

    @property
    def n_map_tasks(self) -> int:
        return max(1, int(math.ceil(self.input_bytes / self.split_bytes)))

    @property
    def intermediate_bytes(self) -> float:
        return self.input_bytes * self.intermediate_ratio

    def reducers(self, total_cores: int) -> int:
        if self.n_reducers is not None:
            return self.n_reducers
        return max(1, total_cores)

    def with_(self, **kw) -> "JobSpec":
        return replace(self, **kw)
