"""Spark configuration (paper Table I) and engine knobs.

Table I of the paper lists the tuned Spark parameters used on Hyperion::

    spark.reducer.maxMbInFlight   1 GB
    spark.rdd.compress            false
    spark.shuffle.compress        true
    spark.buffer.size             8 MB
    spark.default.parallelism     application dependent

:class:`SparkConf` carries those plus the scheduler parameters the paper
varies (delay-scheduling wait, fetch concurrency, per-task overhead).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

GB = 1024.0 ** 3
MB = 1024.0 ** 2

__all__ = ["SparkConf", "TABLE_I", "GB", "MB"]

#: The exact rows of Table I, for the table-regeneration bench.
TABLE_I: Dict[str, str] = {
    "spark.reducer.maxMbInFlight": "1GB",
    "spark.rdd.compress": "false",
    "spark.shuffle.compress": "true",
    "spark.buffer.size": "8MB",
    "spark.default.parallelism": "application dependent",
}


@dataclass(frozen=True)
class SparkConf:
    """Tunable framework parameters (Table I plus scheduler knobs)."""

    # -- Table I ---------------------------------------------------------
    reducer_max_bytes_in_flight: float = 1 * GB
    rdd_compress: bool = False
    shuffle_compress: bool = True
    buffer_size: float = 8 * MB
    default_parallelism: Optional[int] = None  # application dependent

    # -- scheduler -------------------------------------------------------
    #: Fetch request size; the paper's network-bottleneck scenario sets
    #: this to 128 KB (Fig 13(b)).
    fetch_request_bytes: float = 1 * GB
    #: Per-request fixed overhead (round trip + server handling).
    fetch_request_overhead: float = 50e-6
    #: Parallel fetch streams per reducer.
    max_concurrent_fetches: int = 4
    #: Delay-scheduling locality wait; 0 disables waiting.
    locality_wait: float = 3.0
    #: Fixed scheduling/launch overhead added to every task (Spark 0.7
    #: dispatch, serialization and JVM launch latency).
    task_overhead: float = 0.05

    def __post_init__(self) -> None:
        # Fail at construction (``with_`` goes through here too): a zero
        # fetch window would stall every reducer without an error, and a
        # zero request size would divide by zero mid-fetch.
        window = self.max_concurrent_fetches
        if isinstance(window, bool) \
                or not isinstance(window, numbers.Integral) or window < 1:
            raise ValueError(
                f"max_concurrent_fetches must be an int >= 1, "
                f"got {window!r}")
        if not self.fetch_request_bytes > 0:
            raise ValueError(
                f"fetch_request_bytes must be > 0, "
                f"got {self.fetch_request_bytes!r}")
        for name in ("fetch_request_overhead", "task_overhead",
                     "locality_wait"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value!r}")

    def table_i(self) -> Dict[str, str]:
        """Render the Table I view of this configuration."""
        par = (str(self.default_parallelism)
               if self.default_parallelism is not None
               else "application dependent")
        return {
            "spark.reducer.maxMbInFlight":
                f"{self.reducer_max_bytes_in_flight / GB:.0f}GB",
            "spark.rdd.compress": str(self.rdd_compress).lower(),
            "spark.shuffle.compress": str(self.shuffle_compress).lower(),
            "spark.buffer.size": f"{self.buffer_size / MB:.0f}MB",
            "spark.default.parallelism": par,
        }

    def with_(self, **kw) -> "SparkConf":
        """A modified copy (frozen-dataclass convenience)."""
        return replace(self, **kw)
