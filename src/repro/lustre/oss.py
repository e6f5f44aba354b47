"""The object-storage-server pool.

All OSSes are modelled as one shared fluid pool: Lustre stripes files
across OSTs, so sustained traffic from many clients sees the aggregate
bandwidth (47 GB/s on Hyperion) regardless of which OST any one extent
lives on.  Reads and writes share the pool, so a flush storm during a
shuffle slows concurrent reads — exactly the cascading contention the
paper describes.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.events import Event
from repro.sim.fluid import FluidPipe
from repro.storage.device import MB

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["OSSPool"]


class OSSPool:
    """Aggregate OSS bandwidth shared by every client in the cluster."""

    def __init__(self, sim: "Simulator", aggregate_bw: float,
                 n_oss: int = 16, chunk_bytes: float = 64 * MB,
                 seek_penalty: float = 0.10,
                 min_efficiency: float = 0.45,
                 name: str = "oss") -> None:
        if aggregate_bw <= 0:
            raise ValueError("aggregate_bw must be positive")
        if n_oss < 1:
            raise ValueError("n_oss must be >= 1")
        if not 0 <= seek_penalty:
            raise ValueError("seek_penalty must be non-negative")
        if not 0 < min_efficiency <= 1:
            raise ValueError("min_efficiency must be in (0, 1]")
        self.sim = sim
        self.name = name
        self.n_oss = n_oss
        self.aggregate_bw = float(aggregate_bw)
        self.chunk_bytes = float(chunk_bytes)
        self.seek_penalty = float(seek_penalty)
        self.min_efficiency = float(min_efficiency)
        # One shared pipe: reads and writes contend with each other.  The
        # advertised aggregate is a *sequential* figure; hundreds of
        # concurrent streams turn the HDD-backed OSTs seek-bound, so
        # efficiency decays logarithmically with stream count.
        self.pipe = FluidPipe(sim, aggregate_bw, name=name,
                              capacity_fn=self._capacity)
        self.bytes_written = 0.0
        self.bytes_read = 0.0

    def _capacity(self, n_streams: int) -> float:
        import math
        eff = 1.0 - self.seek_penalty * math.log1p(max(0, n_streams - 1)
                                                   / self.n_oss)
        return self.aggregate_bw * max(self.min_efficiency, eff)

    def write(self, nbytes: float,
              then: Optional[Callable[[], Any]] = None) -> Optional[Event]:
        """Write ``nbytes``; ``then`` is a callback in place of the
        returned event, as :meth:`FluidPipe.transfer` takes it."""
        if nbytes < 0:
            raise ValueError(f"negative write {nbytes}")
        self.bytes_written += nbytes
        return self.pipe.transfer_chunked(nbytes, self.chunk_bytes, then)

    def read(self, nbytes: float) -> Event:
        if nbytes < 0:
            raise ValueError(f"negative read {nbytes}")
        self.bytes_read += nbytes
        return self.pipe.transfer_chunked(nbytes, self.chunk_bytes)
