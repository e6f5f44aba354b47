"""Fluid-bandwidth block devices."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.events import Event
from repro.sim.fluid import FluidPipe

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["BlockDevice", "DeviceFullError"]

MB = 1024.0 ** 2
GB = 1024.0 ** 3


class DeviceFullError(Exception):
    """Raised when a write would exceed device capacity."""


class BlockDevice:
    """A block device with separate read/write fluid channels.

    Concurrent I/Os share each channel under max–min fairness.  Large
    requests are internally chunked so that load-dependent capacity
    functions (see :class:`~repro.storage.ssd.SSDDevice`) are re-evaluated
    at a reasonable granularity.
    """

    def __init__(self, sim: "Simulator",
                 read_bw: float, write_bw: float,
                 capacity_bytes: float = math.inf,
                 name: str = "dev",
                 chunk_bytes: float = 128 * MB,
                 write_capacity_fn: Optional[Callable[[int], float]] = None,
                 read_capacity_fn: Optional[Callable[[int], float]] = None) -> None:
        if read_bw <= 0 or write_bw <= 0:
            raise ValueError("device bandwidths must be positive")
        self.sim = sim
        self.name = name
        self.peak_read_bw = float(read_bw)
        self.peak_write_bw = float(write_bw)
        self.capacity_bytes = float(capacity_bytes)
        self.chunk_bytes = float(chunk_bytes)
        self.used_bytes = 0.0
        self.read_pipe = FluidPipe(sim, read_bw, name=f"{name}.rd",
                                   capacity_fn=read_capacity_fn)
        self.write_pipe = FluidPipe(sim, write_bw, name=f"{name}.wr",
                                    capacity_fn=write_capacity_fn)

    # -- accounting ---------------------------------------------------------
    @property
    def bytes_written(self) -> float:
        return self.write_pipe.bytes_completed

    @property
    def bytes_read(self) -> float:
        return self.read_pipe.bytes_completed

    @property
    def queue_depth(self) -> int:
        """Concurrent in-flight I/Os across both channels (telemetry
        gauge; the congestion signal CAD's §VI-B reasoning is about)."""
        return self.read_pipe.n_active + self.write_pipe.n_active

    @property
    def free_bytes(self) -> float:
        return self.capacity_bytes - self.used_bytes

    def allocate(self, nbytes: float) -> None:
        """Reserve space for ``nbytes``; raises when the device is full."""
        if self.used_bytes + nbytes > self.capacity_bytes + 1e-6:
            raise DeviceFullError(
                f"{self.name}: write of {nbytes / GB:.2f} GB exceeds free "
                f"{self.free_bytes / GB:.2f} GB")
        self.used_bytes += nbytes

    def release(self, nbytes: float) -> None:
        self.used_bytes = max(0.0, self.used_bytes - nbytes)

    def trim(self, nbytes: float) -> None:
        """Advise the device that ``nbytes`` of stored data were deleted
        (fstrim/DISCARD).  Plain devices ignore it; flash devices use it
        to return erased blocks to the clean pool so that deleting one
        job's files actually relieves GC pressure for the next job."""

    # -- I/O ------------------------------------------------------------------
    # Both take ``then`` as :meth:`FluidPipe.transfer` does: a callback
    # in place of the returned event.
    def write(self, nbytes: float, account: bool = True,
              then: Optional[Callable[[], Any]] = None) -> Optional[Event]:
        """Write ``nbytes``; the event succeeds when the last byte lands."""
        if nbytes < 0:
            raise ValueError(f"negative write {nbytes}")
        if account:
            self.allocate(nbytes)
        return self.write_pipe.transfer_chunked(
            nbytes, self.chunk_bytes, then)

    def read(self, nbytes: float,
             then: Optional[Callable[[], Any]] = None) -> Optional[Event]:
        if nbytes < 0:
            raise ValueError(f"negative read {nbytes}")
        return self.read_pipe.transfer_chunked(
            nbytes, self.chunk_bytes, then)
