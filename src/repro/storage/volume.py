"""A mounted local filesystem: page cache over a block device."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Hashable, Optional

from repro.sim.events import Event
from repro.storage.device import GB, BlockDevice
from repro.storage.pagecache import PageCache

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["LocalVolume"]


class LocalVolume:
    """A node-local filesystem volume.

    Writes and reads go through an optional :class:`PageCache`.  RAMDisk
    volumes skip the cache (they *are* memory); ext4-over-SSD volumes use
    it, which is what produces the paper's ≤600 GB "comparable to RAMDisk"
    regime in Fig 8(a).
    """

    def __init__(self, sim: "Simulator", device: BlockDevice,
                 use_page_cache: bool = True,
                 memory_bw: float = 3.0 * GB,
                 cache_bytes: float = 8.0 * GB,
                 dirty_limit_bytes: Optional[float] = None,
                 name: str = "vol") -> None:
        self.sim = sim
        self.device = device
        self.name = name
        self.cache: Optional[PageCache] = None
        if use_page_cache:
            self.cache = PageCache(sim, device, memory_bw=memory_bw,
                                   cache_bytes=cache_bytes,
                                   dirty_limit_bytes=dirty_limit_bytes,
                                   name=f"{name}.pc")

    @property
    def free_bytes(self) -> float:
        return self.device.free_bytes

    @property
    def used_bytes(self) -> float:
        return self.device.used_bytes

    def write(self, nbytes: float, file_id: Hashable) -> Event:
        if self.cache is not None:
            return self.cache.write(nbytes, file_id)
        return self.device.write(nbytes)

    def read(self, nbytes: float, file_id: Hashable,
             of_total: Optional[float] = None,
             then: Optional[Callable[[], Any]] = None) -> Optional[Event]:
        if self.cache is not None:
            return self.cache.read(nbytes, file_id, of_total=of_total,
                                   then=then)
        return self.device.read(nbytes, then=then)

    def delete(self, nbytes: float, file_id: Hashable) -> None:
        self.device.release(nbytes)
        self.device.trim(nbytes)
        if self.cache is not None:
            self.cache.invalidate(file_id)
