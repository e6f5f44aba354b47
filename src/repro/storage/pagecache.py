"""OS page-cache model: dirty throttling, writeback, LRU read cache.

The paper's Fig 8(a/b) crossovers are page-cache effects: writes up to
roughly the cache size complete at memory speed ("caching effects from
the file system"), and shuffle reads of recently written data are served
from memory.  Beyond the dirty limit, writers are throttled to the
device's drain rate — which, for the SSD in its GC era, collapses.

The model:

* ``write(nbytes, file_id)`` — bytes under the dirty headroom are absorbed
  at memory-copy bandwidth; the remainder is written through at device
  speed (sharing the device write channel with background writeback).
* Background writeback drains dirty bytes to the device in chunks
  whenever any are pending.
* ``read(nbytes, file_id)`` — cached bytes are served at memory bandwidth,
  the rest from the device; an LRU keyed by ``file_id`` decides residency.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Hashable, Optional

from repro.sim.events import URGENT, Event
from repro.sim.fluid import FluidPipe, Target
from repro.storage.device import GB, MB, BlockDevice

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["PageCache"]


class PageCache:
    """Write-back page cache in front of a :class:`BlockDevice`."""

    def __init__(self, sim: "Simulator", device: BlockDevice,
                 memory_bw: float = 3.0 * GB,
                 cache_bytes: float = 8.0 * GB,
                 dirty_limit_bytes: Optional[float] = None,
                 writeback_chunk: float = 64 * MB,
                 name: str = "pagecache") -> None:
        if cache_bytes <= 0:
            raise ValueError("cache_bytes must be positive")
        self.sim = sim
        self.device = device
        self.name = name
        self.cache_bytes = float(cache_bytes)
        self.dirty_limit = float(dirty_limit_bytes
                                 if dirty_limit_bytes is not None
                                 else cache_bytes * 0.5)
        self.writeback_chunk = float(writeback_chunk)
        self.mem_pipe = FluidPipe(sim, memory_bw, name=f"{name}.mem")
        self.dirty = 0.0
        #: Pending dirty bytes by file, in write order — the share of
        #: ``dirty`` not yet claimed by an in-flight writeback chunk.
        #: Invariant: ``sum(values) == dirty - claimed-in-flight``.
        self._dirty_of: "OrderedDict[Hashable, float]" = OrderedDict()
        self._wb_active = False
        #: Bytes of the writeback chunk in flight.
        self._wb_chunk = 0.0
        self._clean_waiters: list = []
        # LRU of file_id -> cached bytes.
        self._resident: "OrderedDict[Hashable, float]" = OrderedDict()
        self._resident_total = 0.0
        # Statistics.
        self.bytes_absorbed = 0.0     # fast-path writes
        self.bytes_throttled = 0.0    # writes forced to device speed
        self.read_hits = 0.0
        self.read_misses = 0.0

    # -- residency bookkeeping -------------------------------------------------
    def cached_bytes_of(self, file_id: Hashable) -> float:
        return self._resident.get(file_id, 0.0)

    @property
    def resident_bytes(self) -> float:
        return self._resident_total

    def _insert(self, file_id: Hashable, nbytes: float) -> None:
        if nbytes <= 0:
            return
        if file_id in self._resident:
            self._resident[file_id] += nbytes
            self._resident.move_to_end(file_id)
        else:
            self._resident[file_id] = nbytes
        self._resident_total += nbytes
        self._evict()

    def _touch(self, file_id: Hashable) -> None:
        if file_id in self._resident:
            self._resident.move_to_end(file_id)

    def _evict(self) -> None:
        while self._resident_total > self.cache_bytes and self._resident:
            fid, nbytes = next(iter(self._resident.items()))
            overflow = self._resident_total - self.cache_bytes
            if nbytes <= overflow:
                self._resident.popitem(last=False)
                self._resident_total -= nbytes
            else:
                self._resident[fid] = nbytes - overflow
                self._resident_total -= overflow

    def invalidate(self, file_id: Hashable) -> None:
        """Drop a file from the cache (e.g. after deletion).

        Cancels the file's not-yet-written dirty bytes too: deleted data
        needs no writeback, and leaving it pending would drain device
        bandwidth for a file that no longer exists.  A chunk already
        claimed by an in-flight writeback write cannot be recalled — it
        completes and settles its own share of ``dirty``.
        """
        nbytes = self._resident.pop(file_id, 0.0)
        self._resident_total = max(0.0, self._resident_total - nbytes)
        if not self._resident:
            self._resident_total = 0.0
        pending = self._dirty_of.pop(file_id, 0.0)
        if pending > 0:
            self.dirty = max(0.0, self.dirty - pending)

    # -- I/O paths ---------------------------------------------------------------
    def write(self, nbytes: float, file_id: Hashable,
              account: bool = True) -> Event:
        """Write ``nbytes`` of ``file_id`` through the cache."""
        if nbytes < 0:
            raise ValueError(f"negative write {nbytes}")
        if account:
            self.device.allocate(nbytes)

        def go():
            headroom = max(0.0, self.dirty_limit - self.dirty)
            fast = min(nbytes, headroom)
            slow = nbytes - fast
            if fast > 0:
                self.dirty += fast
                self._dirty_of[file_id] = \
                    self._dirty_of.get(file_id, 0.0) + fast
                self.bytes_absorbed += fast
                self._insert(file_id, fast)
                self._kick_writeback()
                yield self.mem_pipe.transfer(fast)
            if slow > 0:
                # Dirty limit reached: the writer is throttled to device
                # speed, sharing the write channel with background flush.
                self.bytes_throttled += slow
                yield self.device.write(slow, account=False)
                self._insert(file_id, slow)
            return nbytes

        return self.sim.process(go(), name=f"{self.name}.write")

    def read(self, nbytes: float, file_id: Hashable,
             of_total: Optional[float] = None,
             then: Optional[Callable[[], Any]] = None) -> Optional[Event]:
        """Read ``nbytes`` of ``file_id``; cache hits go at memory speed.

        ``of_total`` marks this as a slice of a larger file of that size:
        the hit fraction is then the file's resident fraction, modelling
        random slices of a partially cached bundle (shuffle reads of a
        node's output that only partly fits in the cache).

        The returned event succeeds with ``nbytes``; with ``then``, no
        event is made and ``then()`` runs from the entry the event would
        have pushed (see :meth:`Simulator.complete`).
        """
        if nbytes < 0:
            raise ValueError(f"negative read {nbytes}")
        if of_total is not None and nbytes > of_total * (1 + 1e-9):
            raise ValueError(
                f"slice read of {nbytes} bytes exceeds its declared "
                f"bundle size of_total={of_total}")

        done = None
        target = then
        if then is None:
            target = done = Event(self.sim, name=f"{self.name}.read")
        # The hit/miss split is decided when the URGENT start entry
        # dispatches, not at the call: that entry's key is part of the
        # dispatch-order contract (DESIGN.md §8, "Shuffle fetch pump").
        self.sim.schedule_now(_Read(self, nbytes, file_id, of_total,
                                    target).start, (), URGENT)
        return done

    # -- background writeback -------------------------------------------------
    def _claim_dirty(self, chunk: float) -> None:
        """Remove ``chunk`` bytes of per-file attribution, oldest first."""
        remaining = chunk
        while remaining > 1e-9 and self._dirty_of:
            fid, pending = next(iter(self._dirty_of.items()))
            if pending <= remaining + 1e-9:
                self._dirty_of.popitem(last=False)
                remaining -= pending
            else:
                self._dirty_of[fid] = pending - remaining
                remaining = 0.0

    def _kick_writeback(self) -> None:
        if not self._wb_active and self.dirty > 0:
            self._wb_active = True
            # URGENT: the first chunk is claimed ahead of this instant's
            # NORMAL work (the dispatch-order contract, DESIGN.md §8).
            self.sim.schedule_now(self._writeback, (), URGENT)

    def _writeback(self) -> None:
        """Write the next dirty chunk back, or go idle once clean.

        A callback chain, not a generator process: a cache torn down
        mid-writeback (a finished job's cluster) then runs no code when
        the collector frees it."""
        if self.dirty > 1e-6:
            chunk = self._wb_chunk = min(self.writeback_chunk, self.dirty)
            # Claim the chunk's per-file attribution (oldest first)
            # BEFORE issuing the device write: once in flight it cannot
            # be cancelled, so invalidate() must not see these bytes.
            self._claim_dirty(chunk)
            self.device.write(chunk, account=False,
                              then=self._chunk_written)
            return
        self._wb_active = False
        waiters, self._clean_waiters = self._clean_waiters, []
        for ev in waiters:
            ev.succeed()

    def _chunk_written(self) -> None:
        self.dirty = max(0.0, self.dirty - self._wb_chunk)
        self._writeback()

    def flush(self) -> Event:
        """Force all dirty bytes to the device; event fires when clean."""
        ev = Event(self.sim, name=f"{self.name}.flush")
        if self.dirty <= 1e-6:
            ev.succeed()
            return ev
        self._clean_waiters.append(ev)
        self._kick_writeback()
        return ev


class _Read:
    """One in-flight :meth:`PageCache.read`, chained by callbacks.

    ``start`` (an URGENT entry) splits the read into cached and missing
    bytes; the hit goes through the memory pipe, then the miss through
    the device, then ``done`` (the read's event or its caller's
    callback) fires with ``nbytes``.  Each hop passes a bound method as
    ``then``, so no hop makes an event.  A record, not a closure: a
    finished read forms no cycle (DESIGN.md §8).
    """

    __slots__ = ("cache", "nbytes", "file_id", "of_total", "miss", "done")

    def __init__(self, cache: PageCache, nbytes: float, file_id: Hashable,
                 of_total: Optional[float], done: Target) -> None:
        self.cache = cache
        self.nbytes = nbytes
        self.file_id = file_id
        self.of_total = of_total
        self.miss = 0.0
        self.done = done

    def start(self) -> None:
        cache = self.cache
        nbytes = self.nbytes
        file_id = self.file_id
        of_total = self.of_total
        cached = cache.cached_bytes_of(file_id)
        if of_total is not None and of_total > 0:
            # A slice hits in proportion to the bundle's resident
            # fraction — but never more than is actually resident (the
            # unclamped product overstated hits whenever the slice was
            # larger than the cached remainder).
            hit = min(nbytes * min(1.0, cached / of_total), cached)
        else:
            hit = min(nbytes, cached)
        self.miss = miss = nbytes - hit
        cache._touch(file_id)
        cache.read_hits += hit
        cache.read_misses += miss
        if hit > 0:
            cache.mem_pipe.transfer(hit, then=self._hit_done)
        else:
            self._hit_done()

    def _hit_done(self) -> None:
        if self.miss > 0:
            self.cache.device.read(self.miss, then=self._miss_done)
        else:
            self._finish()

    def _miss_done(self) -> None:
        if self.of_total is None:
            # Slice reads of a bigger bundle are read-once shuffle
            # traffic; caching them would overstate residency.
            self.cache._insert(self.file_id, self.miss)
        self._finish()

    def _finish(self) -> None:
        done = self.done
        self.done = None
        self.cache.sim.complete(done, self.nbytes)
