"""Per-node Lustre client with a write-back cache.

Writes land in the client's page cache under a write lock and are flushed
to the OSS pool in the background; the client throttles writers once its
dirty-byte grant is exhausted.  Data the client itself wrote can be read
back at memory speed ("due to the effect of large buffer cache ... those
intermediate data and corresponding metadata such as write locks still
reside in the local memory" — paper §IV-B).  A lock revocation forces an
immediate, prioritised flush of one file's dirty bytes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Hashable

from repro.sim.events import URGENT, Event
from repro.sim.fluid import FluidPipe
from repro.storage.device import GB, MB

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator
    from repro.lustre.oss import OSSPool

__all__ = ["LustreClient"]


class LustreClient:
    """One node's view of Lustre: dirty cache, clean cache, flush engine."""

    def __init__(self, sim: "Simulator", oss: "OSSPool", node_id: int,
                 memory_bw: float = 3.0 * GB,
                 cache_bytes: float = 16 * GB,
                 dirty_limit_bytes: float = 1 * GB) -> None:
        self.sim = sim
        self.oss = oss
        self.node_id = node_id
        self.cache_bytes = float(cache_bytes)
        self.dirty_limit = float(dirty_limit_bytes)
        self.mem_pipe = FluidPipe(sim, memory_bw, name=f"lc{node_id}.mem")
        self.dirty: "OrderedDict[Hashable, float]" = OrderedDict()
        self.dirty_total = 0.0
        self.clean: "OrderedDict[Hashable, float]" = OrderedDict()
        self.clean_total = 0.0
        self._in_flight: Dict[Hashable, Event] = {}
        self._in_flight_bytes: Dict[Hashable, float] = {}
        #: Files unlinked while their flush was in flight: the flush
        #: completes (the OSS write is already issued) but the pages must
        #: not re-enter the clean cache afterwards.
        self._dropped: set = set()
        self._wb_active = False
        #: The file and bytes of the writeback write in flight.
        self._wb_file: Hashable = None
        self._wb_bytes = 0.0
        # Statistics.
        self.bytes_written = 0.0
        self.bytes_throttled = 0.0
        self.forced_flushes = 0

    # -- cache bookkeeping -----------------------------------------------------
    def cached_bytes_of(self, file_id: Hashable) -> float:
        # Bytes being flushed are still memory-resident and readable.
        return (self.dirty.get(file_id, 0.0)
                + self._in_flight_bytes.get(file_id, 0.0)
                + self.clean.get(file_id, 0.0))

    def dirty_bytes_of(self, file_id: Hashable) -> float:
        return self.dirty.get(file_id, 0.0)

    def _add_dirty(self, file_id: Hashable, nbytes: float) -> None:
        self.dirty[file_id] = self.dirty.get(file_id, 0.0) + nbytes
        self.dirty_total += nbytes

    def _add_clean(self, file_id: Hashable, nbytes: float) -> None:
        if file_id in self.clean:
            self.clean[file_id] += nbytes
            self.clean.move_to_end(file_id)
        else:
            self.clean[file_id] = nbytes
        self.clean_total += nbytes
        self._evict_clean()

    def _evict_clean(self) -> None:
        # Only clean pages are evictable; dirty pages are pinned until flushed.
        budget = self.cache_bytes - self.dirty_total
        while self.clean_total > budget and self.clean:
            fid, nbytes = next(iter(self.clean.items()))
            overflow = self.clean_total - budget
            if nbytes <= overflow:
                self.clean.popitem(last=False)
                self.clean_total -= nbytes
            else:
                self.clean[fid] = nbytes - overflow
                self.clean_total -= overflow

    def drop_file(self, file_id: Hashable) -> None:
        """Forget a deleted file's cached pages (dirty pages are dropped
        without a flush: the file no longer exists)."""
        self.dirty_total -= self.dirty.pop(file_id, 0.0)
        self.clean_total -= self.clean.pop(file_id, 0.0)
        if file_id in self._in_flight_bytes:
            self._dropped.add(file_id)

    def split_file(self, file_id: Hashable, parts: list) -> None:
        """Redistribute a bundled file's cached bytes over named subfiles.

        The shuffle-store phase writes each node's output as one bundle for
        efficiency; before a Lustre-shared shuffle the bundle is re-keyed
        into per-reducer files so that LDLM locking happens at the same
        granularity Spark's shuffle files would."""
        if not parts:
            raise ValueError("parts must be non-empty")
        dirty = self.dirty.pop(file_id, 0.0)
        clean = self.clean.pop(file_id, 0.0)
        if dirty > 0:
            share = dirty / len(parts)
            for p in parts:
                self.dirty[p] = self.dirty.get(p, 0.0) + share
        if clean > 0:
            share = clean / len(parts)
            for p in parts:
                self.clean[p] = self.clean.get(p, 0.0) + share

    # -- write path ---------------------------------------------------------------
    def write(self, nbytes: float, file_id: Hashable) -> Event:
        """Write ``nbytes`` of ``file_id`` under this client's write lock."""
        if nbytes < 0:
            raise ValueError(f"negative write {nbytes}")

        def go():
            self.bytes_written += nbytes
            headroom = max(0.0, self.dirty_limit - self.dirty_total)
            fast = min(nbytes, headroom)
            slow = nbytes - fast
            if fast > 0:
                self._add_dirty(file_id, fast)
                self._kick_writeback()
                yield self.mem_pipe.transfer(fast)
            if slow > 0:
                # Grant exhausted: write-through at the OSS pool's pace.
                self.bytes_throttled += slow
                yield self.oss.write(slow)
                self._add_clean(file_id, slow)
            return nbytes

        return self.sim.process(go(), name=f"lc{self.node_id}.write")

    # -- local read path -------------------------------------------------------
    def read_local(self, nbytes: float, file_id: Hashable,
                   of_total: float = None) -> Event:
        """Read data this client wrote: cache at memory speed, else OSS.

        ``of_total`` marks a slice of a larger bundle; the hit fraction is
        then the bundle's resident fraction (see PageCache.read).
        """
        if nbytes < 0:
            raise ValueError(f"negative read {nbytes}")

        def go():
            cached = self.cached_bytes_of(file_id)
            if of_total is not None and of_total > 0:
                hit = nbytes * min(1.0, cached / of_total)
            else:
                hit = min(nbytes, cached)
            miss = nbytes - hit
            if hit > 0:
                if file_id in self.clean:
                    self.clean.move_to_end(file_id)
                yield self.mem_pipe.transfer(hit)
            if miss > 0:
                yield self.oss.read(miss)
            return nbytes

        return self.sim.process(go(), name=f"lc{self.node_id}.read")

    # -- flushing ------------------------------------------------------------------
    def flush_file(self, file_id: Hashable) -> Event:
        """Forced flush on lock revocation: all dirty bytes of ``file_id``
        must reach the OSSes before the lock can be granted elsewhere."""
        pending = self._in_flight.get(file_id)
        if pending is not None:
            return pending  # already being flushed; wait for that
        nbytes = self.dirty.pop(file_id, 0.0)
        ev = Event(self.sim, name=f"lc{self.node_id}.ff")
        if nbytes <= 0:
            ev.succeed()
            return ev
        self.forced_flushes += 1
        self._in_flight[file_id] = ev
        self._in_flight_bytes[file_id] = nbytes

        def go():
            yield self.oss.write(nbytes)
            self.dirty_total -= nbytes
            self._add_clean(file_id, nbytes)
            del self._in_flight[file_id]
            del self._in_flight_bytes[file_id]
            ev.succeed()

        self.sim.process(go(), name=f"lc{self.node_id}.ffio")
        return ev

    def _kick_writeback(self) -> None:
        if not self._wb_active and self.dirty:
            self._wb_active = True
            # URGENT: the key a writeback process start had.
            self.sim.schedule_now(self._writeback, (), URGENT)

    def _writeback(self) -> None:
        """Flush the oldest dirty file, or go idle once none is left.

        A callback chain (``oss.write`` → :meth:`_file_written`), like
        ``PageCache._writeback``: a client torn down mid-writeback runs
        no code when the collector frees it."""
        if not self.dirty:
            self._wb_active = False
            return
        file_id, nbytes = next(iter(self.dirty.items()))
        del self.dirty[file_id]
        self._in_flight[file_id] = Event(self.sim,
                                         name=f"lc{self.node_id}.wbff")
        self._in_flight_bytes[file_id] = nbytes
        self._wb_file = file_id
        self._wb_bytes = nbytes
        self.oss.write(nbytes, then=self._file_written)

    def _file_written(self) -> None:
        file_id = self._wb_file
        nbytes = self._wb_bytes
        self.dirty_total -= nbytes
        if file_id in self._dropped:
            self._dropped.discard(file_id)
        else:
            self._add_clean(file_id, nbytes)
        ev = self._in_flight.pop(file_id)
        del self._in_flight_bytes[file_id]
        ev.succeed()
        self._writeback()
