"""Tests for the page cache and LocalVolume."""

import pytest

from repro.sim import Simulator
from repro.sim.events import URGENT
from repro.sim.process import Process
from repro.storage import BlockDevice, LocalVolume, PageCache
from repro.storage.device import GB, MB


@pytest.fixture
def sim():
    return Simulator()


def make_pc(sim, **kw):
    dev = BlockDevice(sim, read_bw=100 * MB, write_bw=100 * MB, name="slow")
    kw.setdefault("memory_bw", 1000 * MB)
    kw.setdefault("cache_bytes", 1 * GB)
    kw.setdefault("dirty_limit_bytes", 512 * MB)
    return dev, PageCache(sim, dev, **kw)


class TestWrites:
    def test_small_write_absorbed_at_memory_speed(self, sim):
        dev, pc = make_pc(sim)
        done = pc.write(100 * MB, "f1")
        sim.run(until=done)
        # 100 MB at 1000 MB/s memory speed, not 100 MB/s device speed.
        assert sim.now == pytest.approx(0.1, rel=1e-2)
        assert pc.bytes_absorbed == pytest.approx(100 * MB)

    def test_write_beyond_dirty_limit_throttled(self, sim):
        dev, pc = make_pc(sim)
        done = pc.write(1024 * MB, "f1")
        sim.run(until=done)
        # 512 MB fast, 512 MB at device speed (shared with writeback).
        assert pc.bytes_throttled == pytest.approx(512 * MB)
        assert sim.now > 5.0  # must include device-speed time

    def test_writeback_eventually_cleans_dirty(self, sim):
        dev, pc = make_pc(sim)
        sim.run(until=pc.write(256 * MB, "f1"))
        sim.run()  # let background writeback finish
        assert pc.dirty == pytest.approx(0.0, abs=1.0)
        assert dev.bytes_written == pytest.approx(256 * MB, rel=1e-6)

    def test_flush_event(self, sim):
        dev, pc = make_pc(sim)
        sim.run(until=pc.write(256 * MB, "f1"))
        flushed = pc.flush()
        sim.run(until=flushed)
        assert pc.dirty == pytest.approx(0.0, abs=1.0)

    def test_flush_when_clean_is_immediate(self, sim):
        dev, pc = make_pc(sim)
        ev = pc.flush()
        assert ev.triggered

    def test_writeback_runs_without_a_process(self, sim, monkeypatch):
        """Writeback is a callback chain: a cache freed mid-writeback
        (a finished job's cluster) has no parked generator to close."""
        created = []
        init = Process.__init__

        def counting(self, *args, **kwargs):
            created.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Process, "__init__", counting)
        dev, pc = make_pc(sim)
        sim.run(until=pc.write(100 * MB, "f1"))
        assert pc._wb_active and pc.dirty > 0
        assert len(created) == 1  # the write itself
        sim.run()
        assert not pc._wb_active and pc.dirty == 0.0
        assert len(created) == 1

    def test_negative_write_rejected(self, sim):
        dev, pc = make_pc(sim)
        with pytest.raises(ValueError):
            pc.write(-1, "f")


class TestReads:
    def test_read_hit_at_memory_speed(self, sim):
        dev, pc = make_pc(sim)
        sim.run(until=pc.write(100 * MB, "f1"))
        start = sim.now
        sim.run(until=pc.read(100 * MB, "f1"))
        assert sim.now - start == pytest.approx(0.1, rel=1e-2)
        assert pc.read_hits == pytest.approx(100 * MB)

    def test_read_miss_goes_to_device(self, sim):
        dev, pc = make_pc(sim)
        done = pc.read(100 * MB, "not-cached")
        sim.run(until=done)
        assert sim.now == pytest.approx(1.0, rel=1e-2)
        assert pc.read_misses == pytest.approx(100 * MB)

    def test_read_miss_populates_cache(self, sim):
        dev, pc = make_pc(sim)
        sim.run(until=pc.read(100 * MB, "f1"))
        assert pc.cached_bytes_of("f1") == pytest.approx(100 * MB)

    def test_lru_eviction(self, sim):
        dev, pc = make_pc(sim, cache_bytes=300 * MB, dirty_limit_bytes=290 * MB)
        sim.run(until=pc.write(200 * MB, "old"))
        sim.run()
        sim.run(until=pc.write(200 * MB, "new"))
        sim.run()
        # "old" must have been (partially) evicted to fit "new".
        assert pc.resident_bytes <= 300 * MB + 1.0
        assert pc.cached_bytes_of("new") == pytest.approx(200 * MB)
        assert pc.cached_bytes_of("old") < 200 * MB

    def test_invalidate(self, sim):
        dev, pc = make_pc(sim)
        sim.run(until=pc.write(50 * MB, "f1"))
        pc.invalidate("f1")
        assert pc.cached_bytes_of("f1") == 0.0

    def test_slice_read_hits_in_resident_proportion(self, sim):
        dev, pc = make_pc(sim, cache_bytes=100 * MB,
                          dirty_limit_bytes=90 * MB)
        # 200 MB bundle of which only 100 MB stays resident.
        sim.run(until=pc.write(90 * MB, "bundle"))
        sim.run()
        sim.run(until=pc.read(10 * MB, "other"))  # fill to 100 MB
        sim.run(until=pc.read(40 * MB, "bundle", of_total=200 * MB))
        # 45% of the bundle resident -> 45% of the slice hits.
        assert pc.read_hits == pytest.approx(0.45 * 40 * MB)

    def test_slice_hit_clamped_to_resident_bytes(self, sim):
        """A slice larger than the cached remainder must not hit for
        more bytes than are actually resident (the old unclamped
        ``nbytes * cached/of_total`` could, when combined with a
        repopulated LRU, credit more than residency)."""
        dev, pc = make_pc(sim)
        sim.run(until=pc.write(10 * MB, "bundle"))
        sim.run()
        sim.run(until=pc.read(100 * MB, "bundle", of_total=100 * MB))
        assert pc.read_hits <= pc.cached_bytes_of("bundle") + 1.0
        assert pc.read_hits == pytest.approx(10 * MB)

    @pytest.mark.parametrize("evict,hit_frac", [
        ("urgent-queued-before", 0),
        ("normal-queued-before", 1),
        ("right-after-the-call", 0)])
    def test_hit_split_taken_in_an_urgent_entry(self, sim, evict,
                                                hit_frac):
        """The hit/miss split runs in an URGENT entry queued by the
        call: after URGENT work already queued at that instant, ahead
        of all NORMAL work, and not inside the call itself."""
        dev, pc = make_pc(sim)
        sim.run(until=pc.write(100 * MB, "f1"))
        sim.run()
        if evict == "urgent-queued-before":
            sim.schedule_now(pc.invalidate, ("f1",), URGENT)
        elif evict == "normal-queued-before":
            sim.schedule_now(pc.invalidate, ("f1",))
        done = pc.read(100 * MB, "f1")
        if evict == "right-after-the-call":
            pc.invalidate("f1")
        sim.run(until=done)
        assert done.value == 100 * MB
        assert pc.read_hits == pytest.approx(hit_frac * 100 * MB)
        assert pc.read_hits + pc.read_misses == pytest.approx(100 * MB)

    def test_slice_read_larger_than_bundle_rejected(self, sim):
        dev, pc = make_pc(sim)
        with pytest.raises(ValueError):
            pc.read(200 * MB, "bundle", of_total=100 * MB)


class TestInvalidateDirty:
    def test_invalidate_cancels_pending_writeback(self, sim):
        """Deleting a dirty file must cancel its unwritten dirty bytes —
        the old code left ``dirty`` inflated, so writeback drained
        device bandwidth for data that no longer existed."""
        dev, pc = make_pc(sim)
        sim.run(until=pc.write(256 * MB, "doomed"))
        pc.invalidate("doomed")
        # At most one claimed in-flight chunk may still complete.
        assert pc.dirty <= pc.writeback_chunk + 1.0
        sim.run()
        assert pc.dirty == pytest.approx(0.0, abs=1.0)
        assert dev.bytes_written <= pc.writeback_chunk + 1.0

    def test_invalidate_spares_other_files_dirty_bytes(self, sim):
        dev, pc = make_pc(sim)
        sim.run(until=pc.write(100 * MB, "keep"))
        sim.run(until=pc.write(100 * MB, "doomed"))
        pc.invalidate("doomed")
        sim.run()
        # "keep"'s dirty bytes (less anything already drained before the
        # invalidate) still reach the device; "doomed"'s mostly don't.
        assert pc.dirty == pytest.approx(0.0, abs=1.0)
        assert 100 * MB - pc.writeback_chunk <= dev.bytes_written
        assert dev.bytes_written <= 100 * MB + 2 * pc.writeback_chunk

    def test_invalidate_then_flush_is_fast(self, sim):
        dev, pc = make_pc(sim)
        sim.run(until=pc.write(400 * MB, "doomed"))
        pc.invalidate("doomed")
        start = sim.now
        sim.run(until=pc.flush())
        # Only the in-flight chunk (64 MB at 100 MB/s) remains to drain,
        # not the full 400 MB (4 s).
        assert sim.now - start < 1.0


class TestLocalVolume:
    def test_volume_without_cache_hits_device(self, sim):
        dev = BlockDevice(sim, read_bw=100 * MB, write_bw=100 * MB)
        vol = LocalVolume(sim, dev, use_page_cache=False)
        done = vol.write(100 * MB, "f")
        sim.run(until=done)
        assert sim.now == pytest.approx(1.0)

    def test_volume_with_cache_is_faster(self, sim):
        dev = BlockDevice(sim, read_bw=100 * MB, write_bw=100 * MB)
        vol = LocalVolume(sim, dev, use_page_cache=True,
                          memory_bw=1000 * MB, cache_bytes=GB)
        done = vol.write(100 * MB, "f")
        sim.run(until=done)
        assert sim.now < 0.5

    def test_volume_accounts_capacity(self, sim):
        dev = BlockDevice(sim, read_bw=GB, write_bw=GB, capacity_bytes=GB)
        vol = LocalVolume(sim, dev, use_page_cache=True)
        vol.write(0.5 * GB, "a")
        assert vol.used_bytes == pytest.approx(0.5 * GB)
        vol.delete(0.5 * GB, "a")
        assert vol.used_bytes == pytest.approx(0.0)
