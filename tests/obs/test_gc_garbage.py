"""Finished simulation work is freed by refcounting, not the cyclic GC.

A completion event must not be reachable from the object it delivers
(DESIGN.md §8, "Garbage-collector cost").  Each test here runs with the
collector disabled and ``gc.DEBUG_SAVEALL`` set, so everything that only
the cyclic collector could free lands in ``gc.garbage`` on the explicit
``gc.collect()``; a finished transfer that forms a cycle with its event
shows up there as an ``Event`` plus a ``Flow``/``NetFlow``, and a fetch
or page-cache read that closed a cycle as a ``_FetchPump``, ``_Slice``
or ``_Read`` record.  The simulator, pipes and fabric stay referenced
through the collection, so only per-transfer garbage can appear.

The telemetry half pins the run-log representation: appending events
with atomic payloads adds no object the collector tracks, however many
there are, and the live store exports the same Chrome trace and run log
as a store read back from disk.
"""

import gc
import json
from contextlib import contextmanager

import pytest

from repro.cli import main
from repro.cluster.cluster import Cluster
from repro.cluster.spec import GB, MB, hyperion
from repro.core.engine import EngineOptions, run_job
from repro.core.shuffle import _FetchPump, _Slice
from repro.net import fastalloc
from repro.net.fabric import Fabric, NetFlow
from repro.obs.export import chrome_trace, runlog_lines
from repro.obs.runlog import load_runlog
from repro.obs.telemetry import Telemetry
from repro.sim import fastdrain
from repro.sim.core import Simulator
from repro.sim.events import Event
from repro.sim.fluid import Flow, FluidPipe
from repro.storage.pagecache import _Read
from repro.workloads import groupby_spec
from tests.core.test_shuffle import make_plan, run_bodies

_CYCLIC = (Event, Flow, NetFlow, _FetchPump, _Slice, _Read)


@contextmanager
def saveall():
    """Collector off and DEBUG_SAVEALL on; yields the garbage check."""
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    gc.garbage.clear()

    def cyclic_garbage():
        gc.collect()
        return [type(o).__name__ for o in gc.garbage
                if isinstance(o, _CYCLIC)]
    try:
        yield cyclic_garbage
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.fixture(params=["c", "numpy"])
def kernels(request, monkeypatch):
    """Every completion site: C kernels and their NumPy fallbacks."""
    if request.param == "numpy":
        monkeypatch.setattr(fastalloc, "AVAILABLE", False)
        monkeypatch.setattr(fastdrain, "RAW_DRAIN", None)
    return request.param


def _waiter(event, seen):
    seen.append((yield event))


class TestTransfersLeaveNoCycles:
    def test_fluid_pipe(self, kernels):
        with saveall() as cyclic_garbage:
            sim = Simulator()
            pipe = FluidPipe(sim, capacity=100.0, name="disk")
            seen = []
            for size in (0.0, 50.0, 0.0, 120.0, 300.0):
                sim.process(_waiter(pipe.transfer(size), seen))
            sim.run()
            assert len(seen) == 5
            assert all(f.done is None for f in seen)
            del seen
            assert cyclic_garbage() == []

    def test_fabric_fluid_small_and_loopback(self, kernels):
        with saveall() as cyclic_garbage:
            sim = Simulator()
            fab = Fabric(sim, 4, nic_bw=1e9, small_flow_bytes=1e3)
            seen = []
            for src, dst, size in ((0, 1, 1e7), (2, 1, 2e7),  # fluid
                                   (1, 3, 10.0),               # small
                                   (2, 2, 1e7)):               # loopback
                sim.process(_waiter(fab.transfer(src, dst, size), seen))
            sim.run()
            assert len(seen) == 4
            assert all(f.done is None for f in seen)
            del seen
            assert cyclic_garbage() == []

    def test_small_job(self, kernels):
        with saveall() as cyclic_garbage:
            cluster = Cluster(hyperion(2))
            result = run_job(groupby_spec(1 * GB, split_bytes=64 * MB,
                                          n_reducers=8),
                             cluster=cluster, options=EngineOptions(seed=1))
            assert result.job_time > 0
            assert cyclic_garbage() == []

    def test_small_job_page_cache_fetch(self, kernels):
        """SSD shuffle: every fetch slice reads through the page cache."""
        with saveall() as cyclic_garbage:
            cluster = Cluster(hyperion(2))
            result = run_job(groupby_spec(1 * GB, split_bytes=64 * MB,
                                          n_reducers=8,
                                          shuffle_store="ssd"),
                             cluster=cluster, options=EngineOptions(seed=1))
            assert result.job_time > 0
            assert cyclic_garbage() == []


class TestFetchSliceAllocations:
    """The tracked records the fetch path allocates per slice.

    A slice is one ``_Slice``, the ``Flow`` of its device read, a
    ``_Read`` when the store has a page cache, and a ``NetFlow`` when
    its source is remote.  Its completions are ``then`` callbacks, so it
    allocates no ``Event`` and no ``Process``: those are per reducer.
    Counted as the difference between two runs of the same reducers,
    one with half the sources emptied (their slices are skipped)."""

    TYPES = (Event, Flow, NetFlow, _Slice, _Read)
    N = 8

    def _census(self, monkeypatch, store, empty):
        made = dict.fromkeys(self.TYPES, 0)
        for tp in self.TYPES:
            def counting(obj, *args, _tp=tp, _init=tp.__init__, **kwargs):
                made[_tp] += 1
                _init(obj, *args, **kwargs)
            monkeypatch.setattr(tp, "__init__", counting)
        plan = make_plan(n_nodes=self.N, n_reducers=16,
                         store_bytes_per_node=64 * MB, shuffle_store=store)
        plan.node_store_bytes[list(empty)] = 0.0
        placements = [(r, r % self.N) for r in range(16)]
        run_bodies(plan, placements)
        monkeypatch.undo()
        slices = [(src, node) for _, node in placements
                  for src in range(self.N) if src not in empty]
        remote = sum(1 for src, node in slices if src != node)
        return made, len(slices), remote

    @pytest.mark.parametrize("store", ["ramdisk", "ssd"])
    def test_per_slice(self, monkeypatch, store):
        full, n_full, remote_full = self._census(monkeypatch, store, ())
        half, n_half, remote_half = self._census(monkeypatch, store,
                                                 (1, 3, 5, 7))
        slices = n_full - n_half
        remote = remote_full - remote_half
        assert (slices, remote) == (64, 56)
        per_slice = {tp.__name__: full[tp] - half[tp] for tp in self.TYPES}
        assert per_slice == {
            "Event": 0, "Flow": slices, "NetFlow": remote,
            "_Slice": slices, "_Read": slices if store == "ssd" else 0}


class TestUntrackedRunLog:
    def test_atomic_events_add_no_tracked_object(self):
        """Events whose payload values are atomic add no object the
        cyclic collector tracks: their numbers are packed into their
        shape's table and their strings only referenced, so what a full
        collection scans does not grow with the log."""
        tele = Telemetry()
        sim = Simulator()
        tele.bind(sim)

        def trace(n):
            for i in range(n):
                sim.trace("launch", task=i, node=i % 4, phase="compute",
                          speculative=i % 2 == 0, queued=0.5 * i)
                sim.trace("flow-start", fid=i, src=1, dst=2,
                          nbytes=1e6 + i)

        trace(10)  # the two shapes' tables exist from here on
        gc.collect()
        before = len(gc.get_objects())
        trace(5_000)
        gc.collect()
        grown = len(gc.get_objects()) - before
        assert len(tele.events) == 10_020
        # One tracked object per event would add 10,000.
        assert grown < 100, grown
        assert list(tele.events.select({"launch"}))[-1] == (
            0.0, "launch", {"task": 4_999, "node": 3, "phase": "compute",
                            "speculative": False, "queued": 2_499.5})

    def test_exports_match_round_tripped_runlog(self, tmp_path):
        """The Chrome trace and run log written from the live store equal
        those written from a store read back from disk."""
        path = tmp_path / "run.jsonl"
        trace = tmp_path / "trace.json"
        code = main(["run", "--workload", "groupby", "--data-gb", "2",
                     "--nodes", "2", "--store", "ssd", "--cad", "--seed",
                     "4", "--crash", "1@0.5:1.0",
                     "--trace-out", str(trace), "--metrics-out", str(path)])
        assert code == 0
        log = load_runlog(str(path))
        # Rebuild a telemetry bundle from the on-disk log: its store's
        # (t, kind, payload) records, and a probe stand-in for the series.
        replay = Telemetry()
        replay.meta = log.meta
        for t, kind, payload in log.events:
            replay.events.append(t, kind, payload)
        series = {"time": log.times, **log.columns}
        replay.series = lambda: series
        lines = path.read_text().splitlines()
        replay_lines = list(runlog_lines(replay))
        # Header and events/samples agree; the summary footer comes from
        # the live registry, which the replay does not have.
        assert replay_lines[:-1] == lines[:-1]
        assert json.loads(trace.read_text())["traceEvents"] == \
            json.loads(json.dumps(chrome_trace(replay),
                                  default=str))["traceEvents"]


class TestFinishReleasesTheRun:
    def test_engine_freed_by_refcounting_after_finish(self):
        """The gauges' callbacks reach the engine, cluster and devices;
        ``finish`` pins them to their final readings, so the finished
        engine goes as soon as its caller drops it, with no collector."""
        import weakref

        from repro.core.engine import SparkSim
        tele = Telemetry(probe_period=0.25)
        cluster = Cluster(hyperion(2), seed=0)
        engine = SparkSim(cluster, groupby_spec(512 * MB,
                                                shuffle_store="ssd"),
                          EngineOptions(seed=0), telemetry=tele)
        engine_ref, cluster_ref = weakref.ref(engine), weakref.ref(cluster)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            engine.run()
            live = tele.registry.snapshot()["gauges"]
            del engine, cluster
            assert engine_ref() is None
            assert cluster_ref() is None
            assert tele.registry.snapshot()["gauges"] == live
            assert any(key.startswith("engine.") for key in live)
        finally:
            if was_enabled:
                gc.enable()
