"""Memory elasticity: heap accounting, spill curve, elastic scheduling
(DESIGN.md §13)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.spec import hyperion
from repro.core import (
    ClusterMemory,
    EngineOptions,
    MemoryConfig,
    MemoryGate,
    SparkSim,
    SpillCurve,
    run_job,
)
from repro.cluster.cluster import Cluster
from repro.workloads import groupby_spec

GB = 1024.0 ** 3
MB = 1024.0 ** 2


class TestMemoryConfig:
    def test_defaults_are_full_rigid(self):
        cfg = MemoryConfig()
        assert cfg.mem_frac == 1.0
        assert not cfg.elastic

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryConfig(mem_frac=0.0)
        with pytest.raises(ValueError):
            MemoryConfig(mem_frac=1.5)
        with pytest.raises(ValueError):
            MemoryConfig(min_task_frac=0.0)
        with pytest.raises(ValueError):
            MemoryConfig(spill_store="floppy")
        with pytest.raises(ValueError):
            MemoryConfig(spill_ratio=-1.0)
        with pytest.raises(ValueError):
            MemoryConfig(spill_gamma=0.0)

    def test_with_(self):
        cfg = MemoryConfig().with_(mem_frac=0.5, elastic=True)
        assert cfg.mem_frac == 0.5 and cfg.elastic


class TestSpillCurve:
    def test_zero_at_full_heap(self):
        assert SpillCurve(GB, ratio=1.0, gamma=1.0).spilled_bytes(1.0) == 0.0

    def test_rejects_nonpositive_frac(self):
        with pytest.raises(ValueError):
            SpillCurve(GB, ratio=1.0, gamma=1.0).spilled_bytes(0.0)

    def test_linear_curve(self):
        curve = SpillCurve(GB, ratio=1.0, gamma=1.0)
        assert curve.spilled_bytes(0.25) == pytest.approx(0.75 * GB)

    @given(working=st.floats(min_value=MB, max_value=100 * GB),
           ratio=st.floats(min_value=0.0, max_value=2.0),
           gamma=st.floats(min_value=0.2, max_value=4.0),
           f1=st.floats(min_value=0.01, max_value=1.0),
           f2=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_nonincreasing_in_frac(self, working, ratio, gamma,
                                            f1, f2):
        """More memory never spills more, and a full heap never spills."""
        curve = SpillCurve(working, ratio=ratio, gamma=gamma)
        lo, hi = min(f1, f2), max(f1, f2)
        assert curve.spilled_bytes(hi) <= curve.spilled_bytes(lo) + 1e-9
        assert curve.spilled_bytes(1.0) == 0.0
        assert curve.spilled_bytes(lo) >= 0.0


class TestClusterMemory:
    def test_reserve_release(self):
        mem = ClusterMemory(2, heap_bytes=10 * GB)
        mem.reserve(0, 4 * GB)
        assert mem.free(0) == pytest.approx(6 * GB)
        assert mem.free(1) == pytest.approx(10 * GB)
        assert mem.exec_count[0] == 1
        assert mem.has_outstanding()
        mem.release(0, 4 * GB)
        assert mem.free(0) == pytest.approx(10 * GB)
        assert not mem.has_outstanding()

    def test_cache_region_does_not_reduce_exec_free(self):
        """Spark unified memory: the storage region is evictable, so it
        never gates execution admission."""
        mem = ClusterMemory(1, heap_bytes=10 * GB)
        mem.reserve_cache(0, 8 * GB)
        assert mem.cache_used[0] == pytest.approx(8 * GB)
        assert mem.free(0) == pytest.approx(10 * GB)

    def test_release_notifies_listeners(self):
        mem = ClusterMemory(2, heap_bytes=GB)
        seen = []
        mem.add_listener(seen.append)
        mem.reserve(1, GB)
        mem.release(1, GB)
        assert seen == [1]
        mem.remove_listener(seen.append)
        mem.reserve(0, GB)
        mem.release(0, GB)
        assert seen == [1]

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterMemory(0, heap_bytes=GB)
        with pytest.raises(ValueError):
            ClusterMemory(1, heap_bytes=0.0)


class _Task:
    """Minimal stand-in for SimTask in gate unit tests."""

    def __init__(self, task_id, heap_bytes=None):
        self.task_id = task_id
        self.heap_bytes = heap_bytes
        self.mem_frac = 1.0


class TestMemoryGate:
    def test_rigid_declines_when_heap_short(self):
        mem = ClusterMemory(1, heap_bytes=2 * GB)
        gate = MemoryGate(mem, ideal_task_heap=GB)
        t0, t1 = _Task(0), _Task(1)
        assert gate.check(0, 0.0) is None
        gate.on_launch(t0, 0, 0.0)
        assert gate.check(0, 0.0) is None
        gate.on_launch(t1, 0, 0.0)
        assert gate.check(0, 0.0) is not None
        assert gate.declines == 1
        assert t0.mem_frac == 1.0 and t1.mem_frac == 1.0
        gate.on_release(t0, 0)
        assert gate.check(0, 0.0) is None

    def test_elastic_shrinks_into_remainder(self):
        mem = ClusterMemory(1, heap_bytes=2.5 * GB)
        gate = MemoryGate(mem, ideal_task_heap=GB, elastic=True,
                          min_task_frac=0.25)
        for tid in (0, 1):
            gate.on_launch(_Task(tid), 0, 0.0)
        t2 = _Task(2)
        assert gate.check(0, 0.0) is None
        gate.on_launch(t2, 0, 0.0)
        assert t2.mem_frac == pytest.approx(0.5)
        assert gate.tasks_shrunk == 1
        assert gate.min_granted_frac == pytest.approx(0.5)
        assert gate.frac_of(2, 0) == pytest.approx(0.5)
        # Below the floor: 0 remaining < 0.25 * ideal.
        assert gate.check(0, 0.0) is not None

    def test_progress_guarantee_on_empty_node(self):
        """A node with no executing reservations always admits, however
        small the heap — memory scarcity must never deadlock a stage."""
        mem = ClusterMemory(1, heap_bytes=0.1 * GB)
        gate = MemoryGate(mem, ideal_task_heap=GB)
        t = _Task(0)
        assert gate.check(0, 0.0) is None
        gate.on_launch(t, 0, 0.0)
        assert gate.check(0, 0.0) is not None
        gate.on_release(t, 0)
        assert gate.check(0, 0.0) is None

    def test_release_frees_what_was_granted(self):
        mem = ClusterMemory(1, heap_bytes=1.5 * GB)
        gate = MemoryGate(mem, ideal_task_heap=GB, elastic=True)
        t0, t1 = _Task(0), _Task(1)
        gate.on_launch(t0, 0, 0.0)   # full GB
        gate.on_launch(t1, 0, 0.0)   # shrunk 0.5 GB
        assert mem.free(0) == pytest.approx(0.0)
        gate.on_release(t1, 0)
        assert mem.free(0) == pytest.approx(0.5 * GB)
        gate.on_release(t0, 0)
        assert mem.free(0) == pytest.approx(1.5 * GB)

    def test_per_task_ideal_overrides_stage_default(self):
        mem = ClusterMemory(1, heap_bytes=4 * GB)
        gate = MemoryGate(mem, ideal_task_heap=GB)
        big = _Task(0, heap_bytes=3 * GB)
        gate.on_launch(big, 0, 0.0)
        assert mem.free(0) == pytest.approx(GB)


def _fingerprint(result):
    return (result.job_time,
            tuple(sorted(result.dissection().items())),
            tuple(sorted((t.phase, t.task_id, t.node, t.started_at,
                          t.finished_at) for t in result.all_tasks())))


class TestEngineIntegration:
    SPEC = groupby_spec(4 * GB, shuffle_store="ssd")

    def _run(self, memory=None, seed=5):
        return run_job(self.SPEC, cluster_spec=hyperion(4),
                       options=EngineOptions(seed=seed, memory=memory))

    def test_full_heap_is_fingerprint_identical_to_unmanaged(self):
        """mem_frac=1.0 must be pure bookkeeping: byte-identical
        schedule, zero declines, zero spill."""
        base = self._run(memory=None)
        managed = self._run(memory=MemoryConfig())
        assert _fingerprint(base) == _fingerprint(managed)
        assert base.memory is None
        mm = managed.memory
        assert mm is not None
        assert mm.tasks_shrunk == 0
        assert mm.grants_declined == 0
        assert mm.spill_events == 0
        assert mm.min_granted_frac == 1.0

    def test_elastic_equals_rigid_at_full_heap(self):
        rigid = self._run(memory=MemoryConfig())
        elastic = self._run(memory=MemoryConfig(elastic=True))
        assert _fingerprint(rigid) == _fingerprint(elastic)

    def test_rigid_scarcity_slows_the_job(self):
        full = self._run(memory=MemoryConfig())
        scarce = self._run(memory=MemoryConfig(mem_frac=0.4))
        assert scarce.memory.grants_declined > 0
        assert scarce.memory.tasks_shrunk == 0
        assert scarce.job_time > full.job_time

    def test_elastic_shrinks_and_spills_under_scarcity(self):
        res = self._run(memory=MemoryConfig(mem_frac=0.4, elastic=True))
        mm = res.memory
        assert mm.tasks_shrunk > 0
        assert mm.spill_events > 0
        assert mm.spill_bytes_written > 0
        assert mm.spill_bytes_written == pytest.approx(mm.spill_bytes_read)
        assert 0 < mm.min_granted_frac < 1.0

    def test_elastic_beats_rigid_at_scarcity(self):
        """The tentpole claim: shrinking beats waiting when compute waves
        dominate spill I/O."""
        spec = groupby_spec(8 * GB, split_bytes=128 * MB,
                            shuffle_store="ssd", generate_rate=150 * MB)
        mem = dict(mem_frac=0.3, spill_ratio=0.5, spill_gamma=1.5)
        rigid = run_job(spec, cluster_spec=hyperion(4),
                        options=EngineOptions(
                            seed=5, memory=MemoryConfig(**mem)))
        elastic = run_job(spec, cluster_spec=hyperion(4),
                          options=EngineOptions(
                              seed=5,
                              memory=MemoryConfig(elastic=True, **mem)))
        assert elastic.memory.tasks_shrunk > 0
        assert elastic.job_time < rigid.job_time

    def test_shared_memory_requires_config(self):
        cluster = Cluster(hyperion(2), seed=0)
        shared = ClusterMemory(2, heap_bytes=GB)
        with pytest.raises(ValueError):
            SparkSim(cluster, self.SPEC, EngineOptions(), memory=shared)

    def test_spill_leaves_no_device_allocation(self):
        """Spill files are transient: after the job (plus cleanup) the
        spill store holds only the job's shuffle output."""
        cluster = Cluster(hyperion(4), seed=5)
        engine = SparkSim(cluster, self.SPEC,
                          EngineOptions(seed=5, memory=MemoryConfig(
                              mem_frac=0.4, elastic=True)))
        result = engine.run()
        assert result.memory.spill_events > 0
        engine.cleanup()
        for node in cluster.nodes:
            assert node.volume("ssd").used_bytes == pytest.approx(0.0)

    def test_summary_mentions_memory(self):
        res = self._run(memory=MemoryConfig(mem_frac=0.4, elastic=True))
        assert "memory (elastic)" in res.summary()


class TestLeaseMemoryPlacement:
    def test_memory_aware_issue_prefers_heap_rich_node(self):
        """With equal free cores, the pool should place the next core on
        the node with more free executor heap."""
        from repro.serve.lease import SlotPool
        from repro.serve.policy import make_policy
        from repro.serve.tenancy import Tenant
        from repro.sim import Simulator

        sim = Simulator()
        mem = ClusterMemory(2, heap_bytes=10 * GB)
        mem.reserve(0, 9 * GB)   # node 0 nearly full
        pool = SlotPool(sim, 2, 1, make_policy("fifo", [Tenant("t")]),
                        memory=mem)
        lease = pool.admit("t", demand=1)
        sim.run()
        assert lease.slots[1] == 1 and lease.slots[0] == 0
