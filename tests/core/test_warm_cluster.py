"""Warm-cluster regression tests: back-to-back jobs must not leak.

The streaming server runs dozens of jobs on one long-lived cluster, so a
finished job's artifacts (volume bytes, SSD write history, page-cache
residency, fault-injector state, Lustre metadata) must be fully
reclaimable via :meth:`SparkSim.cleanup` / ``run_job(cleanup=True)``.
Deliberate physics — device *wear* while files exist — is covered by the
existing warm-wear test in ``test_engine.py``; these tests pin down the
opposite contract: after cleanup, the cluster is indistinguishable from
a fresh one.
"""

import pytest

from repro import (
    Cluster,
    EngineOptions,
    JobSpec,
    SparkSim,
    hyperion,
    run_job,
)
from repro.core.faults import FaultPlan, StorageDegradation
from repro.core.memory import ClusterMemory, MemoryConfig
from repro.lustre.fs import LustreFileSystem
from repro.workloads import groupby_spec, logistic_regression_spec

GB = 1024.0 ** 3
MB = 1024.0 ** 2


def quiet_spec(**kw):
    """A shuffle job with every noise source disabled, so identical runs
    on identical hardware take identical simulated time."""
    kw.setdefault("input_bytes", 2 * GB)
    kw.setdefault("intermediate_ratio", 1.0)
    kw.setdefault("shuffle_store", "ssd")
    kw.setdefault("compute_noise_sigma", 0.0)
    kw.setdefault("store_noise_sigma", 0.0)
    return JobSpec(name="quiet", **kw)


def storage_bytes(cluster):
    return {(n.node_id, name): vol.used_bytes
            for n in cluster.nodes for name, vol in n.volumes.items()}


class TestCleanupReclaimsEverything:
    def test_volumes_pagecache_and_lustre_return_to_baseline(self):
        cluster = Cluster(hyperion(4))
        baseline = storage_bytes(cluster)
        engine = SparkSim(cluster, quiet_spec(), EngineOptions(seed=1))
        engine.run()
        assert storage_bytes(cluster) != baseline  # shuffle files exist
        engine.cleanup()
        assert storage_bytes(cluster) == baseline
        for node in cluster.nodes:
            for vol in node.volumes.values():
                if vol.cache is not None:
                    assert vol.cache.resident_bytes == 0

    def test_trim_restores_the_ssd_clean_pool(self):
        cluster = Cluster(hyperion(2))
        spec = quiet_spec(input_bytes=6 * GB)
        engine = SparkSim(cluster, spec, EngineOptions(seed=1))
        engine.run()
        engine.cleanup()
        for node in cluster.nodes:
            ssd = node.volume("ssd").device
            assert not ssd.gc_active
            assert ssd.gc_pressure == pytest.approx(0.0)

    def test_many_jobs_do_not_fill_devices(self):
        """Without cleanup the SSDs would overflow after a few jobs;
        with it an arbitrarily long stream fits (no DeviceFullError)."""
        cluster = Cluster(hyperion(2))
        spec = quiet_spec(input_bytes=4 * GB)
        for seed in range(6):
            run_job(spec, cluster=cluster,
                    options=EngineOptions(seed=seed), cleanup=True)
        baseline = storage_bytes(Cluster(hyperion(2)))
        assert storage_bytes(cluster) == baseline

    def test_warm_clean_job_matches_fresh_cluster_exactly(self):
        """After cleanup, a warm cluster is time-for-time identical to a
        fresh one: same spec + seed => byte-equal phase timings."""
        cluster = Cluster(hyperion(4))
        run_job(quiet_spec(), cluster=cluster,
                options=EngineOptions(seed=1), cleanup=True)
        warm = run_job(quiet_spec(), cluster=cluster,
                       options=EngineOptions(seed=2), cleanup=True)
        fresh = run_job(quiet_spec(), cluster_spec=hyperion(4),
                        options=EngineOptions(seed=2))
        assert warm.job_time == pytest.approx(fresh.job_time, rel=1e-9)
        for phase in ("compute", "store", "fetch"):
            assert warm.phases[phase].duration == pytest.approx(
                fresh.phases[phase].duration, rel=1e-9)

    def test_fault_degradations_do_not_leak_into_next_job(self):
        """An open-ended (until=None) degradation belongs to the job that
        injected it; cleanup must revert it before the next job runs."""
        import dataclasses

        # A 9 GB page cache absorbs a 2 GB job entirely; shrink it so
        # SSD device speed actually shows up in the job time.
        spec = hyperion(2)
        spec = dataclasses.replace(
            spec, node=dataclasses.replace(spec.node,
                                           page_cache_bytes=64 * MB,
                                           page_cache_dirty_bytes=32 * MB))
        plan = FaultPlan((StorageDegradation(
            at=0.1, node=1, volume="ssd", factor=0.1, until=None),))
        cluster = Cluster(spec)
        degraded = run_job(quiet_spec(), cluster=cluster,
                           options=EngineOptions(seed=1, fault_plan=plan),
                           cleanup=True)
        after = run_job(quiet_spec(), cluster=cluster,
                        options=EngineOptions(seed=2), cleanup=True)
        fresh = run_job(quiet_spec(), cluster_spec=spec,
                        options=EngineOptions(seed=2))
        assert degraded.job_time > fresh.job_time  # the fault did bite
        assert after.job_time == pytest.approx(fresh.job_time, rel=1e-9)

    def test_registry_instruments_do_not_grow_per_job(self):
        """Engine instruments are keyed by stable names, so a long job
        stream must not accrete new registry entries per job."""
        from repro.obs.telemetry import Telemetry

        cluster = Cluster(hyperion(2))
        telemetry = Telemetry()
        registry = telemetry.registry

        def n_instruments():
            return (len(registry._counters) + len(registry._gauges)
                    + len(registry._histograms))

        run_job(quiet_spec(), cluster=cluster, telemetry=telemetry,
                options=EngineOptions(seed=1), cleanup=True)
        after_first = n_instruments()
        for seed in (2, 3):
            run_job(quiet_spec(), cluster=cluster, telemetry=telemetry,
                    options=EngineOptions(seed=seed), cleanup=True)
        assert n_instruments() == after_first


class TestCleanupReleasesJobState:
    """``run_job(cleanup=True)`` on the two artifact kinds that live
    outside node-local volumes: Lustre shuffle files and cached RDD
    partitions held in a managed heap's storage region."""

    @pytest.mark.parametrize("fetch_mode", ["lustre-local", "lustre-shared"])
    def test_lustre_shuffle_files_are_unlinked(self, fetch_mode,
                                               monkeypatch):
        unlinked = []
        unlink = LustreFileSystem.unlink

        def spy(fs, file_id):
            unlinked.append(file_id)
            unlink(fs, file_id)

        monkeypatch.setattr(LustreFileSystem, "unlink", spy)
        spec = groupby_spec(2 * GB, shuffle_store="lustre",
                            fetch_mode=fetch_mode)
        kept = Cluster(hyperion(4))
        run_job(spec, cluster=kept, options=EngineOptions(seed=1))
        written = set(kept.lustre.sizes)
        assert written and not unlinked  # the job wrote shuffle files

        cluster = Cluster(hyperion(4))
        run_job(spec, cluster=cluster, options=EngineOptions(seed=1),
                cleanup=True)
        lustre = cluster.lustre
        assert set(unlinked) == written
        assert lustre.sizes == {} and lustre.locks == {}
        for client in lustre.clients:
            assert not client.dirty and not client.clean

    def test_cached_partitions_leave_the_storage_region(self, monkeypatch):
        pools = []
        reserve = ClusterMemory.reserve_cache

        def spy(memory, node, nbytes):
            if memory not in pools:
                pools.append(memory)
            reserve(memory, node, nbytes)

        monkeypatch.setattr(ClusterMemory, "reserve_cache", spy)
        spec = logistic_regression_spec(2 * GB, iterations=3)
        options = EngineOptions(seed=1, memory=MemoryConfig())
        run_job(spec, cluster_spec=hyperion(4), options=options)
        assert len(pools) == 1 and sum(pools[0].cache_used) > 0

        run_job(spec, cluster_spec=hyperion(4), options=options,
                cleanup=True)
        assert len(pools) == 2
        assert pools[1].cache_used == [0.0] * 4


class TestRunJobArgumentConflicts:
    def test_cluster_with_cluster_spec_raises(self):
        cluster = Cluster(hyperion(2))
        with pytest.raises(ValueError, match="not both"):
            run_job(quiet_spec(), cluster=cluster, cluster_spec=hyperion(2))

    def test_cluster_with_speed_model_raises(self):
        from repro import UniformSpeed

        cluster = Cluster(hyperion(2))
        with pytest.raises(ValueError, match="speed_model"):
            run_job(quiet_spec(), cluster=cluster,
                    speed_model=UniformSpeed(0.2))


class TestNoiseFactors:
    def test_zero_count_returns_empty(self):
        cluster = Cluster(hyperion(2))
        engine = SparkSim(cluster, quiet_spec(), EngineOptions(seed=1))
        assert len(engine._noise_factors("s", 0, 0.3)) == 0
        assert len(engine._noise_factors("s", 0, 0.0)) == 0

    def test_length_matches_count(self):
        cluster = Cluster(hyperion(2))
        engine = SparkSim(cluster, quiet_spec(), EngineOptions(seed=1))
        for count in (1, 3, 7):
            assert len(engine._noise_factors("s", count, 0.3)) == count
            assert len(engine._noise_factors("s", count, 0.0)) == count
