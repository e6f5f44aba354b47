"""Cross-module integration scenarios."""

import numpy as np
import pytest

from repro import (
    Cluster,
    EngineOptions,
    LognormalSpeed,
    SparkSim,
    hyperion,
    run_job,
)
from repro.workloads import groupby_spec

GB = 1024.0 ** 3
MB = 1024.0 ** 2


class TestWarmCluster:
    def test_ssd_wear_persists_across_jobs(self):
        """Consecutive jobs on one cluster share device history: the
        second job starts with the SSD already in its GC era."""
        cluster = Cluster(hyperion(2), seed=0)
        spec = groupby_spec(24 * GB, shuffle_store="ssd", n_reducers=32)
        first = SparkSim(cluster, spec, EngineOptions()).run()
        cluster.sim.run()  # drain background writeback
        assert cluster.nodes[0].ssd.gc_active
        second_start = cluster.sim.now
        second = SparkSim(cluster, spec, EngineOptions()).run()
        second_time = cluster.sim.now - second_start
        assert second_time > first.job_time  # warm SSD is slower

    def test_fresh_cluster_per_run_job_is_reproducible(self):
        spec = groupby_spec(8 * GB, shuffle_store="ssd", n_reducers=32)
        a = run_job(spec, cluster_spec=hyperion(2))
        b = run_job(spec, cluster_spec=hyperion(2))
        assert a.job_time == b.job_time


class TestOptimizationsCompose:
    def test_elb_plus_cad_no_worse_than_stock_on_congested_ssd(self):
        spec = groupby_spec(60 * GB, shuffle_store="ssd",
                            n_reducers=4 * 16, split_bytes=128 * MB)
        stock = run_job(spec, cluster_spec=hyperion(4),
                        options=EngineOptions(seed=3),
                        speed_model=LognormalSpeed())
        both = run_job(spec, cluster_spec=hyperion(4),
                       options=EngineOptions(seed=3, elb=True, cad=True),
                       speed_model=LognormalSpeed())
        assert both.job_time < stock.job_time * 1.05

    def test_cad_never_hurts_store_phase(self):
        """CAD must be at worst neutral here; its real gains are asserted
        at the Fig 14 operating point in benchmarks/test_fig14_cad.py."""
        spec = groupby_spec(60 * GB, shuffle_store="ssd",
                            n_reducers=4 * 16, split_bytes=128 * MB)
        stock = run_job(spec, cluster_spec=hyperion(4),
                        options=EngineOptions(seed=1))
        cad = run_job(spec, cluster_spec=hyperion(4),
                      options=EngineOptions(seed=1, cad=True))
        assert cad.store_time <= stock.store_time * 1.05


class TestFailureSurfaces:
    def test_overfull_ramdisk_raises_cleanly(self):
        from repro.storage import DeviceFullError
        # 2 nodes x 20 GB usable RAMDisk; 50 GB of intermediate data
        # cannot be stored.
        spec = groupby_spec(50 * GB, shuffle_store="ramdisk",
                            n_reducers=32)
        with pytest.raises(DeviceFullError):
            run_job(spec, cluster_spec=hyperion(2))

    def test_ssd_capacity_generous_enough_for_paper_sweeps(self):
        # 128 GB SSD vs 15 GB/node at the 1.5 TB paper point: no error.
        spec = groupby_spec(30 * GB, shuffle_store="ssd", n_reducers=32)
        res = run_job(spec, cluster_spec=hyperion(2))
        assert res.job_time > 0
