"""Tests for cluster specs, nodes, and assembly."""

import numpy as np
import pytest

from repro.cluster import (
    Cluster,
    ClusterSpec,
    ComputeNode,
    ConstantSpeed,
    LognormalSpeed,
    NodeSpec,
    UniformSpeed,
    hyperion,
)
from repro.sim import Simulator

GB = 1024.0 ** 3


class TestSpecs:
    def test_hyperion_defaults_match_paper(self):
        spec = hyperion()
        assert spec.n_nodes == 100
        assert spec.node.cores == 16
        assert spec.node.ram_bytes == 64 * GB
        assert spec.node.spark_mem_bytes == 30 * GB
        assert spec.node.ramdisk_bytes == 32 * GB
        assert spec.node.ssd_bytes == 128 * GB
        assert spec.lustre_aggregate_bw == 47 * GB
        assert spec.nic_bw == 4 * GB  # 32 Gb/s QDR

    def test_hyperion_scaling_preserves_per_node_lustre_share(self):
        full = hyperion(100)
        small = hyperion(20)
        assert (small.lustre_aggregate_bw / small.n_nodes ==
                pytest.approx(full.lustre_aggregate_bw / full.n_nodes))
        assert (small.lustre_mds_ops_per_s / small.n_nodes ==
                pytest.approx(full.lustre_mds_ops_per_s / full.n_nodes))

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            NodeSpec(cores=0)
        with pytest.raises(ValueError):
            ClusterSpec(n_nodes=0)
        with pytest.raises(ValueError):
            ClusterSpec().scaled(0)

    def test_defaults_pass_consistency_checks(self):
        spec = NodeSpec()  # the Hyperion defaults must stay self-consistent
        assert spec.ramdisk_usable_bytes <= spec.ramdisk_bytes
        assert spec.ramdisk_bytes + spec.spark_mem_bytes <= spec.ram_bytes
        assert spec.page_cache_dirty_bytes <= spec.page_cache_bytes

    def test_ramdisk_usable_cannot_exceed_ramdisk(self):
        with pytest.raises(ValueError, match="usable space"):
            NodeSpec(ramdisk_bytes=16 * GB, ramdisk_usable_bytes=24 * GB)

    def test_ramdisk_plus_spark_heap_cannot_exceed_ram(self):
        with pytest.raises(ValueError, match="physical RAM"):
            NodeSpec(ram_bytes=48 * GB, ramdisk_bytes=32 * GB,
                     spark_mem_bytes=30 * GB)

    def test_dirty_limit_cannot_exceed_page_cache(self):
        with pytest.raises(ValueError, match="dirty throttle"):
            NodeSpec(page_cache_bytes=4 * GB,
                     page_cache_dirty_bytes=7 * GB)


class TestSpeedModels:
    def test_constant(self):
        rng = np.random.default_rng(0)
        f = ConstantSpeed(1.2).sample(10, rng)
        assert (f == 1.2).all()

    def test_uniform_bounds(self):
        rng = np.random.default_rng(0)
        f = UniformSpeed(0.5, 1.5).sample(1000, rng)
        assert f.min() >= 0.5 and f.max() <= 1.5

    def test_lognormal_clipped_and_centered(self):
        rng = np.random.default_rng(0)
        f = LognormalSpeed(sigma=0.18).sample(5000, rng)
        assert f.min() >= 0.6 and f.max() <= 1.6
        assert np.median(f) == pytest.approx(1.0, rel=0.05)

    def test_lognormal_spread_is_about_2x(self):
        """Paper Fig 12: ~2x workload difference between head and tail."""
        rng = np.random.default_rng(42)
        f = LognormalSpeed(sigma=0.18).sample(100, rng)
        spread = np.percentile(f, 97) / np.percentile(f, 3)
        assert 1.5 < spread < 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantSpeed(0)
        with pytest.raises(ValueError):
            UniformSpeed(2.0, 1.0)
        with pytest.raises(ValueError):
            LognormalSpeed(sigma=-1)


class TestComputeNode:
    def test_node_has_cores_and_volumes(self):
        sim = Simulator()
        node = ComputeNode(sim, 0, NodeSpec())
        assert node.spec.cores == 16
        assert set(node.volumes) == {"ramdisk", "ssd"}

    def test_compute_scales_with_speed_factor(self):
        sim = Simulator()
        fast = ComputeNode(sim, 0, NodeSpec(), speed_factor=2.0)
        done = fast.compute(10.0)
        sim.run(until=done)
        assert sim.now == pytest.approx(5.0)

    def test_unknown_volume_raises(self):
        sim = Simulator()
        node = ComputeNode(sim, 0, NodeSpec())
        with pytest.raises(KeyError):
            node.volume("nvme")

    def test_invalid_speed_factor(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ComputeNode(sim, 0, NodeSpec(), speed_factor=0.0)

    def test_negative_compute_rejected(self):
        sim = Simulator()
        node = ComputeNode(sim, 0, NodeSpec())
        with pytest.raises(ValueError):
            node.compute(-1.0)


class TestCluster:
    def test_builds_everything(self):
        cluster = Cluster(hyperion(4))
        assert cluster.n_nodes == 4
        assert cluster.total_cores == 64
        assert cluster.fabric.n_nodes == 4
        assert len(cluster.lustre.clients) == 4
        assert cluster.hdfs.namenode.n_nodes == 4

    def test_speed_factors_applied(self):
        cluster = Cluster(hyperion(10), speed_model=UniformSpeed(0.7, 1.4),
                          seed=1)
        factors = [n.speed_factor for n in cluster.nodes]
        assert len(set(factors)) > 1

    def test_deterministic_given_seed(self):
        f1 = [n.speed_factor for n in
              Cluster(hyperion(10), speed_model=UniformSpeed(), seed=7).nodes]
        f2 = [n.speed_factor for n in
              Cluster(hyperion(10), speed_model=UniformSpeed(), seed=7).nodes]
        assert f1 == f2
