"""Tests for the flow-level network fabric."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Fabric, request_rate_cap
from repro.sim import Simulator

GB = 1024.0 ** 3
MB = 1024.0 ** 2


@pytest.fixture
def sim():
    return Simulator()


class TestBasicTransfers:
    def test_single_flow_line_rate(self, sim):
        fab = Fabric(sim, n_nodes=4, nic_bw=1 * GB, latency=0.0)
        done = fab.transfer(0, 1, 1 * GB)
        sim.run(until=done)
        assert sim.now == pytest.approx(1.0)

    def test_latency_added(self, sim):
        fab = Fabric(sim, n_nodes=2, nic_bw=1 * GB, latency=0.5)
        done = fab.transfer(0, 1, 1 * GB)
        sim.run(until=done)
        assert sim.now == pytest.approx(1.5)

    def test_loopback_costs_latency_only(self, sim):
        fab = Fabric(sim, n_nodes=2, nic_bw=1 * GB, latency=0.25)
        done = fab.transfer(1, 1, 100 * GB)
        sim.run(until=done)
        assert sim.now == pytest.approx(0.25)

    def test_zero_bytes_completes_after_latency(self, sim):
        fab = Fabric(sim, n_nodes=2, nic_bw=1 * GB, latency=0.1)
        done = fab.transfer(0, 1, 0)
        sim.run(until=done)
        assert sim.now == pytest.approx(0.1)

    def test_invalid_nodes_rejected(self, sim):
        fab = Fabric(sim, n_nodes=2, nic_bw=1 * GB)
        with pytest.raises(ValueError):
            fab.transfer(0, 2, 10)
        with pytest.raises(ValueError):
            fab.transfer(-1, 0, 10)

    @pytest.mark.parametrize("bad", [1.5, 1.0, np.float64(1.0), "1", None,
                                     math.nan])
    @pytest.mark.parametrize("end", ["src", "dst"])
    def test_non_integer_node_rejected_at_the_call(self, sim, bad, end):
        """A float id would be truncated by the int64 flow table while the
        flow and its trace kept the float."""
        fab = Fabric(sim, n_nodes=4, nic_bw=1 * GB)
        ids = {"src": 3, "dst": 0, end: bad}
        with pytest.raises(TypeError, match=re.escape(f"got {bad!r}")):
            fab.transfer(ids["src"], ids["dst"], 1e7)
        assert fab.n_active == 0 and sim.peek() == math.inf

    @pytest.mark.parametrize("node", [np.int64(1), np.int32(1), True])
    def test_integer_like_node_kept_as_given(self, sim, node):
        """NumPy integers (HDFS replica ids) are accepted, unconverted."""
        fab = Fabric(sim, n_nodes=4, nic_bw=1 * GB, latency=0.0)
        done = fab.transfer(node, 3, 1 * GB)
        sim.run(until=done)
        assert done.value.src is node
        assert sim.now == pytest.approx(1.0)

    def test_negative_bytes_rejected(self, sim):
        fab = Fabric(sim, n_nodes=2, nic_bw=1 * GB)
        with pytest.raises(ValueError):
            fab.transfer(0, 1, -10)

    @pytest.mark.parametrize("size", [math.nan, math.inf, -math.inf])
    def test_non_finite_size_rejected_at_the_call(self, sim, size):
        fab = Fabric(sim, n_nodes=2, nic_bw=1 * GB)
        with pytest.raises(ValueError, match=f"transfer size .* {size}"):
            fab.transfer(0, 1, size)
        assert fab.n_active == 0

    @pytest.mark.parametrize("cap", [0, 0.0, -1, -math.inf, math.nan])
    def test_non_positive_cap_rejected_at_the_call(self, sim, cap):
        fab = Fabric(sim, n_nodes=2, nic_bw=1 * GB)
        with pytest.raises(ValueError, match=f"rate cap .* {cap}"):
            fab.transfer(0, 1, 1 * GB, cap=cap)
        assert fab.n_active == 0


class TestContention:
    def test_incast_shares_receiver_nic(self, sim):
        """Four senders into one receiver: each gets 1/4 of the rx NIC."""
        fab = Fabric(sim, n_nodes=5, nic_bw=1 * GB, latency=0.0)
        done = [fab.transfer(s, 4, 1 * GB) for s in range(4)]
        sim.run(until=sim.all_of(done))
        assert sim.now == pytest.approx(4.0)

    def test_outcast_shares_sender_nic(self, sim):
        fab = Fabric(sim, n_nodes=5, nic_bw=1 * GB, latency=0.0)
        done = [fab.transfer(0, d, 1 * GB) for d in range(1, 5)]
        sim.run(until=sim.all_of(done))
        assert sim.now == pytest.approx(4.0)

    def test_disjoint_pairs_full_rate(self, sim):
        fab = Fabric(sim, n_nodes=4, nic_bw=1 * GB, latency=0.0)
        d1 = fab.transfer(0, 1, 1 * GB)
        d2 = fab.transfer(2, 3, 1 * GB)
        sim.run(until=sim.all_of([d1, d2]))
        assert sim.now == pytest.approx(1.0)

    def test_full_duplex(self, sim):
        """A<->B in both directions concurrently: no slowdown."""
        fab = Fabric(sim, n_nodes=2, nic_bw=1 * GB, latency=0.0)
        d1 = fab.transfer(0, 1, 1 * GB)
        d2 = fab.transfer(1, 0, 1 * GB)
        sim.run(until=sim.all_of([d1, d2]))
        assert sim.now == pytest.approx(1.0)

    def test_max_min_fairness_redistributes(self, sim):
        """Flow capped below fair share leaves bandwidth to others."""
        fab = Fabric(sim, n_nodes=3, nic_bw=1 * GB, latency=0.0)
        capped = fab.transfer(0, 2, 0.1 * GB, cap=0.1 * GB)
        free = fab.transfer(1, 2, 0.9 * GB)
        sim.run(until=sim.all_of([capped, free]))
        # capped runs at 0.1 GB/s (1s), free gets the remaining 0.9 GB/s.
        assert sim.now == pytest.approx(1.0, rel=1e-3)

    def test_bisection_limits_aggregate(self, sim):
        fab = Fabric(sim, n_nodes=8, nic_bw=1 * GB,
                     bisection_bw=2 * GB, latency=0.0)
        done = [fab.transfer(i, i + 4, 1 * GB) for i in range(4)]
        sim.run(until=sim.all_of(done))
        # 4 GB total through a 2 GB/s core.
        assert sim.now == pytest.approx(2.0)

    def test_departure_reallocates(self, sim):
        fab = Fabric(sim, n_nodes=3, nic_bw=1 * GB, latency=0.0)
        short = fab.transfer(0, 2, 0.5 * GB)
        long = fab.transfer(1, 2, 1.0 * GB)
        sim.run(until=short)
        assert sim.now == pytest.approx(1.0)
        sim.run(until=long)
        # long had 0.5 GB left, now at full rate.
        assert sim.now == pytest.approx(1.5)

    def test_utilization_reporting(self, sim):
        fab = Fabric(sim, n_nodes=2, nic_bw=1 * GB, latency=0.0)
        fab.transfer(0, 1, 10 * GB)
        sim.run(until=0.001)  # rate allocation is coalesced per timestamp
        u0 = fab.utilization(0)
        u1 = fab.utilization(1)
        assert u0["tx"] == pytest.approx(1 * GB)
        assert u1["rx"] == pytest.approx(1 * GB)

    def test_bytes_conservation(self, sim):
        fab = Fabric(sim, n_nodes=4, nic_bw=1 * GB, latency=0.0)
        total = 0.0
        for i in range(12):
            size = (i + 1) * 10 * MB
            total += size
            sim.schedule_callback(0.01 * i, fab.transfer,
                                  i % 4, (i + 1) % 4, size)
        sim.run()
        assert fab.bytes_completed == pytest.approx(total, rel=1e-6)
        assert fab.n_active == 0


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                          st.floats(min_value=1.0, max_value=100 * MB)),
                min_size=1, max_size=20))
@settings(max_examples=30, deadline=None)
def test_fabric_always_drains(transfers):
    sim = Simulator()
    fab = Fabric(sim, n_nodes=6, nic_bw=1 * GB, latency=1e-6)
    events = [fab.transfer(s, d, b) for s, d, b in transfers]
    sim.run()
    assert all(e.triggered for e in events)
    assert fab.bytes_completed == pytest.approx(
        sum(b for _, _, b in transfers), rel=1e-6)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.floats(min_value=1.0, max_value=10 * MB)),
                min_size=2, max_size=12))
@settings(max_examples=30, deadline=None)
def test_fabric_rates_never_exceed_nic(transfers):
    sim = Simulator()
    nic = 100 * MB
    fab = Fabric(sim, n_nodes=4, nic_bw=nic, latency=0.0)
    for s, d, b in transfers:
        fab.transfer(s, d, b)
    # Inspect allocation right after all arrivals.
    for n in range(4):
        u = fab.utilization(n)
        assert u["tx"] <= nic * (1 + 1e-6)
        assert u["rx"] <= nic * (1 + 1e-6)
    sim.run()


class TestRequestRateCap:
    def test_large_requests_near_line_rate(self):
        cap = request_rate_cap(1 * GB, 4 * GB, 200e-6)
        assert cap > 3.9 * GB

    def test_small_requests_collapse(self):
        cap = request_rate_cap(128 * 1024, 4 * GB, 200e-6)
        assert cap < 0.7 * GB

    def test_monotone_in_request_size(self):
        caps = [request_rate_cap(s * 1024, 4 * GB)
                for s in (64, 256, 1024, 65536)]
        assert caps == sorted(caps)

    def test_zero_overhead_gives_line_rate(self):
        assert request_rate_cap(1024, 4 * GB, 0.0) == pytest.approx(4 * GB)

    def test_validation(self):
        with pytest.raises(ValueError):
            request_rate_cap(0, 1 * GB)
        with pytest.raises(ValueError):
            request_rate_cap(1024, 0)
        with pytest.raises(ValueError):
            request_rate_cap(1024, 1 * GB, -1)
