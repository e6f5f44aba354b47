"""Tests for fabric optimizations: small-flow fast path, coalescing,
and the C flow-event kernels (the fluid core's drain and the fabric's
reallocation) against the NumPy fallback."""

import math
import random

import numpy as np
import pytest

from repro.net import Fabric, fastalloc
from repro.sim import Simulator, fastdrain
from repro.sim.flowarray import FlowTable

GB = 1024.0 ** 3
KB = 1024.0


@pytest.fixture
def sim():
    return Simulator()


_needs_kernels = pytest.mark.skipif(
    not (fastalloc.AVAILABLE and fastdrain.AVAILABLE),
    reason="C kernels unavailable on this machine")


def _numpy_only(monkeypatch):
    """Switch both fabric flow-event kernels to the NumPy fallback."""
    monkeypatch.setattr(fastalloc, "AVAILABLE", False)
    monkeypatch.setattr(fastdrain, "RAW_DRAIN", None)


class TestSmallFlowFastPath:
    def test_small_transfer_completes_at_line_rate_plus_latency(self, sim):
        fab = Fabric(sim, n_nodes=2, nic_bw=1 * GB, latency=0.001,
                     small_flow_bytes=64 * KB)
        done = fab.transfer(0, 1, 64 * KB)
        sim.run(until=done)
        expected = 0.001 + 64 * KB / (1 * GB)
        assert sim.now == pytest.approx(expected, rel=1e-6)

    def test_small_flows_do_not_join_the_allocator(self, sim):
        fab = Fabric(sim, n_nodes=2, nic_bw=1 * GB, small_flow_bytes=64 * KB)
        fab.transfer(0, 1, 1 * KB)
        assert fab.n_active == 0  # fast-pathed, not a fluid flow

    def test_small_flow_bytes_still_accounted(self, sim):
        fab = Fabric(sim, n_nodes=2, nic_bw=1 * GB, small_flow_bytes=64 * KB)
        fab.transfer(0, 1, 10 * KB)
        fab.transfer(0, 1, 20 * KB)
        sim.run()
        assert fab.bytes_completed == pytest.approx(30 * KB)

    def test_small_flow_respects_cap(self, sim):
        fab = Fabric(sim, n_nodes=2, nic_bw=1 * GB, latency=0.0,
                     small_flow_bytes=64 * KB)
        done = fab.transfer(0, 1, 64 * KB, cap=64 * KB)  # 1 s at cap
        sim.run(until=done)
        assert sim.now == pytest.approx(1.0, rel=1e-6)

    def test_large_transfer_uses_the_allocator(self, sim):
        fab = Fabric(sim, n_nodes=2, nic_bw=1 * GB, small_flow_bytes=64 * KB)
        fab.transfer(0, 1, 1 * GB)
        assert fab.n_active == 1


class TestCoalescedAllocation:
    def test_same_timestamp_arrivals_share_fairly(self, sim):
        """Two flows arriving at the same instant get equal shares even
        though the rate recomputation is deferred and coalesced."""
        fab = Fabric(sim, n_nodes=3, nic_bw=1 * GB, latency=0.0)
        d1 = fab.transfer(0, 2, 1 * GB)
        d2 = fab.transfer(1, 2, 1 * GB)
        sim.run(until=sim.all_of([d1, d2]))
        assert sim.now == pytest.approx(2.0, rel=1e-3)

    def test_rates_valid_after_run_settles(self, sim):
        fab = Fabric(sim, n_nodes=2, nic_bw=1 * GB, latency=0.0)
        fab.transfer(0, 1, 10 * GB)
        sim.run(until=0.01)
        u = fab.utilization(0)
        assert u["tx"] == pytest.approx(1 * GB)

    def test_sub_ulp_horizons_cannot_hang(self, sim):
        """Regression: a nearly finished flow at a large timestamp must
        not respin the completion timer at the same instant forever."""
        fab = Fabric(sim, n_nodes=2, nic_bw=1 * GB, latency=0.0)
        # Advance the clock far, then run a short transfer whose horizon
        # underflows the clock's ULP.
        sim.schedule_callback(1e5, lambda: fab.transfer(0, 1, 1 * GB))
        sim.run()
        assert fab.bytes_completed == pytest.approx(1 * GB)

    def test_overflowing_horizon_arms_no_timer(self, sim):
        """A positive rate whose horizon overflows to inf (a subnormal
        cap) arms no completion timer, as when nothing drains: the run
        ends at a finite time with the flow still in flight."""
        fab = Fabric(sim, n_nodes=2, nic_bw=1 * GB, latency=0.0)
        fab.transfer(0, 1, 1 * GB, cap=5e-324)
        sim.run()
        assert sim.now == 0.0
        assert fab.n_active == 1 and fab._tab.col("rate")[0] > 0


def _drive_fused(n_nodes, seed, bisection_bw):
    """A fabric workload with simultaneous completions, finite caps and
    a bisection limit; returns every observable of the flow events.

    Flows come in groups of equal size behind shared endpoints, so
    several finish at the same instant (multi-completion drains).  At
    each probe instant utilization is read, a flow is added, read
    again, and read once more after the same-timestamp reallocation,
    then a second flow is added at that timestamp.
    """
    sim = Simulator()
    fab = Fabric(sim, n_nodes, nic_bw=100.0, bisection_bw=bisection_bw,
                 latency=1e-3, small_flow_bytes=0.0)
    rng = random.Random(seed)
    hot = rng.sample(range(n_nodes), 10)
    events = {"drains": [], "reallocs": [], "done": [], "util": []}

    advance, assign = fab._advance, fab._assign_rates

    def snapshot():
        tab = fab._tab
        return ([f.tag for f in fab.flows],
                [c[:tab.n].copy() for c in tab.cols])

    def traced_advance():
        before = [f.tag for f in fab.flows]
        advance()
        tags, cols = snapshot()
        gone = [t for t in before if t not in set(tags)]
        if gone:
            events["drains"].append((sim.now, before, gone, tags, cols))

    def traced_assign():
        horizon = assign()
        events["reallocs"].append((sim.now, horizon, snapshot()))
        return horizon

    fab._advance, fab._assign_rates = traced_advance, traced_assign

    def util():
        events["util"].append(
            (sim.now, [tuple(fab.utilization(nd).values())
                       for nd in range(n_nodes)]))

    def start(k):
        src, dst = rng.sample(hot, 2)
        size = rng.choice([150.0, 300.0])
        cap = math.inf if rng.random() < 0.6 else rng.choice([7.5, 20.0])
        ev = fab.transfer(src, dst, size, cap=cap, tag=k)
        ev.add_callback(lambda e, k=k: events["done"].append((k, sim.now)))

    for k in range(60):
        start(k)

    def probe(i):
        util()
        start(100 + 2 * i)
        util()  # between two flow changes at one timestamp
        sim.schedule_callback(0.0, after_realloc, i)

    def after_realloc(i):
        util()
        start(101 + 2 * i)
        if i < 12:
            sim.schedule_callback(0.37, probe, i + 1)

    sim.schedule_callback(0.05, probe, 0)
    sim.run()
    util()
    return events


class TestFusedKernelParity:
    """The C drain and reallocation equal the NumPy fallback exactly —
    no tolerances — on dense and giant fabrics."""

    @_needs_kernels
    @pytest.mark.parametrize("n_nodes", [16, 300])
    @pytest.mark.parametrize("bisection_bw", [None, 450.0])
    def test_c_matches_numpy(self, monkeypatch, n_nodes, bisection_bw):
        kernel = _drive_fused(n_nodes, 5, bisection_bw)
        _numpy_only(monkeypatch)
        numpy = _drive_fused(n_nodes, 5, bisection_bw)

        assert kernel["done"] == numpy["done"]
        assert len(kernel["done"]) == 60 + 26
        # Drains: same instants, finished flows (in index order) and
        # survivors in the same order with bit-equal columns.
        assert len(kernel["drains"]) == len(numpy["drains"])
        assert any(len(d[2]) > 1 for d in kernel["drains"])
        for (tk, bk, gk, sk, ck), (tn, bn, gn, sn, cn) in zip(
                kernel["drains"], numpy["drains"]):
            assert (tk, bk, gk, sk) == (tn, bn, gn, sn)
            assert all(np.array_equal(a, b) for a, b in zip(ck, cn))
        # Reallocations: rates (in the table) and the returned horizon.
        assert len(kernel["reallocs"]) == len(numpy["reallocs"])
        for (tk, hk, (sk, ck)), (tn, hn, (sn, cn)) in zip(
                kernel["reallocs"], numpy["reallocs"]):
            assert (tk, hk, sk) == (tn, hn, sn)
            assert all(np.array_equal(a, b) for a, b in zip(ck, cn))
        assert any(h > 0 for _, h, _ in kernel["reallocs"])
        assert kernel["util"] == numpy["util"]

    def test_utilization_equals_per_flow_sums(self, monkeypatch):
        """Computed on read, cached until the next flow change: every
        read equals the in-order per-flow sums at that moment."""
        sim = Simulator()
        fab = Fabric(sim, 300, nic_bw=100.0, latency=0.0,
                     small_flow_bytes=0.0)
        for k, (src, dst) in enumerate([(0, 1), (0, 2), (299, 1),
                                        (5, 299)]):
            fab.transfer(src, dst, 50.0 + 25.0 * k)
        seen = []

        def check():
            tab = fab._tab
            r = tab.col("rate")
            for nd in (0, 1, 2, 5, 299, 7):
                assert fab.utilization(nd) == {
                    "tx": sum((float(x) for x, s in zip(r, tab.col("src"))
                               if s == nd), 0.0),
                    "rx": sum((float(x) for x, d in zip(r, tab.col("dst"))
                               if d == nd), 0.0)}
            seen.append(tab.n)
            if tab.n:
                sim.schedule_callback(0.3, check)

        sim.schedule_callback(0.0, check)
        sim.run()
        assert seen[0] == 4 and seen[-1] == 0 and len(set(seen)) > 2
        assert fab.utilization(0) == {"tx": 0.0, "rx": 0.0}


class TestFusedRouting:
    def _run(self):
        sim = Simulator()
        fab = Fabric(sim, 8, nic_bw=100.0, bisection_bw=300.0,
                     small_flow_bytes=0.0)
        for k in range(20):
            fab.transfer(k % 8, (3 * k + 1) % 8, 40.0 + k, cap=35.0)
        sim.run()
        assert fab.bytes_completed == sum(40.0 + k for k in range(20))

    def test_unavailable_kernel_routes_both_calls_to_numpy(self,
                                                          monkeypatch):
        def boom(*args):
            raise AssertionError("C kernel called on the NumPy path")

        calls = {"remove": 0, "numpy": 0}
        remove = FlowTable.remove
        numpy_alloc = Fabric._assign_rates_fast

        def count_remove(tab, idx):
            calls["remove"] += 1
            remove(tab, idx)

        def count_numpy(fab):
            calls["numpy"] += 1
            numpy_alloc(fab)

        _numpy_only(monkeypatch)
        monkeypatch.setattr(fastalloc, "RAW_REALLOC", boom)
        monkeypatch.setattr(FlowTable, "remove", count_remove)
        monkeypatch.setattr(Fabric, "_assign_rates_fast", count_numpy)
        self._run()
        assert calls["remove"] > 0 and calls["numpy"] > 0

    @_needs_kernels
    def test_available_kernel_takes_one_native_call_per_event(
            self, monkeypatch):
        def boom(*args):
            raise AssertionError("NumPy path taken with the kernel loaded")

        calls = {"drain": 0, "realloc": 0}
        drain, realloc = fastdrain.RAW_DRAIN, fastalloc.RAW_REALLOC

        def count_drain(*args):
            calls["drain"] += 1
            return drain(*args)

        def count_realloc(*args):
            calls["realloc"] += 1
            return realloc(*args)

        monkeypatch.setattr(fastdrain, "RAW_DRAIN", count_drain)
        monkeypatch.setattr(fastalloc, "RAW_REALLOC", count_realloc)
        monkeypatch.setattr(FlowTable, "remove", boom)
        monkeypatch.setattr(Fabric, "_assign_rates_fast", boom)
        self._run()
        assert calls["drain"] > 0 and calls["realloc"] > 0
