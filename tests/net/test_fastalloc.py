"""Allocator parity: C kernel vs NumPy fast path vs a plain oracle.

The fabric's progressive-filling max–min allocator runs as a C kernel
or, without a compiler, as a restructured NumPy loop.  Both must give
the rates of the textbook algorithm bit for bit: Hypothesis checks the
NumPy path against :func:`progressive_filling` below over random flow
sets, the kernel is checked against the NumPy path, and a randomized
fabric workload's completion times, mid-simulation per-flow rates and
per-node utilization are pinned to values captured before the
pre-optimization allocator was retired.  All comparisons are exact — no
tolerances.  ``REPRO_NO_CKERNEL=1`` gating is checked in a subprocess
because the kernel loads at import time.
"""

import hashlib
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import fastalloc
from repro.net.fabric import Fabric
from repro.sim import Simulator, fastdrain


def progressive_filling(src, dst, caps, nic_bw, bisection_bw):
    """Max–min rates by progressive filling, one NumPy pass per round.

    All unfixed flows grow together by the largest increment no NIC
    direction, the core or a cap can refuse; flows whose cap or
    endpoint saturates (within a relative tolerance) freeze, and
    filling continues with the rest until no flow freezes.
    """
    n_flows = len(src)
    n_nodes = int(max(src.max(), dst.max())) + 1
    rates = np.zeros(n_flows)
    active = np.ones(n_flows, dtype=bool)
    tx_head = np.full(n_nodes, nic_bw)
    rx_head = np.full(n_nodes, nic_bw)
    core_head = bisection_bw
    nic_tol = 1e-7 * nic_bw
    finite_cap = np.isfinite(caps)
    cap_tol = np.where(finite_cap, 1e-7 * caps + 1e-12, 0.0)
    while active.any():
        tx_cnt = np.bincount(src[active], minlength=n_nodes)
        rx_cnt = np.bincount(dst[active], minlength=n_nodes)
        inc = math.inf
        for head, cnt in ((tx_head, tx_cnt), (rx_head, rx_cnt)):
            used = cnt > 0
            if used.any():
                inc = min(inc, float((head[used] / cnt[used]).min()))
        n_active = int(active.sum())
        if core_head is not None:
            inc = min(inc, core_head / n_active)
        inc = min(inc, float((caps[active] - rates[active]).min()))
        if not math.isfinite(inc) or inc < 0:
            inc = 0.0
        rates[active] += inc
        tx_head -= inc * tx_cnt
        rx_head -= inc * rx_cnt
        if core_head is not None:
            core_head -= inc * n_active
        frozen = ((finite_cap & (caps - rates <= cap_tol))
                  | (tx_head <= nic_tol)[src] | (rx_head <= nic_tol)[dst])
        if core_head is not None and \
                core_head <= 1e-7 * (bisection_bw or 1.0):
            frozen = np.ones(n_flows, dtype=bool)
        if not (active & frozen).any():
            break  # no progress possible: freeze the rest as-is
        active &= ~frozen
    return rates


def _loaded_fabric(n_nodes, flows, nic_bw, bisection_bw):
    """A fabric whose flow table holds ``flows`` as (src, dst, cap)."""
    fab = Fabric(Simulator(), n_nodes, nic_bw=nic_bw,
                 bisection_bw=bisection_bw)
    tab = fab._tab
    for src, dst, cap in flows:
        n = tab.add()
        for col, value in zip(tab.cols, (1e9, 0.0, src, dst, cap)):
            col[n] = value
    fab._size_scratch()
    return fab


def _numpy_only(monkeypatch):
    """Switch both fabric flow-event kernels to the NumPy fallback."""
    monkeypatch.setattr(fastalloc, "AVAILABLE", False)
    monkeypatch.setattr(fastdrain, "RAW_DRAIN", None)


_flow_sets = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(
        # Above _COMPACT_NODES the NumPy path compresses the channels.
        st.sampled_from([n, 300]),
        st.lists(st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=n - 1),
            st.one_of(st.just(math.inf),
                      st.floats(min_value=0.5, max_value=500.0))),
            min_size=1, max_size=40),
        st.floats(min_value=10.0, max_value=1000.0),
        st.one_of(st.none(), st.floats(min_value=5.0, max_value=5000.0))))


def _drive(n_nodes=8, n_flows=40, seed=1234):
    """Randomized fabric workload; returns everything observable.

    ``small_flow_bytes=0`` sends every flow through the allocator; the
    probe reads live rates from the flow table, where they are kept.
    """
    sim = Simulator()
    fab = Fabric(sim, n_nodes, nic_bw=100.0, bisection_bw=550.0,
                 latency=1e-3, small_flow_bytes=0.0)
    times = {}
    samples = []
    rng = random.Random(seed)

    for k in range(n_flows):
        src = rng.randrange(n_nodes)
        dst = rng.randrange(n_nodes)
        size = 50.0 + 400.0 * rng.random()
        cap = math.inf if rng.random() < 0.5 else 10.0 + 60.0 * rng.random()
        ev = fab.transfer(src, dst, size, cap=cap, tag=k)
        ev.add_callback(lambda e, k=k: times.__setitem__(k, sim.now))

    def probe(k):
        live = fab._tab.col("rate").tolist()
        rates = tuple(sorted(zip((f.tag for f in fab.flows), live)))
        util = tuple((fab.utilization(nd)["tx"], fab.utilization(nd)["rx"])
                     for nd in range(n_nodes))
        samples.append((sim.now, rates, util))
        if k < 25:
            sim.schedule_callback(0.13, probe, k + 1)

    sim.schedule_callback(0.05, probe, 0)
    sim.run()
    return times, samples


#: SHA-256 of ``repr(_drive())``, captured with the C kernel, the NumPy
#: path and the pre-optimization allocator, which all agreed.
DRIVE_DIGEST = \
    "134217ed87c317adb36ff3ab6d3ef01ad5557c1b389d64778d41402b39264aa8"


class TestThreeWayParity:
    @given(_flow_sets)
    @settings(max_examples=300, deadline=None)
    def test_numpy_matches_reference(self, case):
        """The NumPy path (and the kernel, when loaded) gives the
        oracle's rates bit for bit."""
        n_nodes, flows, nic_bw, bisection_bw = case
        src, dst, caps = (np.array(col) for col in zip(*flows))
        expected = progressive_filling(src, dst, caps.astype(float),
                                       nic_bw, bisection_bw).tobytes()
        fab = _loaded_fabric(n_nodes, flows, nic_bw, bisection_bw)
        fab._assign_rates_fast()
        assert fab._tab.col("rate").tobytes() == expected
        if fastalloc.AVAILABLE:
            fab._assign_rates()
            assert fab._tab.col("rate").tobytes() == expected

    @pytest.mark.parametrize("kernel", ["c", "numpy"])
    def test_drive_matches_captured_output(self, kernel, monkeypatch):
        if kernel == "numpy":
            _numpy_only(monkeypatch)
        elif not (fastalloc.AVAILABLE and fastdrain.AVAILABLE):
            pytest.skip("C kernels unavailable on this machine")
        out = _drive()
        assert len(out[0]) == 40
        assert all(rates for _t, rates, _u in out[1])  # flows were live
        assert hashlib.sha256(repr(out).encode()).hexdigest() \
            == DRIVE_DIGEST

    @pytest.mark.skipif(not (fastalloc.AVAILABLE and fastdrain.AVAILABLE),
                        reason="C kernels unavailable on this machine")
    def test_ckernel_matches_numpy(self, monkeypatch):
        kernel_out = _drive()
        _numpy_only(monkeypatch)
        numpy_out = _drive()
        assert kernel_out == numpy_out


@pytest.mark.skipif(not fastalloc.AVAILABLE,
                    reason="C kernel unavailable on this machine")
def test_kernel_matches_numpy_allocator_directly():
    """Compare raw allocator outputs mid-simulation, array vs array."""
    sim = Simulator()
    fab = Fabric(sim, 6, nic_bw=100.0, bisection_bw=400.0)
    rng = random.Random(7)
    for k in range(25):
        cap = math.inf if k % 3 else 20.0 + 5.0 * k
        fab.transfer(rng.randrange(6), rng.randrange(6),
                     1e6, cap=cap, tag=k)
    checked = []

    def check():
        # Kernel wrote tab["rate"]; the NumPy path recomputes from
        # scratch.  They must agree bit for bit.
        if fab._tab.n:
            expected = fab._assign_rates_numpy(
                fab.n_nodes, fab._tab.col("src"), fab._tab.col("dst"))
            assert np.array_equal(expected, fab._tab.col("rate"))
            checked.append(fab._tab.n)

    sim.schedule_callback(0.01, check)
    sim.run(until=0.02)
    assert checked  # the probe actually saw live flows


def test_no_ckernel_env_gate(tmp_path):
    """REPRO_NO_CKERNEL=1 must disable both kernels at import time."""
    env = dict(os.environ, REPRO_NO_CKERNEL="1",
               PYTHONPATH=os.path.join(os.getcwd(), "src"))
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.net import fastalloc; from repro.sim import fastdrain; "
         "print(fastalloc.AVAILABLE, fastdrain.AVAILABLE)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False False"


class TestUtilizationAccumulators:
    def test_idle_fabric_is_zero(self):
        sim = Simulator()
        fab = Fabric(sim, 4, nic_bw=100.0)
        assert fab.utilization(0) == {"tx": 0.0, "rx": 0.0}

    def test_accumulators_match_per_flow_sum(self):
        sim = Simulator()
        fab = Fabric(sim, 4, nic_bw=100.0)
        for src, dst in [(0, 1), (0, 2), (3, 1)]:
            fab.transfer(src, dst, 1e6, tag=(src, dst))
        checked = []

        def check():
            # Authoritative per-flow rates live in the columns (NetFlow
            # objects no longer mirror rate per reallocation).
            rates = fab._tab.col("rate")
            for nd in range(4):
                u = fab.utilization(nd)
                assert u["tx"] == sum(
                    float(r) for f, r in zip(fab.flows, rates)
                    if f.src == nd)
                assert u["rx"] == sum(
                    float(r) for f, r in zip(fab.flows, rates)
                    if f.dst == nd)
            checked.append(True)

        sim.schedule_callback(0.01, check)
        sim.run(until=0.02)
        assert checked
