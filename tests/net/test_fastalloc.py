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


def _loaded_fabric(n_nodes, flows, nic_bw, bisection_bw, sizes=None):
    """A fabric whose flow table holds ``flows`` as (src, dst, cap), each
    with ``remaining`` from ``sizes`` (default 1e9)."""
    fab = Fabric(Simulator(), n_nodes, nic_bw=nic_bw,
                 bisection_bw=bisection_bw)
    tab = fab._tab
    if sizes is None:
        sizes = [1e9] * len(flows)
    for (src, dst, cap), size in zip(flows, sizes):
        n = tab.add()
        for col, value in zip(tab.cols, (size, 0.0, src, dst, cap)):
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


def _wave(n_nodes, reducers, fan, stride, fixed, seed):
    """Flows of a reduce-side shuffle wave caught mid-flight.

    Each reducer has ``fan`` fetches in flight (``fixed``) or 1 to
    ``fan``, from a random point of the benchmark wave's strided sender
    list, so the channel counts take a few distinct values and the
    water-fill splits them over many rounds.  Returns the (src, dst,
    cap) flows and their sizes.
    """
    rng = random.Random(seed)
    flows, sizes = [], []
    for r in reducers:
        k0 = rng.randrange(fan)
        for k in range(k0, k0 + (fan if fixed else rng.randint(1, fan))):
            sender = (r + 1 + k * stride % (n_nodes - 1)) % n_nodes
            flows.append((sender, r, math.inf))
            sizes.append(12e6 + rng.randrange(4096) * 1024.0)
    return flows, sizes


def _three_way(n_nodes, flows, nic_bw, bisection_bw, sizes=None):
    """Assert the oracle, the NumPy path and (when loaded) the kernel
    give the same rates bit for bit, and the kernel returns the NumPy
    path's horizon; returns the rates."""
    src, dst, caps = (np.array(col) for col in zip(*flows))
    expected = progressive_filling(src, dst, caps.astype(float), nic_bw,
                                   bisection_bw)
    fab = _loaded_fabric(n_nodes, flows, nic_bw, bisection_bw, sizes)
    rate = fab._tab.col("rate")
    fab._assign_rates_fast()
    assert rate.tobytes() == expected.tobytes()
    horizon = fab._tab.horizon()
    if fastalloc.AVAILABLE:
        rate[:] = -1.0
        got = fab._assign_rates()
        assert rate.tobytes() == expected.tobytes()
        assert np.float64(got).tobytes() == np.float64(horizon).tobytes()
    return expected


#: (n_nodes, reducers, fan, stride, fixed): the full 1,010-node wave
#: with a fixed and a varying fan-in, a 300-node one, a 640-node wave
#: with neighbouring senders (all with more flows than nodes), and a
#: 1,010-node fabric where only 150 reducers fetch, so the flows are
#: fewer than the nodes.
WAVES = [(300, range(300), 4, 7, False), (1010, range(1010), 8, 37, False),
         (1010, range(1010), 4, 37, True), (640, range(640), 3, 1, False),
         (1010, range(0, 1010, 7)[:150], 6, 101, False)]


def _wave_id(wave):
    n_nodes, reducers, fan, stride, fixed = wave
    fan = f"fan{fan}" if fixed else f"fan1-{fan}"
    return f"{n_nodes}n-{len(reducers)}r-{fan}-stride{stride}"


class TestStructuredTables:
    """Shuffle-wave tables the random 40-flow sets above never reach:
    hundreds of channels in a few count classes, split over rounds."""

    @pytest.mark.parametrize("wave", WAVES, ids=_wave_id)
    def test_shuffle_wave(self, wave):
        n_nodes = wave[0]
        flows, sizes = _wave(*wave, seed=n_nodes)
        rates = _three_way(n_nodes, flows, 4.0 * 2 ** 30, None, sizes)
        assert len(np.unique(rates)) >= 3  # several freeze rounds

    @pytest.mark.parametrize("wave", WAVES, ids=_wave_id)
    def test_caps_equal_to_reachable_levels(self, wave):
        """Caps set to water levels the uncapped fill reaches, and one
        ulp either side, freeze on the cap margin's exact-zero edge."""
        n_nodes = wave[0]
        flows, sizes = _wave(*wave, seed=1)
        nic_bw = 4.0 * 2 ** 30
        levels = np.unique(_three_way(n_nodes, flows, nic_bw, None))
        capped = []
        for i, (src, dst, _) in enumerate(flows):
            level = levels[i % levels.size]
            cap = (level, np.nextafter(level, 0.0),
                   np.nextafter(level, math.inf), math.inf)[i % 4]
            capped.append((src, dst, float(cap)))
        _three_way(n_nodes, capped, nic_bw, None, sizes)

    @pytest.mark.parametrize("share", [0.25, 0.6, 0.95])
    @pytest.mark.parametrize("wave", WAVES, ids=_wave_id)
    def test_bisection_exhausts_mid_fill(self, wave, share):
        """A core between what the first saturation round and the whole
        uncapped fill carry binds mid-fill: flows frozen before it keep
        lower rates, and the rest stop together."""
        n_nodes = wave[0]
        flows, sizes = _wave(*wave, seed=2)
        nic_bw = 4.0 * 2 ** 30
        uncapped = _three_way(n_nodes, flows, nic_bw, None)
        first = len(flows) * uncapped.min()
        core = first + share * (uncapped.sum() - first)
        rates = _three_way(n_nodes, flows, nic_bw, core, sizes)
        assert rates.min() < rates.max()
        assert rates.sum() == pytest.approx(core, rel=1e-6)

    def test_table_grown_past_its_scratch_capacity(self):
        """Arrivals that grow the flow table past its capacity resize
        the kernel's scratch with it, and rates stay the NumPy path's."""
        sim = Simulator()
        fab = Fabric(sim, 40, nic_bw=100.0, bisection_bw=2000.0,
                     latency=1e-3, small_flow_bytes=0.0)
        rng = random.Random(5)
        capacities = []

        def arrive(batch):
            for _ in range(batch):
                cap = math.inf if rng.random() < 0.7 else 1.0 + rng.random()
                fab.transfer(rng.randrange(40), rng.randrange(40),
                             1e4 * (1.0 + rng.random()), cap=cap)

        def check():
            tab = fab._tab
            assert fab._iw.size == fastalloc.INT_SCRATCH * tab.capacity
            assert fab._dw.size == fastalloc.DOUBLE_SCRATCH * tab.capacity
            expected = fab._assign_rates_numpy(
                fab.n_nodes, tab.col("src"), tab.col("dst"))
            assert tab.col("rate").tobytes() == expected.tobytes()
            if fastalloc.AVAILABLE:
                horizon = tab.horizon()
                assert np.float64(fab._assign_rates()).tobytes() \
                    == np.float64(horizon).tobytes()
            capacities.append(tab.capacity)

        for k, batch in enumerate((10, 20, 40, 80, 160)):
            sim.schedule_callback(0.01 * k, arrive, batch)
            sim.schedule_callback(0.01 * k + 0.005, check)
        sim.run(until=0.06)
        assert capacities[-1] >= 256 and len(set(capacities)) >= 4

    def test_scratch_capacity_guard(self):
        """32-bit scratch indices: a table of 2^31 rows is refused
        before any scratch is allocated."""
        fab = Fabric(Simulator(), 4)
        fab._tab.capacity = 2 ** 31
        with pytest.raises(ValueError, match="32-bit"):
            fab._size_scratch()


def _staircase(n_nodes, m):
    """m flows where tx node t sends to rx nodes 0..t: the tx counts
    run 1, 2, 3, ... and the rx counts down, every count differs, and
    each freeze splits classes.  Every third flow is capped."""
    flows, t = [], 0
    while len(flows) < m:
        for r in range(t + 1):
            if len(flows) < m:
                cap = 3.0 + r if len(flows) % 3 == 0 else math.inf
                flows.append((t % n_nodes, r % n_nodes, cap))
        t += 1
    return flows


#: Full tables (m equal to the capacity, the tightest scratch fit):
#: (n_nodes, flows, bisection_bw).
CANARY_TABLES = [
    (300, _wave(300, range(300), 4, 7, False, seed=3)[0][:512], None),
    (30, _staircase(30, 256), 900.0),
    (5000, [(2 * k, 2 * k + 1, math.inf if k % 2 else 7.0)
            for k in range(128)], None),
    (5000, _staircase(5000, 128), 350.0),
]


@pytest.mark.skipif(not fastalloc.AVAILABLE,
                    reason="C kernel unavailable on this machine")
@pytest.mark.parametrize("fill", [0, 1, 0xA5A5A5A5])
def test_kernel_writes_only_its_scratch(fill):
    """Canary words around the scratch stay unchanged and every ``ids``
    stamp is back to -1 after adversarial calls, whatever stale
    content the scratch starts with; rates stay the NumPy path's."""
    for n_nodes, flows, bisection_bw in CANARY_TABLES:
        fab = _loaded_fabric(n_nodes, flows, 100.0, bisection_bw)
        tab = fab._tab
        assert tab.n == tab.capacity
        # Guards as long as the scratch itself, so an overrun by whole
        # rows lands in them rather than in the heap.
        n_iw = fastalloc.INT_SCRATCH * tab.capacity
        n_dw = fastalloc.DOUBLE_SCRATCH * tab.capacity
        iw = np.full(3 * n_iw, fill, dtype=np.uint32)
        dw = np.full(3 * n_dw, -7.25)
        fab._p_iw = iw[n_iw:].ctypes.data
        fab._p_dw = dw[n_dw:].ctypes.data
        fab._assign_rates_fast()
        expected = tab.col("rate").tobytes()
        for _ in range(2):  # the second call sees the first's leftovers
            tab.col("rate")[:] = -1.0
            fab._assign_rates()
            assert tab.col("rate").tobytes() == expected
            assert (iw[:n_iw] == fill).all()
            assert (iw[2 * n_iw:] == fill).all()
            assert (dw[:n_dw] == -7.25).all()
            assert (dw[2 * n_dw:] == -7.25).all()
            assert (fab._ids == -1).all()
