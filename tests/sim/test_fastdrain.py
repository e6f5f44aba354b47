"""C drain / fair-share kernel parity (hypothesis-driven).

The fluid-pipe inner loops run as C kernels or, without a compiler, as
a vectorized NumPy fallback, and the two must be **bit-for-bit**
interchangeable.  These tests drive both against a transparent Python
model with adversarial rates, sizes, and near-threshold epsilons, and
whole pipes against each other, comparing with exact equality — never
tolerances.  ``repro bench --check`` holds whole runs to the captured
fingerprints.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FluidPipe, Simulator
from repro.sim import fastdrain
from repro.sim.fluid import fair_share

# Adversarial magnitudes: tiny values straddling the 1e-6 finish
# threshold, everyday byte counts, and huge transfers.
_sizes = st.floats(min_value=1e-9, max_value=1e12, allow_nan=False,
                   allow_infinity=False)
_rates = st.floats(min_value=0.0, max_value=1e12, allow_nan=False,
                   allow_infinity=False)
_dts = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                 allow_infinity=False)


def _model_drain(remaining, rate, dt):
    """The reference semantics, in the most transparent form possible."""
    finished, surv_rem, surv_rate = [], [], []
    for i in range(len(remaining)):
        left = remaining[i] - rate[i] * dt
        if left <= 1e-6:
            finished.append(i)
        else:
            surv_rem.append(left)
            surv_rate.append(rate[i])
    return finished, surv_rem, surv_rate


class TestDrainParity:
    @pytest.mark.skipif(not fastdrain.AVAILABLE,
                        reason="C kernel unavailable on this machine")
    @given(st.lists(st.tuples(_sizes, _rates), min_size=0, max_size=64),
           _dts)
    @settings(max_examples=200, deadline=None)
    def test_c_kernel_matches_python_model(self, flows, dt):
        rem = np.array([f[0] for f in flows], dtype=np.float64)
        rate = np.array([f[1] for f in flows], dtype=np.float64)
        fin = np.empty(max(len(flows), 1), dtype=np.int64)
        k = fastdrain.drain(len(flows), dt, rem, rate, fin)
        finished, surv_rem, surv_rate = _model_drain(
            [f[0] for f in flows], [f[1] for f in flows], dt)
        assert k == len(finished)
        assert fin[:k].tolist() == finished          # ascending, exact
        w = len(flows) - k
        assert rem[:w].tobytes() == np.array(
            surv_rem, dtype=np.float64).tobytes()    # bitwise survivors
        assert rate[:w].tobytes() == np.array(
            surv_rate, dtype=np.float64).tobytes()

    @given(st.lists(st.tuples(_sizes, _rates), min_size=0, max_size=64),
           _dts)
    @settings(max_examples=200, deadline=None)
    def test_numpy_fallback_matches_python_model(self, flows, dt):
        # The expression FluidPipe._advance uses when RAW_DRAIN is None.
        rem = np.array([f[0] for f in flows], dtype=np.float64)
        rate = np.array([f[1] for f in flows], dtype=np.float64)
        rem2 = rem - rate * dt
        fin_idx = np.flatnonzero(rem2 <= 1e-6)
        keep = np.ones(len(flows), dtype=bool)
        keep[fin_idx] = False
        finished, surv_rem, surv_rate = _model_drain(
            [f[0] for f in flows], [f[1] for f in flows], dt)
        assert fin_idx.tolist() == finished
        assert rem2[keep].tobytes() == np.array(
            surv_rem, dtype=np.float64).tobytes()
        assert rate[keep].tobytes() == np.array(
            surv_rate, dtype=np.float64).tobytes()


class TestFairShareParity:
    @pytest.mark.skipif(not fastdrain.AVAILABLE,
                        reason="C kernel unavailable on this machine")
    @given(st.lists(st.tuples(
               st.one_of(st.just(math.inf),
                         st.floats(min_value=1e-6, max_value=1e9,
                                   allow_nan=False)),
               _sizes), min_size=1, max_size=64),
           st.floats(min_value=1e-3, max_value=1e12, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_fused_kernel_matches_python_fair_share(self, flows, capacity):
        caps = [f[0] for f in flows]
        remaining = [f[1] for f in flows]
        n = len(flows)
        order = sorted(range(n), key=caps.__getitem__)
        expected = fair_share(capacity, caps, order)
        horizon_py = math.inf
        for r, rem in zip(expected, remaining):
            if r > 0:
                horizon_py = min(horizon_py, rem / r)
        rates_out = np.empty(n, dtype=np.float64)
        horizon_c = fastdrain.fair_share_into(
            capacity, n, np.array(caps, dtype=np.float64),
            np.array(order, dtype=np.int64),
            np.array(remaining, dtype=np.float64), rates_out)
        assert rates_out.tobytes() == np.array(
            expected, dtype=np.float64).tobytes()    # bitwise rates
        assert horizon_c == horizon_py               # inf == inf is fine


class TestLoadAggregateParity:
    """`FluidPipe.load` answers from an incremental aggregate; the
    oracle clamps every flow's column value and sums.  The aggregate
    reorders the float summation (one subtract of `rate_sum*dt` instead
    of per-flow subtracts), so parity here is near-exact rather than
    bitwise — unlike everything the fingerprint check covers, `load` is
    a pure observer and feeds no simulation decisions."""

    @given(st.lists(st.tuples(
               st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
               st.floats(min_value=1e-3, max_value=1e8, allow_nan=False)),
               min_size=1, max_size=20),
           st.lists(st.floats(min_value=0.0, max_value=8.0,
                              allow_nan=False),
                    min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_load_reads_match_reference(self, arrivals, probe_times):
        sim = Simulator()
        pipe = FluidPipe(sim, capacity=1e6)

        def clamp_sum():
            n = len(pipe.flows)
            dt = sim.now - pipe._last_advance
            return sum(max(rem - rate * dt, 0.0) for rem, rate in
                       zip(pipe._a_rem[:n].tolist(),
                           pipe._a_rate[:n].tolist()))

        for delay, size in arrivals:
            sim.schedule_callback(delay, lambda s=size: pipe.transfer(s))
        reads = []
        for t in probe_times:
            sim.schedule_callback(
                t, lambda: reads.append((pipe.load, clamp_sum())))
        sim.run()
        assert len(reads) == len(probe_times)
        for load, expected in reads:
            assert load == pytest.approx(expected, rel=1e-9, abs=1e-6)


class TestEndToEndPipeParity:
    """C kernels vs the NumPy fallback, the kernels' bitwise reference,
    over whole pipe runs."""

    @staticmethod
    def _drive(schedule, capacity):
        sim = Simulator()
        pipe = FluidPipe(sim, capacity=capacity)
        completions = []

        def start(k, size, cap):
            ev = pipe.transfer(size, cap=cap, tag=k)
            ev.add_callback(lambda e, k=k: completions.append((k, sim.now)))

        for k, (delay, size, cap) in enumerate(schedule):
            sim.schedule_callback(delay, start, k, size, cap)
        sim.run()
        return tuple(completions), pipe.bytes_completed

    @pytest.mark.skipif(not fastdrain.AVAILABLE,
                        reason="C kernel unavailable on this machine")
    @given(st.lists(st.tuples(
               st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
               st.floats(min_value=1e-3, max_value=1e9, allow_nan=False),
               st.one_of(st.just(math.inf),
                         st.floats(min_value=0.5, max_value=1e6,
                                   allow_nan=False))),
               min_size=1, max_size=25),
           st.floats(min_value=1.0, max_value=1e9, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_optimized_run_is_byte_identical_to_reference(self, schedule,
                                                          capacity):
        kernels = self._drive(schedule, capacity)
        saved = fastdrain.RAW_DRAIN, fastdrain.RAW_FAIR
        fastdrain.RAW_DRAIN = fastdrain.RAW_FAIR = None
        try:
            fallback = self._drive(schedule, capacity)
        finally:
            fastdrain.RAW_DRAIN, fastdrain.RAW_FAIR = saved
        assert kernels == fallback
