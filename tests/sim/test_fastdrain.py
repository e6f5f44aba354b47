"""C drain / fair-share kernel parity (hypothesis-driven).

The fluid core's drain and the pipe's fair share run as C kernels or,
without a compiler, as a vectorized NumPy fallback, and the two must be
**bit-for-bit** interchangeable.  These tests drive both against a transparent Python
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
from repro.sim.flowarray import FlowTable
from repro.sim.fluid import fair_share

# Adversarial magnitudes: tiny values straddling the 1e-6 finish
# threshold, everyday byte counts, and huge transfers.
_sizes = st.floats(min_value=1e-9, max_value=1e12, allow_nan=False,
                   allow_infinity=False)


def _ulps(x, k):
    """``x`` moved ``k`` ULP up (k > 0) or down."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.inf if k > 0 else -math.inf))
    return x


def _bits(x):
    return int(np.float64(x).view(np.int64))


_SUBNORMALS = st.sampled_from([5e-324, -5e-324, 2.2250738585072009e-308,
                               1e-310])
# remaining: within a few ULP of the threshold, -0.0, subnormals, sizes.
_remaining = st.one_of(st.integers(-4, 4).map(lambda k: _ulps(1e-6, k)),
                       st.sampled_from([0.0, -0.0]), _SUBNORMALS, _sizes)
# rate: zero, -0.0, subnormal, ordinary and huge.  dt is positive: the
# fluid core drains only over elapsed time.
_rate = st.one_of(st.sampled_from([0.0, -0.0]), _SUBNORMALS,
                  st.floats(min_value=0.0, max_value=1e300))
_dt = st.one_of(st.floats(min_value=0.0, max_value=1e6, exclude_min=True),
                st.sampled_from([5e-324, 1e-9]))
# Extra columns are given as raw 64-bit words: any pattern for int64,
# and for float64 any pattern (NaN payloads included) or a rate cap a
# table really holds (inf, -0.0, subnormals).
_word = st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1)
_float_word = st.one_of(_word, st.sampled_from(
    [_bits(math.inf), _bits(-0.0), _bits(5e-324), _bits(1e-310)]))


@st.composite
def _tables(draw):
    """(extra dtypes, rows, dt): 2 to 5 columns, 0 to 40 rows."""
    kinds = draw(st.lists(st.sampled_from([np.int64, np.float64]),
                          max_size=3))
    row = st.tuples(_remaining, _rate,
                    *[_word if k is np.int64 else _float_word
                      for k in kinds])
    return kinds, draw(st.lists(row, max_size=40)), draw(_dt)


def _filled(kinds, rows):
    """A table holding ``rows``; extra columns are stored as words."""
    tab = FlowTable(**{f"c{i}": k for i, k in enumerate(kinds)})
    for rem, rate, *words in rows:
        n = tab.add()
        tab.cols[0][n] = rem
        tab.cols[1][n] = rate
        for col, word in zip(tab.cols[2:], words):
            col.view(np.int64)[n] = word
    return tab


def _column_bytes(tab):
    return [col[:tab.n].tobytes() for col in tab.cols]


def _drain(kinds, rows, dt, kernel):
    """Drain a fresh table with the C kernel or (None) the NumPy path."""
    tab = _filled(kinds, rows)
    saved = fastdrain.RAW_DRAIN
    fastdrain.RAW_DRAIN = kernel
    try:
        finished = list(tab.drain(dt))
    finally:
        fastdrain.RAW_DRAIN = saved
    return finished, _column_bytes(tab)


def _model_drain(kinds, rows, dt):
    """The reference semantics, in the most transparent form possible:
    finished indices and the survivors' columns, ``remaining``
    decremented and every other value moved unchanged."""
    finished, survivors = [], []
    for i, (rem, rate, *words) in enumerate(rows):
        left = rem - rate * dt
        if left <= 1e-6:
            finished.append(i)
        else:
            survivors.append((left, rate, *words))
    return finished, _column_bytes(_filled(kinds, survivors))


_needs_kernel = pytest.mark.skipif(
    not fastdrain.AVAILABLE, reason="C kernel unavailable on this machine")


class TestDrainParity:
    """``repro_flow_drain`` and the NumPy drain (``remaining -= rate *
    dt`` plus ``FlowTable.remove``) over 2 to 5 columns, compared by
    finished indices and every column's bytes."""

    @_needs_kernel
    @given(_tables())
    @settings(max_examples=300, deadline=None)
    def test_c_kernel_matches_numpy_bitwise(self, case):
        kinds, rows, dt = case
        assert _drain(kinds, rows, dt, fastdrain.RAW_DRAIN) \
            == _drain(kinds, rows, dt, None)

    @_needs_kernel
    @given(_tables())
    @settings(max_examples=100, deadline=None)
    def test_c_kernel_matches_python_model(self, case):
        kinds, rows, dt = case
        assert _drain(kinds, rows, dt, fastdrain.RAW_DRAIN) \
            == _model_drain(kinds, rows, dt)

    @given(_tables())
    @settings(max_examples=100, deadline=None)
    def test_numpy_fallback_matches_python_model(self, case):
        kinds, rows, dt = case
        assert _drain(kinds, rows, dt, None) == _model_drain(kinds, rows, dt)


class TestFairShareParity:
    @pytest.mark.skipif(not fastdrain.AVAILABLE,
                        reason="C kernel unavailable on this machine")
    @given(st.lists(st.tuples(
               st.one_of(st.just(math.inf),
                         st.floats(min_value=1e-6, max_value=1e9,
                                   allow_nan=False)),
               _sizes), min_size=1, max_size=64),
           st.one_of(st.floats(min_value=1e-3, max_value=1e12,
                               allow_nan=False), st.just(math.inf)))
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
