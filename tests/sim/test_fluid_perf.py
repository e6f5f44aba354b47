"""FluidPipe hot-path contracts and ``fair_share`` properties.

The coalesced reallocation path reproduces completion times captured
before the uncoalesced path was retired, same-timestamp completions
fire in arrival order, and ``fair_share`` satisfies the max–min
properties (work-conservation, cap-respect, permutation invariance)
under Hypothesis-generated inputs.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.fluid import FluidPipe, fair_share

_CAP = st.one_of(st.floats(min_value=0.1, max_value=1e6),
                 st.just(math.inf))


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


class TestFairShareProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e7),
           st.lists(_CAP, min_size=1, max_size=12))
    def test_work_conserving_and_cap_respecting(self, capacity, caps):
        rates = fair_share(capacity, caps)
        assert len(rates) == len(caps)
        for r, c in zip(rates, caps):
            assert r <= c * (1 + 1e-12) + 1e-9  # never above its cap
            assert r >= -1e-9                   # never negative
        # Work conservation: capacity is exhausted unless every flow is
        # cap-limited first.
        total_cap = sum(c for c in caps if math.isfinite(c))
        expect = capacity if any(math.isinf(c) for c in caps) \
            else min(capacity, total_cap)
        assert _close(sum(rates), expect)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e7),
           st.lists(_CAP, min_size=2, max_size=10),
           st.randoms(use_true_random=False))
    def test_permutation_invariance(self, capacity, caps, rng):
        """A flow's rate depends on its cap, not its position."""
        rates = fair_share(capacity, caps)
        perm = list(range(len(caps)))
        rng.shuffle(perm)
        rates_p = fair_share(capacity, [caps[p] for p in perm])
        for i, p in enumerate(perm):
            assert _close(rates_p[i], rates[p])

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e7),
           st.lists(_CAP, min_size=1, max_size=10))
    def test_precomputed_order_is_exact(self, capacity, caps):
        """Passing the cached sort order changes nothing, bit for bit."""
        order = sorted(range(len(caps)), key=caps.__getitem__)
        assert fair_share(capacity, caps, order) == fair_share(capacity, caps)

    def test_empty(self):
        assert fair_share(100.0, []) == []

    def test_bottleneck_shared_equally(self):
        rates = fair_share(90.0, [math.inf, math.inf, math.inf])
        assert rates == [30.0, 30.0, 30.0]

    def test_capped_flow_redistributes(self):
        # The capped flow takes 10; the others split the remaining 80.
        rates = fair_share(90.0, [10.0, math.inf, math.inf])
        assert rates == [10.0, 40.0, 40.0]


def _drive_chained(n_chains=6, depth=4):
    """A chained-transfer workload; returns (tag -> completion time)."""
    sim = Simulator()
    pipe = FluidPipe(sim, capacity=1000.0,
                     capacity_fn=lambda n: 1000.0 / (1 + 0.1 * n))
    times = {}

    def start(chain, hop):
        ev = pipe.transfer(500.0 + 37.0 * chain, cap=400.0 + 10.0 * hop,
                           tag=(chain, hop))
        def fin(e, chain=chain, hop=hop):
            times[(chain, hop)] = sim.now
            if hop + 1 < depth:
                start(chain, hop + 1)
        ev.add_callback(fin)

    for chain in range(n_chains):
        start(chain, 0)
    sim.run()
    return times


#: ``_drive_chained()``'s completion times, captured when the coalesced
#: and the one-reallocation-per-change pipes both produced them.
CHAINED_TIMES = {
    (0, 0): 4.8, (0, 1): 9.6, (0, 2): 14.399999999999999, (0, 3): 19.2,
    (1, 0): 5.1552, (1, 1): 10.3104, (1, 2): 15.465599999999998,
    (1, 3): 20.31,
    (2, 0): 5.5104, (2, 1): 11.0208, (2, 2): 16.5312, (2, 3): 21.1388,
    (3, 0): 5.8656, (3, 1): 11.7312, (3, 2): 17.596799999999998,
    (3, 3): 21.715999999999998,
    (4, 0): 6.2208000000000006, (4, 1): 12.441600000000001,
    (4, 2): 18.6624, (4, 3): 22.071199999999997,
    (5, 0): 6.5760000000000005, (5, 1): 13.152000000000001,
    (5, 2): 19.6125, (5, 3): 22.415386046511628,
}


class TestCoalescingParity:
    def test_optimized_matches_reference(self):
        """The captured completion times, byte for byte."""
        assert _drive_chained() == CHAINED_TIMES

    def test_overflowing_horizon_arms_no_timer(self):
        """As on the fabric: a horizon that overflows to inf (a
        subnormal cap) arms no completion timer."""
        sim = Simulator()
        pipe = FluidPipe(sim, capacity=100.0)
        pipe.transfer(100.0, cap=5e-324)
        sim.run()
        assert sim.now == 0.0 and pipe.n_active == 1

    def test_drain_order_preserved(self):
        """Same-timestamp completions fire in arrival order."""
        sim = Simulator()
        pipe = FluidPipe(sim, capacity=100.0)
        order = []
        for k in range(5):
            pipe.transfer(100.0, tag=k).add_callback(
                lambda e, k=k: order.append(k))
        sim.run()
        assert order == list(range(5))
