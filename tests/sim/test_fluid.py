"""Tests for the fluid-flow bandwidth channel."""

import math

import pytest

from repro.sim import FluidPipe, Simulator
from repro.sim.fluid import fair_share


class TestFairShare:
    def test_uncapped_equal_split(self):
        assert fair_share(90.0, [math.inf] * 3) == [30.0, 30.0, 30.0]

    def test_empty(self):
        assert fair_share(100.0, []) == []

    def test_caps_respected_and_redistributed(self):
        rates = fair_share(100.0, [10.0, math.inf, math.inf])
        assert rates[0] == 10.0
        assert rates[1] == rates[2] == 45.0

    def test_all_capped_below_fair(self):
        rates = fair_share(100.0, [5.0, 5.0])
        assert rates == [5.0, 5.0]

    def test_work_conserving(self):
        caps = [10.0, 20.0, math.inf, math.inf, 7.0]
        rates = fair_share(100.0, caps)
        assert sum(rates) == pytest.approx(100.0)
        assert all(r <= c + 1e-9 for r, c in zip(rates, caps))


class TestFluidPipe:
    def test_single_flow_full_bandwidth(self):
        sim = Simulator()
        pipe = FluidPipe(sim, capacity=100.0)
        done = pipe.transfer(500.0)
        sim.run(until=done)
        assert sim.now == pytest.approx(5.0)

    def test_two_flows_share_equally(self):
        sim = Simulator()
        pipe = FluidPipe(sim, capacity=100.0)
        d1 = pipe.transfer(100.0)
        d2 = pipe.transfer(100.0)
        sim.run(until=d1)
        # Both flows at 50 B/s -> each 100 B takes 2 s.
        assert sim.now == pytest.approx(2.0)
        assert d2.triggered

    def test_late_joiner_slows_first_flow(self):
        sim = Simulator()
        pipe = FluidPipe(sim, capacity=100.0)
        d1 = pipe.transfer(100.0)

        def joiner():
            yield sim.timeout(0.5)
            yield pipe.transfer(100.0)

        sim.process(joiner())
        sim.run(until=d1)
        # First 0.5 s at 100 B/s (50 B), remaining 50 B at 50 B/s (1.0 s).
        assert sim.now == pytest.approx(1.5)

    def test_departure_speeds_up_survivor(self):
        sim = Simulator()
        pipe = FluidPipe(sim, capacity=100.0)
        short = pipe.transfer(50.0)
        long = pipe.transfer(150.0)
        sim.run(until=short)
        assert sim.now == pytest.approx(1.0)
        sim.run(until=long)
        # Long had 100 B left, now alone at 100 B/s.
        assert sim.now == pytest.approx(2.0)

    def test_per_flow_cap(self):
        sim = Simulator()
        pipe = FluidPipe(sim, capacity=1000.0)
        done = pipe.transfer(100.0, cap=10.0)
        sim.run(until=done)
        assert sim.now == pytest.approx(10.0)

    def test_zero_byte_transfer_completes_immediately(self):
        sim = Simulator()
        pipe = FluidPipe(sim, capacity=100.0)
        done = pipe.transfer(0.0)
        assert done.triggered

    def test_negative_transfer_rejected(self):
        sim = Simulator()
        pipe = FluidPipe(sim, capacity=100.0)
        with pytest.raises(ValueError):
            pipe.transfer(-5.0)

    @pytest.mark.parametrize("size", [math.nan, math.inf, -math.inf])
    def test_non_finite_transfer_rejected_at_the_call(self, size):
        sim = Simulator()
        pipe = FluidPipe(sim, capacity=100.0)
        with pytest.raises(ValueError, match=f"transfer size .* {size}"):
            pipe.transfer(size)
        assert not pipe.flows

    @pytest.mark.parametrize("cap", [0, 0.0, -1, -math.inf, math.nan])
    def test_non_positive_cap_rejected_at_the_call(self, cap):
        sim = Simulator()
        pipe = FluidPipe(sim, capacity=100.0)
        with pytest.raises(ValueError, match=f"rate cap .* {cap}"):
            pipe.transfer(50.0, cap=cap)
        assert not pipe.flows

    def test_negative_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FluidPipe(sim, capacity=-1.0)

    def test_set_capacity_mid_flight(self):
        sim = Simulator()
        pipe = FluidPipe(sim, capacity=100.0)
        done = pipe.transfer(200.0)
        sim.schedule_callback(1.0, pipe.set_capacity, 50.0)
        sim.run(until=done)
        # 1 s at 100 B/s = 100 B, remaining 100 B at 50 B/s = 2 s.
        assert sim.now == pytest.approx(3.0)

    def test_capacity_fn_depends_on_load(self):
        sim = Simulator()
        # Aggregate halves when more than one flow is active.
        pipe = FluidPipe(sim, capacity=0.0,
                         capacity_fn=lambda n: 100.0 if n <= 1 else 50.0)
        d1 = pipe.transfer(100.0)
        d2 = pipe.transfer(100.0)
        sim.run(until=d1)
        # Two flows: aggregate 50, each 25 B/s -> 4 s for 100 B.
        assert sim.now == pytest.approx(4.0)
        sim.run(until=d2)
        assert sim.now == pytest.approx(4.0)

    def test_bytes_completed_accounting(self):
        sim = Simulator()
        pipe = FluidPipe(sim, capacity=100.0)
        sizes = [10.0, 20.0, 30.0]
        for s in sizes:
            pipe.transfer(s)
        sim.run()
        assert pipe.bytes_completed == pytest.approx(sum(sizes))

    def test_many_flows_conservation(self):
        sim = Simulator()
        pipe = FluidPipe(sim, capacity=123.0)
        total = 0.0
        for i in range(50):
            size = 10.0 + 7.0 * (i % 9)
            total += size
            sim.schedule_callback(0.1 * i, pipe.transfer, size)
        sim.run()
        assert pipe.bytes_completed == pytest.approx(total)
        assert pipe.n_active == 0

    def test_completion_event_value_is_flow(self):
        sim = Simulator()
        pipe = FluidPipe(sim, capacity=10.0)
        done = pipe.transfer(10.0, tag="hello")
        flow = sim.run(until=done)
        assert flow.tag == "hello"
        assert flow.remaining == 0.0
