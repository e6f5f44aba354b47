"""Tests for Resource."""

import pytest

from repro.sim import Resource, Simulator


class TestResource:
    def test_capacity_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_immediate_grant_under_capacity(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        r1, r2 = res.request(), res.request()
        assert r1.triggered and r2.triggered
        assert res.count == 2

    def test_queueing_and_fifo_grant(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def user(uid, hold):
            with res.request() as req:
                yield req
                order.append(("acq", uid, sim.now))
                yield sim.timeout(hold)
            order.append(("rel", uid, sim.now))

        for uid in range(3):
            sim.process(user(uid, 1.0))
        sim.run()
        acquires = [e for e in order if e[0] == "acq"]
        assert [a[1] for a in acquires] == [0, 1, 2]
        assert [a[2] for a in acquires] == [0.0, 1.0, 2.0]

    def test_release_ungranted_request_cancels(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        held = res.request()
        waiting = res.request()
        assert not waiting.triggered
        res.release(waiting)  # cancel from queue
        res.release(held)
        assert res.count == 0
        assert not waiting.triggered

    def test_context_manager_releases_on_exception(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def bad_user():
            with res.request() as req:
                yield req
                raise RuntimeError("die")

        def next_user(log):
            with res.request() as req:
                yield req
                log.append(sim.now)

        log = []
        p = sim.process(bad_user())
        sim.process(next_user(log))
        with pytest.raises(RuntimeError):
            sim.run()
        sim.run()
        assert log == [0.0]

    def test_no_oversubscription_under_churn(self):
        sim = Simulator()
        res = Resource(sim, capacity=3)
        peak = []

        def user(hold):
            with res.request() as req:
                yield req
                peak.append(res.count)
                yield sim.timeout(hold)

        for i in range(20):
            sim.process(user(0.1 + (i % 5) * 0.05))
        sim.run()
        assert max(peak) <= 3
        assert len(peak) == 20
