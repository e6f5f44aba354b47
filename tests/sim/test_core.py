"""Tests for the simulation event loop and event primitives."""

import pytest

from repro.sim import AllOf, Event, Simulator, Timeout
from repro.sim.core import EmptySchedule


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start=5.0)
    assert sim.now == 5.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(3.5)
    sim.run()
    assert sim.now == 3.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_run_until_past_raises():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_step_empty_schedule_raises():
    sim = Simulator()
    with pytest.raises(EmptySchedule):
        sim.step()


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.schedule_callback(delay, order.append, delay)
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_equal_time_events_fire_fifo():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.schedule_callback(1.0, order.append, i)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_value():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("payload")
    sim.run()
    assert ev.processed and ev.ok and ev.value == "payload"


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError("x"))


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_undefused_failure_crashes_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_defused_failure_is_silent():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("boom"))
    ev.defuse()
    sim.run()
    assert not ev.ok


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.0)
        return 42

    p = sim.process(proc())
    assert sim.run(until=p) == 42
    assert sim.now == 2.0


def test_run_until_event_that_never_fires():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(RuntimeError, match="ran dry"):
        sim.run(until=ev)


def test_run_until_failed_event_raises():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise RuntimeError("inner")

    p = sim.process(proc())
    with pytest.raises(RuntimeError, match="inner"):
        sim.run(until=p)


def test_callback_order_preserved_on_event():
    sim = Simulator()
    ev = sim.event()
    seen = []
    ev.add_callback(lambda e: seen.append("a"))
    ev.add_callback(lambda e: seen.append("b"))
    ev.succeed()
    sim.run()
    assert seen == ["a", "b"]


def test_add_callback_after_processed_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    sim.run()
    with pytest.raises(RuntimeError):
        ev.add_callback(lambda e: None)


class TestConditions:
    def test_allof_collects_values(self):
        sim = Simulator()
        t1 = sim.timeout(1.0, value="one")
        t2 = sim.timeout(2.0, value="two")
        cond = AllOf(sim, [t1, t2])
        sim.run(until=cond)
        assert cond.value[t1] == "one"
        assert cond.value[t2] == "two"
        assert sim.now == 2.0

    def test_allof_empty_succeeds_immediately(self):
        sim = Simulator()
        cond = AllOf(sim, [])
        sim.run(until=cond)
        assert len(cond.value) == 0

    def test_allof_propagates_failure(self):
        sim = Simulator()
        ok = sim.timeout(1.0)
        bad = sim.event()
        sim.schedule_callback(0.5, bad.fail, ValueError("dead"))
        cond = AllOf(sim, [ok, bad])
        with pytest.raises(ValueError, match="dead"):
            sim.run(until=cond)

    def test_allof_with_already_triggered_events(self):
        sim = Simulator()
        done = sim.event()
        done.succeed("x")
        sim.run()  # process it
        t = sim.timeout(1.0, value="y")
        cond = AllOf(sim, [done, t])
        sim.run(until=cond)
        assert cond.value[done] == "x"
        assert cond.value[t] == "y"

    def test_condition_rejects_foreign_events(self):
        sim1, sim2 = Simulator(), Simulator()
        with pytest.raises(ValueError):
            AllOf(sim1, [sim1.event(), sim2.event()])


class TestProcesses:
    def test_process_waits_on_timeouts(self):
        sim = Simulator()
        trace = []

        def proc():
            trace.append(sim.now)
            yield sim.timeout(1.0)
            trace.append(sim.now)
            yield sim.timeout(2.0)
            trace.append(sim.now)

        sim.process(proc())
        sim.run()
        assert trace == [0.0, 1.0, 3.0]

    def test_process_receives_event_value(self):
        sim = Simulator()
        got = []

        def proc():
            v = yield sim.timeout(1.0, value="hello")
            got.append(v)

        sim.process(proc())
        sim.run()
        assert got == ["hello"]

    def test_process_is_event_waitable_by_other_process(self):
        sim = Simulator()
        result = []

        def worker():
            yield sim.timeout(2.0)
            return "done"

        def boss():
            w = sim.process(worker())
            v = yield w
            result.append((sim.now, v))

        sim.process(boss())
        sim.run()
        assert result == [(2.0, "done")]

    def test_process_exception_propagates_to_waiter(self):
        sim = Simulator()
        caught = []

        def bad():
            yield sim.timeout(1.0)
            raise KeyError("oops")

        def waiter():
            try:
                yield sim.process(bad())
            except KeyError as e:
                caught.append(e)

        sim.process(waiter())
        sim.run()
        assert len(caught) == 1

    def test_unwaited_process_failure_crashes(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise KeyError("nobody caught me")

        sim.process(bad())
        with pytest.raises(KeyError):
            sim.run()

    def test_yield_non_event_raises_inside_process(self):
        sim = Simulator()
        caught = []

        def proc():
            try:
                yield 42
            except RuntimeError as e:
                caught.append(e)

        sim.process(proc())
        sim.run()
        assert "non-event" in str(caught[0])

    def test_process_yields_already_processed_event(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("early")
        sim.run()
        got = []

        def proc():
            v = yield ev
            got.append((sim.now, v))

        sim.process(proc())
        sim.run()
        assert got == [(0.0, "early")]

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_many_interleaved_processes_deterministic(self):
        def run_once():
            sim = Simulator()
            log = []

            def proc(pid, period):
                for _ in range(5):
                    yield sim.timeout(period)
                    log.append((sim.now, pid))

            for pid, period in enumerate([1.0, 1.5, 0.7]):
                sim.process(proc(pid, period))
            sim.run()
            return log

        assert run_once() == run_once()
