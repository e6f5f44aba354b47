"""Extra coverage for event machinery corner cases."""

import pytest

from repro.sim import AllOf, AnyOf, Event, Simulator
from repro.sim.events import ConditionValue


class TestTriggerFrom:
    def test_copies_success(self):
        sim = Simulator()
        src, dst = sim.event(), sim.event()
        src.succeed("v")
        dst.trigger_from(src)
        sim.run()
        assert dst.ok and dst.value == "v"

    def test_copies_failure_and_defuses_source(self):
        sim = Simulator()
        src, dst = sim.event(), sim.event()
        src.fail(ValueError("x"))
        dst.trigger_from(src)
        dst.defuse()
        sim.run()
        assert not dst.ok
        assert src.defused()

    def test_pending_source_rejected_without_defusing_it(self):
        sim = Simulator()
        src, dst = sim.event("src"), sim.event("dst")
        with pytest.raises(RuntimeError,
                           match="'src'.*the source has no outcome yet"):
            dst.trigger_from(src)
        assert not src.defused()
        assert not dst.triggered
        # The source's later failure still surfaces from run().
        src.fail(ValueError("late"))
        with pytest.raises(ValueError, match="late"):
            sim.run()

    def test_triggered_target_leaves_failed_source_armed(self):
        sim = Simulator()
        src, dst = sim.event(), sim.event()
        dst.succeed()
        src.fail(ValueError("x"))
        with pytest.raises(RuntimeError, match="already triggered"):
            dst.trigger_from(src)
        assert not src.defused()
        src.defuse()
        sim.run()


class TestConditionValue:
    def test_mapping_protocol(self):
        sim = Simulator()
        e1 = sim.event()
        cv = ConditionValue({e1: 42})
        assert cv[e1] == 42
        assert e1 in cv
        assert len(cv) == 1
        assert list(cv) == [e1]
        assert list(cv.values()) == [42]
        assert dict(cv.items()) == {e1: 42}

    def test_equality(self):
        sim = Simulator()
        e1 = sim.event()
        assert ConditionValue({e1: 1}) == ConditionValue({e1: 1})
        assert ConditionValue({e1: 1}) != ConditionValue({e1: 2})


class TestCallbackRemoval:
    def test_remove_before_processing(self):
        sim = Simulator()
        ev = sim.event()
        seen = []

        def cb(e):
            seen.append(1)

        ev.add_callback(cb)
        ev.remove_callback(cb)
        ev.succeed()
        sim.run()
        assert seen == []

    def test_remove_missing_callback_is_noop(self):
        sim = Simulator()
        ev = sim.event()
        ev.remove_callback(lambda e: None)  # no raise


class TestNestedConditions:
    def test_allof_of_anyofs(self):
        sim = Simulator()
        fast1 = sim.timeout(1.0, value="a")
        slow1 = sim.timeout(9.0, value="b")
        fast2 = sim.timeout(2.0, value="c")
        slow2 = sim.timeout(9.0, value="d")
        combo = AllOf(sim, [AnyOf(sim, [fast1, slow1]),
                            AnyOf(sim, [fast2, slow2])])
        sim.run(until=combo)
        assert sim.now == pytest.approx(2.0)

    def test_schedule_callback_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_callback(-1.0, lambda: None)

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        sim.timeout(3.0)
        assert sim.peek() == pytest.approx(3.0)
