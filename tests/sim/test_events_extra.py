"""Extra coverage for event machinery corner cases."""

import pytest

from repro.sim import AllOf, Simulator
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


class TestNestedConditions:
    def test_allof_of_allofs(self):
        sim = Simulator()
        fast1 = sim.timeout(1.0, value="a")
        slow1 = sim.timeout(9.0, value="b")
        fast2 = sim.timeout(2.0, value="c")
        slow2 = sim.timeout(4.0, value="d")
        fast = AllOf(sim, [fast1, fast2])
        slow = AllOf(sim, [slow1, slow2])
        combo = AllOf(sim, [fast, slow])
        sim.run(until=fast)
        assert sim.now == pytest.approx(2.0) and not combo.triggered
        sim.run(until=combo)
        assert sim.now == pytest.approx(9.0)
        assert dict(combo.value[fast].items()) == {fast1: "a", fast2: "c"}
        assert dict(combo.value[slow].items()) == {slow1: "b", slow2: "d"}

    def test_schedule_callback_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_callback(-1.0, lambda: None)

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        sim.timeout(3.0)
        assert sim.peek() == pytest.approx(3.0)
