"""Extra coverage for event machinery corner cases."""

import pytest

from repro.sim import AllOf, Simulator
from repro.sim.events import ConditionValue


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
