"""``Simulator.run``'s stop rules and its dispatch accounting.

``run`` decides how it stops from ``until``, then dispatches every
entry the same way:

* ``None`` stops once only daemons remain;
* an :class:`Event` stops once the event is processed (and raises
  :class:`SimulationDeadlock` when only daemons remain);
* a float runs every entry due at or before the horizon, daemons
  included, then sets ``now`` to the horizon.

``tests/obs/test_probe.py`` covers the ``None`` exit with an armed
daemon and the daemon-masked deadlock; this module covers the rest.
"""

import pytest

from repro.sim import Simulator


class TestFloatHorizon:
    def test_due_daemons_run_and_a_later_one_stays_armed(self):
        sim = Simulator()
        seen = []
        sim.schedule_callback(0.5, lambda: seen.append(("work", sim.now)))
        for delay in (1.0, 2.0, 5.0):
            sim.schedule_daemon(
                delay, lambda d=delay: seen.append(("daemon", sim.now)))
        assert sim.run(until=2.0) is None
        # The daemon due exactly at the horizon runs; the 5.0 one waits.
        assert seen == [("work", 0.5), ("daemon", 1.0), ("daemon", 2.0)]
        assert sim.now == 2.0
        assert sim._daemons == 1 and sim.peek() == 5.0

    def test_now_is_the_horizon_when_the_queue_empties_first(self):
        sim = Simulator()
        sim.schedule_callback(1.0, lambda: None)
        sim.run(until=3.0)
        assert sim._queue == []
        assert sim.now == 3.0

    def test_daemon_only_schedule_runs_to_the_horizon(self):
        sim = Simulator()
        ticks = []

        def probe():
            ticks.append(sim.now)
            sim.schedule_daemon(0.25, probe)

        sim.schedule_daemon(0.25, probe)
        sim.run(until=1.0)
        assert ticks == [0.25, 0.5, 0.75, 1.0]
        assert sim.now == 1.0
        assert sim._daemons == 1  # re-armed past the horizon
        assert sim.events_dispatched == 0

    def test_horizon_in_the_past_is_rejected(self):
        sim = Simulator()
        sim.schedule_callback(2.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="in the past"):
            sim.run(until=1.0)


@pytest.mark.parametrize("mode", ["none", "event", "float"])
def test_events_dispatched_excludes_daemons_and_is_flushed_for_them(mode):
    """A daemon reads the count of every non-daemon entry before it,
    in every stop mode, and never counts itself."""
    sim = Simulator()
    reads = []
    for t in (0.1, 0.2, 0.3):
        sim.schedule_callback(t, lambda: None)
    last = sim.timeout(0.5, value="last")
    for t in (0.25, 0.35):
        sim.schedule_daemon(t, lambda: reads.append(sim.events_dispatched))
    until = {"none": None, "event": last, "float": 1.0}[mode]
    sim.run(until=until)
    assert reads == [2, 3]
    assert sim.events_dispatched == 4


def test_event_stop_returns_its_value_with_daemons_armed():
    sim = Simulator()
    ticks = []

    def probe():
        ticks.append(sim.now)
        sim.schedule_daemon(0.3, probe)

    sim.schedule_daemon(0.3, probe)
    stop = sim.timeout(1.0, value="done")
    sim.schedule_callback(2.0, lambda: None)  # work past the stop event
    assert sim.run(until=stop) == "done"
    assert sim.now == 1.0
    assert len(ticks) == 3
    assert sim._daemons == 1
    assert sim.peek() == pytest.approx(1.2)  # the re-armed probe
    assert sim.events_dispatched == 1
