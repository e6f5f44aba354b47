"""The event-kernel dispatch protocol.

The kernel reads Event slots directly, pushes heap entries inline, and
starts a process from a bare timer entry instead of an ``<init>`` event.
These tests pin the contract those shortcuts must keep: every heap
entry's ``(when, priority, seq)`` key, the dispatch count, one-shot
triggering, condition values, and failure surfacing from every run mode.
"""

import math

import pytest

from repro.cluster import Cluster
from repro.cluster.spec import hyperion
from repro.core.engine import run_job
from repro.net import fastalloc
from repro.net.fabric import Fabric
from repro.sim import AllOf, Process, Simulator, fastdrain
from repro.sim.events import URGENT
from repro.sim.fluid import FluidPipe
from repro.storage.device import BlockDevice
from repro.storage.pagecache import PageCache
from tests.core.test_mechanism_identity import _capture_module

NAN = float("nan")


def _recorder(order, label):
    return lambda _ev: order.append(label)


class TestProcessStart:
    def _setup(self):
        """At t=2: a NORMAL event, an earlier URGENT event, a process,
        then a later URGENT event, all triggered at the same instant."""
        sim = Simulator()
        sim.run(until=2.0)
        order = []
        normal = sim.event()
        normal.add_callback(_recorder(order, "normal"))
        normal.succeed()
        early = sim.event()
        early.add_callback(_recorder(order, "urgent-early"))
        early.succeed(priority=URGENT)

        def body():
            order.append(("proc", sim.now))
            return "done"
            yield  # pragma: no cover - makes this a generator

        seq = sim._seq
        proc = sim.process(body())
        assert sim._seq == seq + 1  # one heap entry, one sequence number
        late = sim.event()
        late.add_callback(_recorder(order, "urgent-late"))
        late.succeed(priority=URGENT)
        return sim, proc, order

    def test_urgent_slot_between_earlier_urgent_and_normal(self):
        sim, proc, order = self._setup()
        sim.run()
        assert order == ["urgent-early", ("proc", 2.0), "urgent-late",
                         "normal"]
        assert proc.value == "done"
        # early, start, late, normal, and the process's own completion.
        assert sim.events_dispatched == 5

    def test_start_is_one_dispatch(self):
        sim, proc, order = self._setup()
        sim.step()
        assert order == ["urgent-early"]
        assert sim.events_dispatched == 1
        sim.step()
        assert order == ["urgent-early", ("proc", 2.0)]
        assert sim.events_dispatched == 2
        assert proc.triggered and not proc.processed

    def test_starts_at_creation_timestamp(self):
        sim = Simulator()
        seen = []

        def body():
            seen.append(sim.now)
            yield sim.timeout(1.0)
            seen.append(sim.now)

        sim.schedule_callback(3.5, lambda: sim.process(body()))
        sim.run()
        assert seen == [3.5, 4.5]

    def test_start_runs_inline_from_the_callers_dispatch(self):
        """``Process.start`` runs the body to its first yield at once,
        with no heap entry and no dispatch of its own."""
        sim = Simulator()
        sim.run(until=1.0)
        seen = []

        def body():
            seen.append(sim.now)
            yield sim.timeout(1.0)
            return "done"

        proc = Process(sim, body())
        seq = sim._seq
        proc.start()
        assert seen == [1.0]
        assert sim._seq == seq + 1  # the timeout's entry, nothing else
        sim.run()
        assert proc.value == "done"
        # The timeout and the process's own completion.
        assert sim.events_dispatched == 2


class TestScheduleNow:
    def test_takes_the_slot_of_an_event_triggered_now(self):
        """An URGENT entry runs where a process start would, a NORMAL
        one where ``succeed()`` would: each in its push order among
        events of its priority."""
        sim = Simulator()
        sim.run(until=1.0)
        order = []
        normal = sim.event()
        normal.add_callback(_recorder(order, "normal"))
        normal.succeed()
        seq = sim._seq
        sim.schedule_now(order.append, ("now-normal",))
        sim.schedule_now(order.append, ("now-urgent",), URGENT)
        assert sim._seq == seq + 2  # one sequence number per entry
        urgent = sim.event()
        urgent.add_callback(_recorder(order, "urgent"))
        urgent.succeed(priority=URGENT)
        sim.run()
        assert order == ["now-urgent", "urgent", "normal", "now-normal"]
        assert sim.events_dispatched == 4 and sim.now == 1.0


class _KeyedSim(Simulator):
    """Steps one entry at a time, keeping the key of the one running."""

    key = None

    def step(self):
        self.key = self._queue[0][:3]
        super().step()


def _completion_keys(form):
    """Every completion of the three transfer calls (and the device
    reads and writes below them), in dispatch order with the heap key
    of the entry that ran it, when each call waits on its event
    (``form="event"``) or passes ``then``."""
    sim = _KeyedSim()
    pipe = FluidPipe(sim, 100.0, name="pipe")
    fab = Fabric(sim, 4, nic_bw=1e3, small_flow_bytes=10.0)
    dev = BlockDevice(sim, read_bw=100.0, write_bw=50.0, chunk_bytes=50.0)
    cache = PageCache(sim, dev, memory_bw=400.0, cache_bytes=1e4,
                      dirty_limit_bytes=100.0, writeback_chunk=40.0)
    cache.write(150.0, "warm")  # a dirty file, half throttled
    log = []

    def call(label, fn, *args, **kwargs):
        def seen(*_):
            log.append((label, sim.key))

        if form == "event":
            fn(*args, **kwargs).callbacks.append(seen)
        else:
            assert fn(*args, then=seen, **kwargs) is None

    def issue():
        call("pipe-empty", pipe.transfer, 0.0)
        call("pipe", pipe.transfer, 120.0)
        call("pipe-capped", pipe.transfer, 30.0, cap=10.0)
        call("fabric", fab.transfer, 0, 1, 5e3)
        call("fabric-small", fab.transfer, 1, 2, 5.0)
        call("fabric-loopback", fab.transfer, 3, 3, 5e3)
        call("fabric-shared", fab.transfer, 2, 1, 2e3)
        call("read-miss", cache.read, 40.0, "cold")
        call("read-chunked", cache.read, 160.0, "cold")
        call("read-hit", cache.read, 60.0, "warm", of_total=150.0)
        call("device-read", dev.read, 40.0)
        call("device-read-chunked", dev.read, 130.0)
        call("device-write", dev.write, 70.0)

    issue()
    sim.schedule_callback(1.5, issue)  # a second wave over busy pipes
    while sim._queue:
        sim.step()
    return log, sim.events_dispatched, sim._seq


@pytest.mark.parametrize("kernels", ["c", "numpy"])
def test_callback_completions_take_the_event_entries(kernels, monkeypatch):
    """``then=`` fires from an entry with the key the event's
    ``succeed`` would have pushed: same time, priority and ``seq``,
    on every completion path (fluid drain, zero-byte, fabric drain,
    small and loopback flows, page-cache hit and miss, chunked device
    I/O), and no entry is added or lost."""
    if kernels == "numpy":
        monkeypatch.setattr(fastalloc, "AVAILABLE", False)
        monkeypatch.setattr(fastdrain, "RAW_DRAIN", None)
    events = _completion_keys("event")
    callbacks = _completion_keys("then")
    assert callbacks == events
    log = events[0]
    assert len(log) == 26 and len({label for label, _ in log}) == 13


class TestOneShot:
    @pytest.mark.parametrize("first,second", [
        ("succeed", "succeed"), ("succeed", "fail"),
        ("fail", "succeed"), ("fail", "fail")])
    def test_second_trigger_raises(self, first, second):
        sim = Simulator()
        ev = sim.event()
        trigger = {"succeed": lambda: ev.succeed(1),
                   "fail": lambda: ev.fail(ValueError("x"))}
        trigger[first]()
        queued = len(sim._queue)
        with pytest.raises(RuntimeError, match="already triggered"):
            trigger[second]()
        assert len(sim._queue) == queued  # the rejected call queued nothing
        ev.defuse()
        sim.run()

    def test_timeout_is_triggered_from_birth(self):
        sim = Simulator()
        t = sim.timeout(1.0)
        with pytest.raises(RuntimeError, match="already triggered"):
            t.succeed()


class TestConditionValues:
    def test_all_of_over_processed_and_pending(self):
        sim = Simulator()
        done = sim.event()
        done.succeed("a")
        sim.run()
        pending = sim.timeout(2.0, value="b")
        cond = AllOf(sim, [done, pending])
        sim.run(until=cond)
        assert dict(cond.value.items()) == {done: "a", pending: "b"}
        assert sim.now == 2.0

    def test_all_of_fails_on_processed_failure(self):
        sim = Simulator()
        bad = sim.event()
        bad.fail(ValueError("boom"))
        bad.defuse()
        sim.run()
        cond = AllOf(sim, [sim.event(), bad])
        with pytest.raises(ValueError, match="boom"):
            sim.run(until=cond)

    def test_all_of_takes_over_pending_failure(self):
        sim = Simulator()
        bad = sim.event()
        cond = AllOf(sim, [sim.timeout(1.0), bad])
        sim.schedule_callback(2.0, bad.fail, ValueError("late"))
        with pytest.raises(ValueError, match="late"):
            sim.run(until=cond)
        assert bad.defused()
        sim.run()  # the defused child no longer crashes the loop


class TestUndefusedFailures:
    def _failing(self):
        sim = Simulator()
        sim.event().fail(ValueError("lost"))
        return sim

    def test_step_raises(self):
        with pytest.raises(ValueError, match="lost"):
            self._failing().step()

    def test_run_to_empty_raises(self):
        with pytest.raises(ValueError, match="lost"):
            self._failing().run()

    def test_run_until_time_raises(self):
        with pytest.raises(ValueError, match="lost"):
            self._failing().run(until=5.0)

    def test_run_until_event_raises(self):
        sim = self._failing()
        stop = sim.timeout(1.0)
        with pytest.raises(ValueError, match="lost"):
            sim.run(until=stop)

    def test_failed_process_raises_from_every_mode(self):
        def body(sim):
            yield sim.timeout(0.5)
            raise KeyError("proc")

        for until in (None, 2.0, "event"):
            sim = Simulator()
            sim.process(body(sim))
            arg = sim.timeout(1.0) if until == "event" else until
            with pytest.raises(KeyError):
                sim.run(until=arg)


class TestNanDelays:
    def test_timeout(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="nan"):
            sim.timeout(NAN)
        assert sim._queue == []

    def test_schedule_callback(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="nan"):
            sim.schedule_callback(NAN, lambda: None)
        assert sim._queue == []

    def test_schedule_daemon(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="nan"):
            sim.schedule_daemon(NAN, lambda: None)
        assert sim._queue == [] and sim._daemons == 0

    def test_clock_stays_finite(self):
        sim = Simulator()
        sim.schedule_callback(1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_callback(NAN, lambda: None)
        sim.run()
        assert math.isfinite(sim.now) and sim.now == 1.0


#: ``(events_dispatched, final _seq)`` per capture_fingerprints case.
#: The pins track how many heap entries the kernel queues and
#: dispatches, so a change that adds or removes entries on purpose
#: re-pins them (DESIGN.md §8 lists the shuffle fetch pump's).  Which
#: outcomes a run produces is pinned by the fingerprints in
#: ``tests/data``, the behaviour oracle; these counts only catch an
#: unintended change in the entry count.  A task attempt costs two
#: entries fewer since its body became its only process (DESIGN.md §8,
#: "Attempt lifecycle").
PINNED_COUNTS = {
    "groupby-ssd-stock": (2112, 2116),
    "groupby-lustre-shared": (4045, 4046),
    "grep-hdfs": (3025, 3106),
}


@pytest.mark.parametrize("label", sorted(PINNED_COUNTS))
def test_dispatch_counts_match_pinned(label):
    cap = _capture_module()
    spec_fn, opt_fn = next((s, o) for name, s, o in cap.CASES
                           if name == label)
    options = opt_fn()
    cluster = Cluster(hyperion(cap.N_NODES), seed=options.seed)
    run_job(spec_fn(), cluster=cluster, options=options)
    sim = cluster.sim
    assert (sim.events_dispatched, sim._seq) == PINNED_COUNTS[label]
