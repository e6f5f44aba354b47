"""The simulation event loop."""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Dict, Generator, Iterable, List, \
    Optional, Union

from repro.sim.events import NORMAL, URGENT, AllOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.trace import TraceEvent

__all__ = ["Simulator", "EmptySchedule", "SimulationDeadlock"]

#: ``fn`` marker of an observer-only (daemon) timer entry.
_DAEMON = object()


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when no events remain."""


class SimulationDeadlock(RuntimeError):
    """``run(until=event)`` ran dry before the event triggered.

    Subclasses :class:`RuntimeError` for backward compatibility, but
    carries forensics instead of a bare message:

    * ``waiting_for`` — the event that never triggered;
    * ``diagnostics`` — one snapshot dict per registered provider
      (stage runners report pending tasks, free slots, armed timers);
    * ``trace_tail`` — the last traced events, when tracing was enabled.
    """

    def __init__(self, waiting_for: Event,
                 diagnostics: List[Dict[str, Any]],
                 trace_tail: List[TraceEvent]) -> None:
        self.waiting_for = waiting_for
        self.diagnostics = diagnostics
        self.trace_tail = trace_tail
        lines = [f"simulation ran dry before {waiting_for!r} triggered"]
        if diagnostics:
            lines.append("diagnostics:")
            for snap in diagnostics:
                fields = ", ".join(f"{k}={v!r}" for k, v in snap.items())
                lines.append(f"  - {fields}")
        if trace_tail:
            lines.append(f"last {len(trace_tail)} trace events:")
            lines.extend(f"  {ev}" for ev in trace_tail)
        super().__init__("\n".join(lines))


class Simulator:
    """A priority-queue driven discrete-event simulator.

    Time is a float in arbitrary units (this package uses seconds).
    Events scheduled at equal timestamps run in (priority, FIFO) order,
    which makes runs fully deterministic.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._queue: list = []
        self._seq = 0
        self._trace: Optional[deque] = None
        #: Cached ``trace-enabled`` flag: hot loops read this plain
        #: attribute before packing trace arguments, so disabled tracing
        #: costs one attribute load instead of a kwargs dict per call.
        self._tracing = False
        #: Unbounded trace consumers (the telemetry run log); every
        #: :meth:`trace` event is handed to each sink after the ring.
        self._trace_sinks: List[Callable[[TraceEvent], None]] = []
        #: Ring events dropped to make room for newer ones — consumers
        #: of :meth:`trace_events` can tell a complete history from a
        #: truncated one.
        self.trace_evictions = 0
        #: Daemon (observer-only) timer entries currently queued; these
        #: never count as pending simulation work, so a schedule holding
        #: only daemons is "run dry" for deadlock purposes.
        self._daemons = 0
        self._diagnostics: List[Callable[[], Dict[str, Any]]] = []
        #: Events + lightweight timers dispatched by :meth:`step` so far
        #: (the numerator of the benchmark harness's events/sec metric).
        #: Daemon timers are excluded: observation must not inflate the
        #: measured simulation work.
        self.events_dispatched = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- tracing & forensics ----------------------------------------------
    @property
    def trace_enabled(self) -> bool:
        return self._trace is not None

    def enable_trace(self, capacity: int = 512) -> None:
        """Start recording :class:`TraceEvent` records (ring buffer)."""
        self._trace = deque(maxlen=capacity)
        self._tracing = True

    def add_trace_sink(self, sink: Callable[[TraceEvent], None]) -> None:
        """Register an unbounded trace consumer (the telemetry run log).

        Sinks receive every traced event; unlike the ring they never
        drop.  A registered sink enables tracing.
        """
        self._trace_sinks.append(sink)
        self._tracing = True

    def remove_trace_sink(self, sink: Callable[[TraceEvent], None]) -> None:
        """Detach a sink; tracing stays on only if the ring or another
        sink still wants events."""
        try:
            self._trace_sinks.remove(sink)
        except ValueError:
            pass
        self._tracing = bool(self._trace_sinks) or self._trace is not None

    def trace(self, kind: str, **data: Any) -> None:
        """Record one trace event; a no-op unless tracing is enabled."""
        ring = self._trace
        if ring is None and not self._trace_sinks:
            return
        # ``data`` is this call's own kwargs dict: the event adopts it.
        ev = TraceEvent._adopt(self._now, kind, data)
        if ring is not None:
            if ring.maxlen is not None and len(ring) == ring.maxlen:
                self.trace_evictions += 1
            ring.append(ev)
        for sink in self._trace_sinks:
            sink(ev)

    def trace_events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        """Recorded events, optionally filtered by kind."""
        if self._trace is None:
            return []
        return [e for e in self._trace if kind is None or e.kind == kind]

    def add_diagnostic(self, provider: Callable[[], Dict[str, Any]]) -> None:
        """Register a state-snapshot callable for deadlock reports."""
        self._diagnostics.append(provider)

    def remove_diagnostic(self,
                          provider: Callable[[], Dict[str, Any]]) -> None:
        """Deregister a diagnostic provider (no-op if absent).

        Long-lived simulators (the multi-job serving cluster) would
        otherwise accumulate one provider per completed stage forever.
        """
        try:
            self._diagnostics.remove(provider)
        except ValueError:
            pass

    def _deadlock(self, waiting_for: Event) -> SimulationDeadlock:
        snapshots: List[Dict[str, Any]] = []
        for provider in self._diagnostics:
            try:
                snapshots.append(provider())
            except Exception as exc:  # pragma: no cover - defensive
                snapshots.append({"diagnostic_error": repr(exc)})
        tail = list(self._trace)[-20:] if self._trace is not None else []
        return SimulationDeadlock(waiting_for, snapshots, tail)

    # -- event factories --------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        return Timeout(self, delay, value, name)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start ``generator`` as a process from an URGENT entry now."""
        proc = Process(self, generator, name)
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (self._now, URGENT, seq, proc.start, ()))
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def schedule_callback(self, delay: float, fn, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` sim-time units.

        A lightweight alternative to spawning a process for fire-and-forget
        work (timers, rate reallocation, monitoring ticks).  This is the
        single most-scheduled operation in a run — every reallocation,
        CAD tick, and flow completion goes through it — so it pushes a
        bare ``(when, priority, seq, fn, args)`` heap entry instead of
        allocating an :class:`Event` plus a closure per timer.  The
        (time, priority, FIFO) ordering contract is unchanged: one
        sequence number is consumed per call, exactly as the event path
        consumes one per enqueue.
        """
        # One comparison rejects negatives and NaN alike.
        if not delay >= 0:
            raise ValueError(
                f"delay must be a non-negative number, got {delay!r}")
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (self._now + delay, NORMAL, seq, fn, args))

    def schedule_now(self, fn, args: tuple = (),
                     priority: int = NORMAL) -> None:
        """Run ``fn(*args)`` at the current time, in ``priority`` order.

        The entry has the heap key of an event triggered now with that
        priority: an URGENT one dispatches where a process start would,
        a NORMAL one where ``Event.succeed()`` would.  Callback-driven
        code (the shuffle fetch pump, the page-cache read) uses it to
        give each hop the key its dispatch order needs without
        allocating an Event or a Process per hop.
        """
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (self._now, priority, seq, fn, args))

    def complete(self, target: Union[Event, Callable[[], Any]],
                 value: Any = None) -> None:
        """Fire a transfer's completion target.

        ``target`` is an :class:`Event`, which succeeds with ``value``,
        or a callable, which runs as ``target()`` from a NORMAL entry
        pushed now.  Both push one entry with the same key, so a caller
        may pass a callback instead of waiting on an event without
        moving any dispatch (DESIGN.md §8, "Garbage-collector cost").
        """
        if isinstance(target, Event):
            target.succeed(value)
            return
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (self._now, NORMAL, seq, target, ()))

    def schedule_daemon(self, delay: float, fn, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay``, as an *observer-only* timer.

        Daemon timers exist for telemetry probes: they fire on the sim
        clock but are never counted as pending simulation work, so

        * ``run(until=None)`` terminates once only daemons remain (a
          self-rearming probe cannot keep the loop alive);
        * ``run(until=event)`` still raises :class:`SimulationDeadlock`
          when only daemons remain (a probe cannot mask a lost wakeup);
        * :attr:`events_dispatched` is not inflated by observation.

        The contract: a daemon callback must only *read* simulation
        state (and may re-arm itself via :meth:`schedule_daemon`); it
        must never schedule non-daemon work or mutate simulated state.
        ``delay`` must be strictly positive so self-rearming daemons
        always advance the clock.
        """
        if not delay > 0:
            raise ValueError(
                f"daemon delay must be a positive number, got {delay!r}")
        self._seq = seq = self._seq + 1
        self._daemons += 1
        heapq.heappush(self._queue,
                       (self._now + delay, NORMAL, seq, _DAEMON, (fn, args)))

    # -- scheduling --------------------------------------------------------
    # Every heap entry is a 5-tuple ``(when, prio, seq, fn, arg)``:
    #
    # * ``fn is None`` — an event; ``arg`` is the triggered Event;
    # * ``fn is _DAEMON`` — an observer-only timer; ``arg`` is (fn, args);
    # * otherwise — a lightweight timer that runs ``fn(*arg)``.
    #
    # ``seq`` is unique, so heap comparisons never reach the payload and
    # all kinds order by the same (time, priority, FIFO) contract; the
    # loops unpack each entry in one step and branch on ``fn`` identity.
    def _enqueue(self, event: Event, priority: int = NORMAL,
                 delay: float = 0.0) -> None:
        """Queue a triggered event for callback processing."""
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue,
                       (self._now + delay, priority, seq, None, event))

    def peek(self) -> float:
        """Timestamp of the next event, or +inf when the schedule is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled entry (an event or a bare timer)."""
        try:
            when, _prio, _seq, fn, arg = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        if when < self._now:  # pragma: no cover - defensive
            raise RuntimeError("event scheduled in the past")
        self._now = when
        if fn is _DAEMON:
            # Observer-only daemon: dispatched outside the events/sec
            # accounting so telemetry cannot perturb the benchmark.
            self._daemons -= 1
            arg[0](*arg[1])
            return
        self.events_dispatched += 1
        if fn is not None:
            fn(*arg)
            return
        callbacks = arg.callbacks
        arg.callbacks = None
        for cb in callbacks:
            cb(arg)
        # Surface undefused failures: a failed event nobody waited on is a bug.
        if not arg._ok and not arg._defused:
            raise arg._value

    def run(self, until: Optional[Union[float, Event]] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until only observer daemons remain;
        * an :class:`Event` — run until the event is processed and return
          its value (raising its exception if it failed); running dry
          first, daemons aside, raises :class:`SimulationDeadlock`;
        * a float — run every entry due at or before that time, daemons
          included, then set the clock to it.

        The stop rule is fixed before the loop, and one dispatch body —
        :meth:`step`'s, with hoisted locals — serves all three: an
        event's callbacks run in the loop itself, and every state test
        reads an Event slot, not a property.  Dispatch counts accumulate
        in a local and flush to :attr:`events_dispatched` before any
        daemon runs (probes sample it) and on loop exit.
        """
        stop = until if isinstance(until, Event) else None
        # Under None and an Event, daemons alone cannot make progress, so
        # a schedule holding only daemons ends the loop.
        daemons_end = until is None or stop is not None
        horizon = math.inf
        if not daemons_end:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(
                    f"until={horizon} lies in the past (now={self._now})")
        queue = self._queue
        pop = heapq.heappop
        daemon = _DAEMON
        count = 0
        try:
            while queue and queue[0][0] <= horizon:
                # (The daemon count is read first so a daemon-free run
                # skips len().)
                if self._daemons and daemons_end \
                        and len(queue) <= self._daemons:
                    break
                if stop is not None and stop.callbacks is None:
                    break
                self._now, _prio, _seq, fn, arg = pop(queue)
                if fn is None:
                    count += 1
                    callbacks = arg.callbacks
                    arg.callbacks = None
                    for cb in callbacks:
                        cb(arg)
                    if not arg._ok and not arg._defused:
                        raise arg._value
                elif fn is not daemon:
                    count += 1
                    fn(*arg)
                else:
                    self.events_dispatched += count
                    count = 0
                    self._daemons -= 1
                    arg[0](*arg[1])
        finally:
            self.events_dispatched += count
        if stop is not None:
            if stop.callbacks is not None:
                # Run dry (possibly up to armed probes, which cannot
                # make progress happen): a lost wakeup.
                raise self._deadlock(stop)
            if not stop._ok:
                stop._defused = True
                raise stop._value
            return stop._value
        if until is not None:
            self._now = horizon
        return None
