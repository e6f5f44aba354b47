"""Waitable events for the simulation kernel.

Events follow SimPy semantics: an event is *triggered* when it has been
given an outcome (value or exception) and enqueued for processing, and
*processed* once the simulator has run its callbacks.  Processes wait on
events by ``yield``-ing them; a failed event raises its exception inside
every waiting process unless the failure was explicitly defused.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.core import Simulator

# Scheduling priorities: urgent events (e.g. process starts, resource
# grants) run before normal events scheduled at the same timestamp.
URGENT = 0
NORMAL = 1

__all__ = ["Event", "Timeout", "AllOf", "URGENT", "NORMAL"]

#: Marker for "no outcome yet" in :attr:`Event._value`.
_PENDING = object()


class Event:
    """A one-shot waitable outcome.

    An event starts un-triggered.  :meth:`succeed` or :meth:`fail` gives it
    an outcome and schedules it; the simulator then runs the registered
    callbacks (in registration order) at the trigger timestamp.

    Kernel code (this module, :mod:`~repro.sim.process`, the
    :class:`~repro.sim.core.Simulator` loop) reads the slots directly:
    ``_value is _PENDING`` for "not triggered", ``callbacks is None`` for
    "processed", ``_ok``/``_value`` for the outcome.  The properties below
    are the same tests behind a call, for callers outside the kernel.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False
        self.name = name

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has an outcome (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._value is _PENDING:
            raise RuntimeError(f"event {self!r} has no outcome yet")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event outcome (value or exception instance)."""
        if self._value is _PENDING:
            raise RuntimeError(f"event {self!r} has no outcome yet")
        return self._value

    def defused(self) -> bool:
        return self._defused

    def defuse(self) -> None:
        """Mark a failure as handled so it does not crash the simulation."""
        self._defused = True

    # -- triggering -----------------------------------------------------
    # Both push their ``(now, priority, seq, None, event)`` heap entry
    # inline: one sequence number per trigger, as Simulator._enqueue.
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Give the event a success outcome and schedule its callbacks."""
        if self._value is not _PENDING:
            raise RuntimeError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now, priority, seq, None, self))
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Give the event a failure outcome and schedule its callbacks."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() requires an exception, got {exc!r}")
        if self._value is not _PENDING:
            raise RuntimeError(f"event {self!r} already triggered")
        self._ok = False
        self._value = exc
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now, priority, seq, None, self))
        return self

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            raise RuntimeError(f"event {self!r} already processed")
        self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that succeeds automatically after ``delay`` sim-time units."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 name: str = "") -> None:
        # One comparison rejects negatives and NaN alike.
        if not delay >= 0:
            raise ValueError(
                f"timeout delay must be a non-negative number, got {delay!r}")
        super().__init__(sim, name)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now + delay, NORMAL, seq, None, self))


class AllOf(Event):
    """Succeeds when every child event has succeeded; fails on first failure."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = events = tuple(events)
        self._count = 0
        for ev in events:
            if ev.sim is not sim:
                raise ValueError("events belong to different simulators")
        # Register after validation so a raise leaves no dangling callbacks.
        # An event counts as complete only once *processed*; a Timeout is
        # "triggered" from birth but its callbacks have not run yet.
        check = self._check
        for ev in events:
            callbacks = ev.callbacks
            if callbacks is None:
                check(ev)
            elif self._value is _PENDING:
                callbacks.append(check)
        if not events:
            self.succeed(ConditionValue({}))

    def _check(self, ev: Event) -> None:
        if self._value is not _PENDING:
            return
        if not ev._ok:
            ev._defused = True
            self.fail(ev._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect())

    def _collect(self) -> "ConditionValue":
        return ConditionValue({e: e._value for e in self.events
                               if e.callbacks is None and e._ok})


class ConditionValue:
    """Mapping of event → value produced by a triggered condition."""

    def __init__(self, todict: dict) -> None:
        self._dict = todict

    def __getitem__(self, key: Event) -> Any:
        return self._dict[key]

    def __contains__(self, key: Event) -> bool:
        return key in self._dict

    def __len__(self) -> int:
        return len(self._dict)

    def __iter__(self):
        return iter(self._dict)

    def values(self):
        return self._dict.values()

    def items(self):
        return self._dict.items()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self._dict == other._dict
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover
        return f"ConditionValue({self._dict!r})"
