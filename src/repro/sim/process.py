"""Generator-based simulation processes."""

from __future__ import annotations

from heapq import heappush
from inspect import getgeneratorstate
from types import GeneratorType
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import _PENDING, URGENT, Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["Process"]

#: The shared, already-ok outcome every process starts from: its first
#: ``_resume`` sends ``None`` into the fresh generator.  Never queued as
#: an event itself, so it is born processed (no callbacks).
START = Event(None, "<start>")  # type: ignore[arg-type]
START.callbacks = None
START._ok = True
START._value = None
_START_ARGS = (START,)


class Process(Event):
    """A process is a generator that yields :class:`Event` s.

    The process resumes when the yielded event is processed, receiving the
    event's value as the result of the ``yield`` expression (or having the
    event's exception thrown into it on failure).  The process object is
    itself an event that triggers with the generator's return value, so
    processes can wait on one another.

    A process starts from one bare ``(now, URGENT, seq, _resume,
    (START,))`` timer entry: the same heap key, and so the same dispatch
    order and count, as an URGENT event, without allocating one.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: str = "") -> None:
        if type(generator) is not GeneratorType and \
                not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim, name or getattr(generator, "__name__", ""))
        self._generator = generator
        # None until the first yield parks the process on an event.
        self._target: Optional[Event] = None
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now, URGENT, seq, self._resume,
                              _START_ARGS))

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already terminated")
        # Throwing into a generator that has not reached its first yield
        # would raise *outside* the body's try/except (the frame has not
        # been entered), crashing the simulation instead of delivering
        # the interrupt.  Leave the start entry in place so the body
        # runs to its first yield first; the interrupt event, enqueued
        # behind it at the same timestamp, then lands inside the body.
        started = getgeneratorstate(self._generator) != "GEN_CREATED"
        if started and self._target is not None:
            self._target.remove_callback(self._resume)
        fail = Event(self.sim, name="<interrupt>")
        fail._ok = False
        fail._value = Interrupt(cause)
        fail._defused = True
        fail.add_callback(self._resume)
        self.sim._enqueue(fail, URGENT)
        if started:
            self._target = fail

    # -- stepping ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._value is not _PENDING:
            # A deferred interrupt raced with normal completion (the body
            # finished on its very first advance); nothing to deliver.
            event._defused = True
            return
        target = self._target
        if target is not None and target is not event:
            # Resumed by a deferred interrupt while parked on a real
            # event: deregister from it, or its later processing would
            # resume a finished generator.
            target.remove_callback(self._resume)
        self._target = None
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                exc = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}")
                try:
                    generator.throw(exc)
                except StopIteration as stop:
                    self.succeed(stop.value)
                except BaseException as err:
                    self.fail(err)
                return

            callbacks = next_event.callbacks
            if callbacks is not None:
                # Event still pending: park until it is processed.
                callbacks.append(self._resume)
                self._target = next_event
                return
            # Event already processed: loop and feed its outcome immediately.
            event = next_event
