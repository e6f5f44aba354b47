"""Generator-based simulation processes."""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Generator

from repro.sim.events import _PENDING, Event

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


class Process(Event):
    """A process is a generator that yields :class:`Event` s.

    The process resumes when the yielded event is processed, receiving the
    event's value as the result of the ``yield`` expression (or having the
    event's exception thrown into it on failure).  The process object is
    itself an event that triggers with the generator's return value, so
    processes can wait on one another.

    A new process is idle: :meth:`start` runs it to its first yield.
    :meth:`Simulator.process <repro.sim.core.Simulator.process>` starts
    it from one bare ``(now, URGENT, seq, start, ())`` timer entry: the
    same heap key, and so the same dispatch order and count, as an
    URGENT event, without allocating one.  A process resumes only from
    the events it yields, and ends only when its generator returns or
    raises.
    """

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: str = "") -> None:
        if type(generator) is not GeneratorType and \
                not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim, name or getattr(generator, "__name__", ""))
        self._generator = generator

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def start(self) -> None:
        """Run the generator to its first yield, inline, at the current
        time."""
        self._resume(START)

    # -- stepping ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
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
                return
            # Event already processed: loop and feed its outcome immediately.
            event = next_event
