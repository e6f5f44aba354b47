"""Structured scheduler/simulator tracing.

An opt-in ring buffer of :class:`TraceEvent` records kept by the
:class:`~repro.sim.core.Simulator`.  Instrumented components (the stage
runner, policies via the runner, CAD) call ``sim.trace(kind, **data)``;
when tracing is disabled the call is a cheap no-op, when enabled the
event lands in a bounded deque that tests can query and that the
deadlock forensics report (:class:`~repro.sim.core.SimulationDeadlock`)
dumps as its "last N events" tail.  The telemetry layer
(:mod:`repro.obs`) additionally registers *sinks* that receive every
event unbounded — the structured run log reads each event's
:attr:`TraceEvent.record` tuple into its columnar store
(:mod:`repro.obs.eventlog`).

Event kinds emitted by the stage runner (``throttle`` and
``mem-decline`` are an admission gate's decline, traced by the runner
with the gate's own ``why`` payload after ``node``) and by CAD
(``cad-step``, from its exit hook):

=================  ==========================================================
kind               meaning / payload
=================  ==========================================================
``offer``          an offer sweep started (``free_slots``, ``pending``)
``decline``        a policy returned no task for a free slot (``node``,
                   plus the policy's justifying state from
                   ``decline_info``: ``reason``, and e.g. ELB's
                   ``node_bytes``/``cluster_avg``/``threshold`` or delay
                   scheduling's ``wait``/``reference``/``deadline``)
``launch``         a task attempt started (``task``, ``node``,
                   ``speculative``, ``phase``, ``queued``)
``throttle``       CAD blocked a node (``node``, ``reason``, for pacing
                   ``retry_at``, plus the gate state: ``delay``,
                   ``in_flight``, ``target``, ``window_avg``,
                   ``baseline``)
``cad-step``       CAD moved its dispatch delay (``node``, ``step``,
                   ``prev``, ``delay``, ``window_avg``, ``baseline``,
                   ``trigger_ratio``)
``mem-decline``    the memory gate refused a launch (``node``, ``free``,
                   ``demand``, ``elastic``, ``floor``)
``retry-armed``    a wakeup timer was armed (``at``, ``token``)
``retry-fired``    a wakeup timer fired (``token``, ``stale``)
``spec-armed``     the speculation-horizon timer was armed (``at``, ``token``)
``complete``       an attempt finished and won (``task``, ``node``)
``interrupt``      an attempt was abandoned (``task``, ``node``, ``cause``)
``failure``        an attempt failed (``task``, ``node``, ``count``)
=================  ==========================================================

The engine adds ``phase-start``/``phase-end`` (``phase``, optional
``round`` and ``job``) and ``spill-done`` (``task``, ``node``,
``elapsed``), the fault injector ``fault-*``, and the fabric
``flow-start``/``flow-end`` (see DESIGN.md §10 for the full naming
scheme; the span/audit consumers are DESIGN.md §15).

``decline``, ``throttle`` and ``mem-decline`` are traced once per offer
pass that reaches the node, so an unchanged gate repeats on every pass.
The ring and every sink receive each of them; it is the telemetry run
log (:mod:`repro.obs.telemetry`) that records a node's repeated
decision once and closes it with a ``block-end`` record.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = ["TraceEvent"]

_new = object.__new__
_set = object.__setattr__


class TraceEvent:
    """One traced occurrence: a timestamp, a kind tag, and a payload.

    A ``__slots__`` record over one exact ``(time, kind, payload)``
    tuple, :attr:`record` — the form the telemetry run log reads.  It
    is read-only: attributes cannot be assigned, and :attr:`data` is a
    read-only view of the payload made when read.  The public
    constructor copies the payload, so a caller reusing the dict it
    passed in cannot rewrite history; :meth:`Simulator.trace
    <repro.sim.core.Simulator.trace>` instead hands over the fresh
    kwargs dict of its own call, which nothing else holds.
    """

    __slots__ = ("record",)

    #: The ``(time, kind, payload)`` tuple itself, read as a plain slot
    #: (the run log's sink unpacks it once per event into its store and
    #: keeps neither the tuple nor the dict).  Its payload dict is
    #: shared with this event: holders must only read it.
    record: Tuple[float, str, Dict[str, Any]]

    def __init__(self, time: float, kind: str,
                 data: Optional[Mapping[str, Any]] = None) -> None:
        _set(self, "record", (time, kind, dict(data or {})))

    @classmethod
    def _adopt(cls, time: float, kind: str,
               data: Dict[str, Any]) -> "TraceEvent":
        """An event owning ``data`` (no copy): for a caller that made
        the dict for this event and keeps no reference to it."""
        ev = _new(cls)
        _set(ev, "record", (time, kind, data))
        return ev

    @property
    def time(self) -> float:
        return self.record[0]

    @property
    def kind(self) -> str:
        return self.record[1]

    @property
    def data(self) -> Mapping[str, Any]:
        return MappingProxyType(self.record[2])

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"TraceEvent is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"TraceEvent is immutable; cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.record == other.record

    __hash__ = None  # type: ignore[assignment]  # the payload is a dict

    def __reduce__(self):
        return (TraceEvent, self.record)

    def __repr__(self) -> str:
        time, kind, data = self.record
        return f"TraceEvent(time={time!r}, kind={kind!r}, data={data!r})"

    def __str__(self) -> str:
        time, kind, data = self.record
        fields = " ".join(f"{k}={v!r}" for k, v in data.items())
        return f"[t={time:.6f}] {kind}" + (f" {fields}" if fields else "")
