"""The per-run telemetry bundle: registry + run-log events + probe.

One :class:`Telemetry` instance accompanies one simulated run.  The
engine (or a raw-sim bench scenario) calls :meth:`bind` once the
simulator exists; components register instruments against
``telemetry.registry``; ``bind`` installs an unbounded trace sink (the
run log) and starts the gauge probe.  :meth:`finish` closes the probe
with a final sample, pins every gauge to its final reading (so the
registry no longer reaches the engine, cluster and devices), closes the
open decision blocks and detaches the sink.

The sink records the offer loop's repeated decisions once (DESIGN.md
§10).  The scheduler re-states an unchanged gate on every offer pass:
a throttled node is declined again each time anything re-offers, so a
large CAD run traces hundreds of thousands of identical ``throttle``
events.  The sink keeps one open *block* per node, keyed by the
decision's ``(kind, reason)`` (``elastic`` stands in for the reason of a
``mem-decline``).  The first decision of a block is appended as traced;
repeats only count, and for the wait kinds keep their times.  A launch
on the node, a decision with another key, or :meth:`Telemetry.finish`
closes the block: if it repeated, one ``block-end`` record ``{node, of,
reason|elastic, n, last[, times]}`` is appended, so the run log stays in
time order.  Readers (:mod:`repro.obs.spans`, :mod:`repro.obs.audit`,
:func:`traced_count`) expand the count back into the decisions it
stands for.

Everything here is observation: no RNG, no simulated-state mutation,
no non-daemon scheduling — the run's result fingerprint is identical
with or without a bound Telemetry (asserted in
``tests/obs/test_telemetry_invariant.py``).
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.obs.eventlog import EventLog
from repro.obs.probe import Probe
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator
    from repro.sim.trace import TraceEvent

__all__ = ["Telemetry", "BLOCK_END", "BLOCK_KEYS", "traced_count"]

#: Kind of the record that closes a repeated decision block.
BLOCK_END = "block-end"

#: Decision kind -> the payload field that, with the kind, keys a block.
BLOCK_KEYS = {"throttle": "reason", "decline": "reason",
              "mem-decline": "elastic"}

#: Decision kinds whose repeats keep their times: the waits that
#: :mod:`repro.obs.critpath` puts on the critical path.
_TIMED = frozenset({"throttle", "mem-decline"})


def traced_count(events: EventLog) -> int:
    """The number of traced occurrences a run log stands for: each
    record counts one, except a ``block-end``, which counts the ``n - 1``
    repeats it folded."""
    total = len(events)
    for _, _, d in events.select((BLOCK_END,)):
        total += d["n"] - 2
    return total


class Telemetry:
    """Collects one run's metrics, sampled series, and trace events."""

    def __init__(self, probe_period: float = 0.25) -> None:
        self.registry = MetricsRegistry(enabled=True)
        self.probe_period = float(probe_period)
        #: The run log: one ``(t, kind, payload)`` record per trace event
        #: (:attr:`TraceEvent.record`), in emission order, except that a
        #: decision repeating its node's open block is folded into the
        #: block's ``block-end`` record (see the module docstring;
        #: :func:`traced_count` gives the traced total).  The store packs
        #: each payload's numbers into its shape's table and keeps the
        #: dict the tracing call made no longer than the call, so an
        #: event with atomic values adds no object the cyclic collector
        #: tracks (:mod:`repro.obs.eventlog`, DESIGN.md §8).
        self.events = EventLog()
        self.probe: Optional[Probe] = None
        #: Run identity recorded into exporter headers (workload, nodes,
        #: flags) — filled by whoever constructs the run.
        self.meta: Dict[str, Any] = {}
        self._sim: Optional["Simulator"] = None
        events = self.events
        append = events.append
        #: node -> its open decision block: [kind, key, n, last, times]
        #: (``times`` holds the repeats' times, for the wait kinds only).
        blocks: Dict[Any, list] = {}

        def close(node: Any, b: list, t: float) -> None:
            kind, key, n, last, times = b
            if n > 1:
                d = {"node": node, "of": kind, BLOCK_KEYS[kind]: key,
                     "n": n, "last": last}
                if times is not None:
                    d["times"] = times
                append(t, BLOCK_END, d)

        def sink(ev: "TraceEvent") -> None:
            t, kind, d = ev.record
            field = BLOCK_KEYS.get(kind)
            if field is not None:
                node, key = d.get("node"), d.get(field)
                b = blocks.get(node)
                if b is not None:
                    if b[0] == kind and b[1] == key:
                        b[2] += 1
                        b[3] = t
                        if b[4] is not None:
                            b[4].append(t)
                        return
                    close(node, b, t)
                blocks[node] = [kind, key, 1, t,
                                array("d") if kind in _TIMED else None]
            elif kind == "launch":
                b = blocks.pop(d.get("node"), None)
                if b is not None:
                    close(d.get("node"), b, t)
            append(t, kind, d)

        def close_all() -> None:
            if events:
                t = events.times[-1]
                for node, b in blocks.items():
                    close(node, b, t)
            blocks.clear()

        self._sink = sink
        self._close_blocks = close_all

    @property
    def bound(self) -> bool:
        return self._sim is not None

    def bind(self, sim: "Simulator") -> None:
        """Attach to a simulator: install the run-log sink and start the
        gauge probe.  Idempotent per simulator; rebinding to a different
        simulator is an error (one Telemetry = one run)."""
        if self._sim is sim:
            return
        if self._sim is not None:
            raise RuntimeError("Telemetry is already bound to a simulator")
        self._sim = sim
        sim.add_trace_sink(self._sink)
        self.probe = Probe(sim, self.registry, self.probe_period)
        self.probe.start()

    def finish(self, result: Any = None) -> None:
        """Close out the run: final gauge sample, pin the gauges to their
        final readings, close the open decision blocks, detach the sink,
        and record the result's headline numbers into :attr:`meta`."""
        if self.probe is not None:
            self.probe.stop(final=True)
        self.registry.freeze_gauges()
        if self._sim is not None:
            self._sim.remove_trace_sink(self._sink)
            self.meta.setdefault("trace_evictions", self._sim.trace_evictions)
        self._close_blocks()
        if result is not None and hasattr(result, "job_name"):
            self.meta.setdefault("job_name", result.job_name)
            self.meta.setdefault("job_time_s", result.job_time)

    def series(self) -> Dict[str, List[float]]:
        return self.probe.series() if self.probe is not None else {"time": []}
