"""The per-run telemetry bundle: registry + run-log events + probe.

One :class:`Telemetry` instance accompanies one simulated run.  The
engine (or a raw-sim bench scenario) calls :meth:`bind` once the
simulator exists; components register instruments against
``telemetry.registry``; ``bind`` installs an unbounded trace sink (the
run log) and starts the gauge probe.  :meth:`finish` closes the probe
with a final sample and detaches the sink.

Everything here is observation: no RNG, no simulated-state mutation,
no non-daemon scheduling — the run's result fingerprint is identical
with or without a bound Telemetry (asserted in
``tests/obs/test_telemetry_invariant.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.probe import Probe
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator
    from repro.sim.trace import TraceEvent

__all__ = ["Telemetry"]


class Telemetry:
    """Collects one run's metrics, sampled series, and trace events."""

    def __init__(self, probe_period: float = 0.25) -> None:
        self.registry = MetricsRegistry(enabled=True)
        self.probe_period = float(probe_period)
        #: The run log: one exact ``(t, kind, payload)`` tuple per trace
        #: event (:attr:`TraceEvent.record`), in emission order.  The
        #: payload is the dict the tracing call made, shared, so readers
        #: must not mutate it.  The cyclic collector never tracks a dict
        #: of atomic values, so each event adds one tracked object, the
        #: tuple, to what a full collection scans (DESIGN.md §8).
        self.events: List[Tuple[float, str, Dict[str, Any]]] = []
        self.probe: Optional[Probe] = None
        #: Run identity recorded into exporter headers (workload, nodes,
        #: flags) — filled by whoever constructs the run.
        self.meta: Dict[str, Any] = {}
        self._sim: Optional["Simulator"] = None
        append = self.events.append

        def sink(ev: "TraceEvent") -> None:
            append(ev.record)

        self._sink = sink

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
        """Close out the run: final gauge sample, detach the sink, and
        record the result's headline numbers into :attr:`meta`."""
        if self.probe is not None:
            self.probe.stop(final=True)
        if self._sim is not None:
            self._sim.remove_trace_sink(self._sink)
            self.meta.setdefault("trace_evictions", self._sim.trace_evictions)
        if result is not None and hasattr(result, "job_name"):
            self.meta.setdefault("job_name", result.job_name)
            self.meta.setdefault("job_time_s", result.job_time)

    def series(self) -> Dict[str, List[float]]:
        return self.probe.series() if self.probe is not None else {"time": []}
