"""Unified telemetry: metrics registry, sim-clock probes, exporters.

The observability layer (DESIGN.md §10).  A :class:`MetricsRegistry`
holds counters/gauges/histograms registered by the engine, scheduler,
ELB, CAD, fabric, and storage devices; a :class:`Probe` samples the
gauges on the simulation clock via daemon timers; exporters turn one
run's telemetry into a Perfetto-loadable Chrome trace and a JSONL
structured run log.  On top of the raw event stream, the explainer
stack (DESIGN.md §15) folds traces into a span tree
(:class:`SpanRecorder`), extracts the critical path and its wall-clock
attribution (:func:`critical_path` / :func:`attribution`), and audits
every scheduler decision with its justifying state
(:func:`iter_audit`).

Non-negotiable invariant: telemetry observes, never perturbs — a run's
result fingerprint is byte-identical with telemetry on or off
(``tests/obs/test_telemetry_invariant.py``), and the disabled path is
allocation-free.
"""

from repro.obs.registry import (MetricsRegistry, NULL_INSTRUMENT,
                                NULL_REGISTRY, instrument_key, parse_key)
from repro.obs.probe import Probe
from repro.obs.telemetry import Telemetry
from repro.obs.capture import CaptureSession
from repro.obs.spans import Span, SpanEdge, SpanRecorder
from repro.obs.critpath import (attribution, bottleneck, critical_path,
                                device_blame, explain_lines, node_blame)
from repro.obs.audit import (AuditRecord, audit_lines, build_audit,
                              iter_audit)

__all__ = [
    "MetricsRegistry", "NULL_INSTRUMENT", "NULL_REGISTRY",
    "instrument_key", "parse_key", "Probe", "Telemetry", "CaptureSession",
    "Span", "SpanEdge", "SpanRecorder",
    "attribution", "bottleneck", "critical_path", "device_blame",
    "explain_lines", "node_blame",
    "AuditRecord", "audit_lines", "build_audit", "iter_audit",
]
