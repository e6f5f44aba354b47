"""Exporters: Chrome trace-event JSON and the JSONL structured run log.

**Chrome trace** (``write_chrome_trace``) targets the trace-event JSON
format Perfetto and ``chrome://tracing`` load.  Phases and task
attempts come from the run's span tree
(:class:`~repro.obs.spans.SpanRecorder`), which alone pairs their
start and end events:

* each cluster node is a *process* (``pid`` = node id) whose *threads*
  are task lanes packed greedily in start order — every attempt span
  becomes a ``"ph": "X"`` complete event named ``phase#task`` with
  microsecond ``ts``/``dur`` and its outcome and speculative flag;
* engine phases render as ``X`` spans under their round-qualified
  names (``store[2]``, the job tag in ``args``), packed greedily onto the
  lanes of a synthetic ``engine`` process so the phases of concurrent
  jobs never cross, and fault/recovery/loss events as ``"i"``
  instants there;
* network flows (``flow-start``/``flow-end``) become ``"b"``/``"e"``
  async spans keyed by flow id on a synthetic ``fabric`` process (these
  and the instants below are read with :meth:`EventLog.select
  <repro.obs.eventlog.EventLog.select>`, so no other record's payload
  is built for them);
* the audited decisions ride along as instants on the engine lane: a
  ``throttle`` or ``mem-decline`` that opened a block as it was traced,
  and the block's ``block-end`` with ``n`` and ``last`` in ``args`` (its
  ``times`` are left out);
* unlabeled gauges sampled by the probe become ``"C"`` counter tracks.

The file is written one trace event at a time, after a layout pass, so
no list of every event is held; its bytes are those of
``json.dump(chrome_trace(...), default=str)``.

**Run log** (``write_runlog``) is one JSON object per line unifying the
trace-event stream with the sampled metric series:

* ``{"type": "meta", ...}`` header (run identity, ``schema``: 2);
* ``{"type": "event", "t": ..., "kind": ..., ...payload}`` per record
  of :attr:`Telemetry.events` (the columnar store of
  :mod:`repro.obs.eventlog`, read record by record), in emission order,
  which is time order.
  Schema 2 added the ``block-end`` record: a scheduler decision that
  repeats on its node is logged once, and ``{"kind": "block-end",
  "node", "of", "reason" | "elastic", "n", "last"[, "times"]}`` closes
  the ``n`` decisions (``times``: the ``n - 1`` repeats' times, for
  ``throttle`` and ``mem-decline``) before the node's next launch or
  other decision (:mod:`repro.obs.telemetry`).  Schema 1 logs one
  record per decision;
* ``{"type": "sample", "t": ..., "values": {...}}`` per probe row;
* ``{"type": "summary", "counters": ..., "gauges": ..., "histograms":
  ...}`` footer with instrument endpoints.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from typing import Any, Dict, Iterable, Iterator, List

from repro.obs.spans import SpanRecorder
from repro.obs.telemetry import BLOCK_END, Telemetry

__all__ = ["RUNLOG_SCHEMA", "chrome_trace", "write_chrome_trace",
           "runlog_lines", "write_runlog", "INSTANT_KINDS"]

RUNLOG_SCHEMA = 2

#: Trace kinds exported as zero-duration instants on the engine lane.
#: The decision events (throttle, mem-decline, cad-step, spill-done,
#: and the block-end that closes a repeated decision) ride along so a
#: Perfetto view shows the audited decisions in place.
INSTANT_KINDS = frozenset({
    "fault-crash", "fault-restart", "fault-executor-loss",
    "fault-degrade", "fault-shuffle-loss", "task-lost", "throttle",
    "failure", "mem-decline", "cad-step", "spill-done", BLOCK_END,
})

#: The kinds drawn as events of their own: the instants and the flows.
_DRAWN_KINDS = INSTANT_KINDS | {"flow-start", "flow-end"}

_US = 1e6  # trace-event timestamps are microseconds


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def _lane(lanes: List[float], start: float, end: float) -> int:
    """Greedy lane packing: first lane free at ``start``, else a new one;
    the chosen lane is then busy until ``end``."""
    for i, busy_until in enumerate(lanes):
        if busy_until <= start + 1e-12:
            lanes[i] = end
            return i
    lanes.append(end)
    return len(lanes) - 1


def chrome_trace(telemetry: Telemetry) -> Dict[str, Any]:
    """Build the trace-event JSON document from one run's telemetry."""
    return {
        "traceEvents": list(_trace_events(telemetry)),
        "displayTimeUnit": "ms",
        "otherData": dict(telemetry.meta),
    }


def write_chrome_trace(path: str, telemetry: Telemetry) -> None:
    """Write :func:`chrome_trace`'s document as ``json.dump(doc, fh,
    default=str)`` would, plus a newline, one trace event at a time."""
    _ensure_parent(path)
    encode = json.JSONEncoder(default=str).encode
    tail = encode({"displayTimeUnit": "ms",
                   "otherData": dict(telemetry.meta)})
    with open(path, "w") as fh:
        fh.write('{"traceEvents": [')
        sep = ""
        for ev in _trace_events(telemetry):
            fh.write(sep)
            fh.write(encode(ev))
            sep = ", "
        fh.write("], ")
        fh.write(tail[1:])
        fh.write("\n")


def _trace_events(telemetry: Telemetry) -> Iterator[Dict[str, Any]]:
    """The document's ``traceEvents``, in order, one dict at a time.

    The layout comes first: the pids from the store's ``node`` fields
    (no payload is built for it), the task lanes from the span tree, and
    which processes appear at all, so the metadata events that open the
    list are known before any other event is made."""
    events = telemetry.events
    rec = SpanRecorder.from_telemetry(telemetry)
    series = telemetry.series()
    counter_keys = [key for key in series
                    if key != "time" and "{" not in key]

    # pid layout: 0..n-1 real nodes, then two synthetic processes.
    max_node = -1
    for node in events.field_values("node"):
        if isinstance(node, int) and node > max_node:
            max_node = node
    engine_pid = max_node + 1
    fabric_pid = max_node + 2

    node_lanes: Dict[int, List[float]] = {}
    attempt_tids = array("l", [
        _lane(node_lanes.setdefault(sp.node, []), sp.start, sp.end)
        for sp in rec.attempts])
    pids_seen = set(node_lanes)
    if rec.phases or counter_keys or any(
            events.count(kind) for kind in INSTANT_KINDS):
        pids_seen.add(engine_pid)
    if events.count("flow-start") or events.count("flow-end"):
        pids_seen.add(fabric_pid)

    # -- metadata: readable process/thread names --------------------------
    for pid in sorted(pids_seen):
        if pid == engine_pid:
            name = "engine"
        elif pid == fabric_pid:
            name = "fabric"
        else:
            name = f"node {pid}"
        yield {"ph": "M", "pid": pid, "tid": 0, "ts": 0,
               "name": "process_name", "args": {"name": name}}
    for node, lanes in sorted(node_lanes.items()):
        for tid in range(len(lanes)):
            yield {"ph": "M", "pid": node, "tid": tid, "ts": 0,
                   "name": "thread_name", "args": {"name": f"slot {tid}"}}

    # -- task attempts -> per-node duration lanes -------------------------
    for sp, tid in zip(rec.attempts, attempt_tids):
        yield {
            "ph": "X", "pid": sp.node, "tid": tid,
            "ts": sp.start * _US, "dur": sp.duration * _US,
            "name": sp.name, "cat": "task",
            "args": {"task": sp.attrs["task"],
                     "outcome": sp.attrs["outcome"],
                     "speculative": sp.attrs.get("speculative", False)},
        }

    # -- phases -> packed engine lanes (concurrent jobs never cross) ------
    phase_lanes: List[float] = []
    for sp in rec.phases:
        yield {
            "ph": "X", "pid": engine_pid,
            "tid": _lane(phase_lanes, sp.start, sp.end),
            "ts": sp.start * _US, "dur": sp.duration * _US,
            "name": sp.name, "cat": "phase",
            "args": dict(sp.attrs),  # the job tag; combine's pre/post
        }

    # -- instants, flows ---------------------------------------------------
    for t, kind, data in events.select(_DRAWN_KINDS):
        if kind in INSTANT_KINDS:
            yield {
                "ph": "i", "pid": engine_pid, "tid": 1,
                "ts": t * _US, "name": kind, "cat": "event",
                "s": "g",
                "args": {k: v for k, v in data.items() if k != "times"},
            }
        elif kind == "flow-start":
            yield {
                "ph": "b", "pid": fabric_pid, "tid": 0,
                "ts": t * _US, "id": data["fid"],
                "name": f"flow {data.get('src')}->{data.get('dst')}",
                "cat": "flow", "args": dict(data),
            }
        else:
            yield {
                "ph": "e", "pid": fabric_pid, "tid": 0,
                "ts": t * _US, "id": data["fid"],
                "name": f"flow {data.get('src')}->{data.get('dst')}",
                "cat": "flow", "args": {},
            }

    # -- counters from unlabeled gauge series -----------------------------
    times = series.get("time", [])
    for key in counter_keys:
        for t, v in zip(times, series[key]):
            if math.isnan(v):
                continue
            yield {
                "ph": "C", "pid": engine_pid, "tid": 0, "ts": t * _US,
                "name": key, "args": {"value": v},
            }


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return None if math.isnan(value) else value
    if isinstance(value, (list, tuple, array)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def runlog_lines(telemetry: Telemetry) -> Iterable[str]:
    """The JSONL run log, one serialized line at a time.

    Events and samples are emitted in one merged stream ordered by
    timestamp (ties: events first, preserving each stream's own order),
    so a reader scanning the log sees the run unfold chronologically.
    The merge is one pass over the event store, each sample going out
    before the first event later than it.
    """
    header = {"type": "meta", "schema": RUNLOG_SCHEMA}
    header.update(_jsonable(telemetry.meta))
    yield json.dumps(header)

    series = telemetry.series()
    times = series.get("time", [])
    sample_keys = [k for k in series if k != "time"]

    def sample(i: int) -> str:
        values = {k: _jsonable(series[k][i]) for k in sample_keys}
        return json.dumps({"type": "sample", "t": times[i],
                           "values": values})

    si, n_samples = 0, len(times)
    for t, kind, data in telemetry.events:
        while si < n_samples and times[si] < t:
            yield sample(si)
            si += 1
        line = {"type": "event", "t": t, "kind": kind}
        for k, v in data.items():
            line[k] = _jsonable(v)
        yield json.dumps(line)
    for i in range(si, n_samples):
        yield sample(i)

    snap = telemetry.registry.snapshot()
    yield json.dumps({"type": "summary", **_jsonable(snap)})


def write_runlog(path: str, telemetry: Telemetry) -> None:
    _ensure_parent(path)
    with open(path, "w") as fh:
        for line in runlog_lines(telemetry):
            fh.write(line)
            fh.write("\n")
