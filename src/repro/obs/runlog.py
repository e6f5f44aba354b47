"""Reader for the JSONL run log written by :mod:`repro.obs.export`.

Loads the log back into columnar form for analysis
(:mod:`repro.analysis.timeline`) and the ``repro report`` summary:
``meta`` header, the events in the live run's store
(:class:`~repro.obs.eventlog.EventLog`), the sampled series as a time
axis plus one column per gauge key, and the instrument-endpoint summary.

Schemas 1 and 2 are read (a header without ``schema`` is schema 1);
schema 2 logs a repeated scheduler decision once, closed by a
``block-end`` record that the span fold and the audit expand
(:mod:`repro.obs.export`).  Any other schema is an error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import nan
from typing import Any, Dict, List

from repro.obs.eventlog import EventLog

__all__ = ["RunLog", "load_runlog", "READ_SCHEMAS"]

#: Run-log schema versions this reader understands.
READ_SCHEMAS = (1, 2)


@dataclass
class RunLog:
    """One parsed run log."""

    meta: Dict[str, Any] = field(default_factory=dict)
    #: The events in log order, ``block-end`` records included (see
    #: :func:`traced_count <repro.obs.telemetry.traced_count>`): the
    #: same columnar store a live :class:`~repro.obs.telemetry.Telemetry`
    #: fills, iterated as ``(t, kind, payload)``.
    events: EventLog = field(default_factory=EventLog)
    #: Sample time axis.
    times: List[float] = field(default_factory=list)
    #: Gauge key -> one value per entry of :attr:`times` (NaN = missing).
    columns: Dict[str, List[float]] = field(default_factory=dict)
    #: Instrument endpoints (the ``summary`` footer), if present.
    summary: Dict[str, Any] = field(default_factory=dict)


def load_runlog(path: str) -> RunLog:
    """Read a run log one line at a time.  One line of lookahead tells
    the last line from the others: a torn final line (the writer was
    killed mid-record) is dropped and everything before it kept, while
    garbage on any other line is a corrupt log and raises
    ``ValueError`` naming the path and line, as does an unsupported
    schema."""
    log = RunLog()
    with open(path) as fh:
        pending = None
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if pending is not None:
                try:
                    rec = json.loads(pending)
                except ValueError as exc:
                    raise ValueError(f"{path}:{pending_no}: not a run-log "
                                     f"record ({exc})") from None
                _read(log, rec, path)
            pending, pending_no = line, lineno
        if pending is not None:
            try:
                rec = json.loads(pending)
            except ValueError:
                return log
            _read(log, rec, path)
    return log


def _read(log: RunLog, rec: Dict[str, Any], path: str) -> None:
    typ = rec.pop("type", None)
    if typ == "event":
        # What is left after the time and the kind is the payload, in
        # the order it was written.
        t = rec.pop("t", 0.0)
        kind = rec.pop("kind", "")
        log.events.append(float(t), str(kind), rec)
    elif typ == "sample":
        n_prev = len(log.times)
        log.times.append(float(rec["t"]))
        values = rec.get("values", {})
        for key, val in values.items():
            col = log.columns.get(key)
            if col is None:
                col = log.columns[key] = [nan] * n_prev
            col.append(nan if val is None else float(val))
        for key, col in log.columns.items():
            if len(col) <= n_prev:
                col.append(nan)
    elif typ == "meta":
        schema = rec.get("schema", 1)
        if schema not in READ_SCHEMAS:
            raise ValueError(
                f"{path}: run-log schema {schema!r} is not supported "
                f"(this reader reads schemas "
                f"{', '.join(map(str, READ_SCHEMAS))})")
        log.meta = rec
    elif typ == "summary":
        log.summary = rec
