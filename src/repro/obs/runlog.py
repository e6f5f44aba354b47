"""Reader for the JSONL run log written by :mod:`repro.obs.export`.

Loads the log back into columnar form for analysis
(:mod:`repro.analysis.timeline`) and the ``repro report`` summary:
``meta`` header, the ordered event list, the sampled series as a time
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

__all__ = ["RunLog", "load_runlog", "READ_SCHEMAS"]

#: Run-log schema versions this reader understands.
READ_SCHEMAS = (1, 2)


@dataclass
class RunLog:
    """One parsed run log."""

    meta: Dict[str, Any] = field(default_factory=dict)
    #: ``{"t": ..., "kind": ..., ...payload}`` dicts in log order
    #: (``block-end`` records included; see :func:`traced_count
    #: <repro.obs.telemetry.traced_count>`).
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Sample time axis.
    times: List[float] = field(default_factory=list)
    #: Gauge key -> one value per entry of :attr:`times` (NaN = missing).
    columns: Dict[str, List[float]] = field(default_factory=dict)
    #: Instrument endpoints (the ``summary`` footer), if present.
    summary: Dict[str, Any] = field(default_factory=dict)

    def events_of(self, kind: str) -> List[Dict[str, Any]]:
        return [e for e in self.events if e.get("kind") == kind]


def load_runlog(path: str) -> RunLog:
    log = RunLog()
    with open(path) as fh:
        rows = [ln.strip() for ln in fh]
    rows = [ln for ln in rows if ln]
    for i, raw in enumerate(rows):
        try:
            rec = json.loads(raw)
        except ValueError:
            if i == len(rows) - 1:
                # A torn final line (writer killed mid-record): salvage
                # everything before it.  Garbage anywhere else is a
                # corrupt log and stays an error.
                break
            raise
        typ = rec.get("type")
        if typ == "meta":
            schema = rec.get("schema", 1)
            if schema not in READ_SCHEMAS:
                raise ValueError(
                    f"{path}: run-log schema {schema!r} is not supported "
                    f"(this reader reads schemas "
                    f"{', '.join(map(str, READ_SCHEMAS))})")
            log.meta = {k: v for k, v in rec.items() if k != "type"}
        elif typ == "event":
            log.events.append(
                {k: v for k, v in rec.items() if k != "type"})
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
        elif typ == "summary":
            log.summary = {k: v for k, v in rec.items() if k != "type"}
    return log
