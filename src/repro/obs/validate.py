"""Schema validation for exported telemetry files.

Checks the Chrome trace-event JSON against the fields Perfetto requires
(``ph``/``ts``/``pid``/``tid``/``name``, plus ``dur`` on complete
events, which must not cross another complete event on their lane) and
the JSONL run log against the record shapes :mod:`repro.obs.export`
emits: events in time order, and every ``block-end`` closing the open
decision block of its node and kind.  Runnable as a module — the CI
``trace-smoke`` job does exactly that::

    python -m repro.obs.validate TRACE.json RUNLOG.jsonl
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

from repro.obs.telemetry import BLOCK_END, BLOCK_KEYS

__all__ = ["validate_chrome_trace", "validate_runlog", "main"]

_KNOWN_PH = {"X", "M", "i", "b", "e", "C"}
#: Slack for comparing microsecond ``ts``/``dur`` sums: one nanosecond,
#: the resolution Perfetto imports JSON timestamps at.
_EPS_US = 1e-3


def _crossings(lanes: Dict[tuple, List[tuple]]) -> List[str]:
    """Complete events on one ``(pid, tid)`` lane, as ``(ts, end,
    name)``, must be disjoint or nested; two that overlap without
    nesting render as garbage."""
    problems: List[str] = []
    for (pid, tid), spans in lanes.items():
        spans.sort(key=lambda s: (s[0], -s[1]))  # parents first
        enclosing: List[tuple] = []
        for ts, end, name in spans:
            while enclosing and enclosing[-1][1] <= ts + _EPS_US:
                enclosing.pop()
            if enclosing and end > enclosing[-1][1] + _EPS_US:
                problems.append(
                    f"pid {pid} tid {tid}: X event {name!r} crosses "
                    f"{enclosing[-1][2]!r} (overlaps without nesting)")
            enclosing.append((ts, end, name))
    return problems


def validate_chrome_trace(doc: Any) -> List[str]:
    """Return a list of problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]
    if not events:
        problems.append("traceEvents is empty")
    n_complete = 0
    lanes: Dict[tuple, List[tuple]] = {}
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        n_problems = len(problems)
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _KNOWN_PH:
            problems.append(f"{where}: unknown ph {ph!r}")
            continue
        for fld in ("pid", "tid"):
            if not isinstance(ev.get(fld), int):
                problems.append(f"{where}: {fld} must be an int")
        if not isinstance(ev.get("ts"), (int, float)):
            problems.append(f"{where}: ts must be a number")
        if not isinstance(ev.get("name"), str):
            problems.append(f"{where}: name must be a string")
        if ph == "X":
            n_complete += 1
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs dur >= 0")
        if ph in ("b", "e") and "id" not in ev:
            problems.append(f"{where}: async event needs an id")
        if ph == "X" and len(problems) == n_problems:
            lanes.setdefault((ev["pid"], ev["tid"]), []).append(
                (ev["ts"], ev["ts"] + ev["dur"], ev["name"]))
        if len(problems) > 20:
            problems.append("... (truncated)")
            break
    if not n_complete and not problems:
        problems.append("no duration (ph=X) events — no task lanes?")
    problems.extend(_crossings(lanes)[:20])
    return problems


def validate_runlog(lines: List[str]) -> List[str]:
    """Return a list of problems (empty = valid)."""
    problems: List[str] = []
    if not lines:
        return ["empty run log"]
    types_seen = set()
    t_event = None
    #: node -> (kind, key) of the decision block open on it.
    blocks: Dict[Any, tuple] = {}
    for i, raw in enumerate(lines):
        raw = raw.strip()
        if not raw:
            continue
        where = f"line {i + 1}"
        try:
            rec = json.loads(raw)
        except ValueError as exc:
            problems.append(f"{where}: not JSON ({exc})")
            continue
        typ = rec.get("type")
        types_seen.add(typ)
        if i == 0 and typ != "meta":
            problems.append(f"{where}: first record must be meta, got {typ!r}")
        if typ in ("event", "sample") and \
                not isinstance(rec.get("t"), (int, float)):
            problems.append(f"{where}: {typ} needs numeric t")
        if typ == "event" and not isinstance(rec.get("kind"), str):
            problems.append(f"{where}: event needs a kind")
        if typ == "sample" and not isinstance(rec.get("values"), dict):
            problems.append(f"{where}: sample needs a values object")
        if typ == "event" and isinstance(rec.get("t"), (int, float)):
            if t_event is not None and rec["t"] < t_event:
                problems.append(f"{where}: event at t={rec['t']} is "
                                f"before the previous one (t={t_event})")
            t_event = rec["t"]
            problems.extend(f"{where}: {p}" for p in _block_check(rec,
                                                                  blocks))
        if typ not in ("meta", "event", "sample", "summary"):
            problems.append(f"{where}: unknown record type {typ!r}")
        if len(problems) > 20:
            problems.append("... (truncated)")
            break
    if "summary" not in types_seen:
        problems.append("missing summary footer")
    return problems


def _block_check(rec: Dict[str, Any], blocks: Dict[Any, tuple]
                 ) -> List[str]:
    """Track the decision block open on each node; a ``block-end`` must
    close the open block of its node, kind and key."""
    kind, node = rec.get("kind"), rec.get("node")
    field = BLOCK_KEYS.get(kind)
    if field is not None:
        blocks[node] = (kind, rec.get(field))
    elif kind == "launch":
        blocks.pop(node, None)
    elif kind == BLOCK_END:
        of = rec.get("of")
        opened = blocks.pop(node, None)
        if of not in BLOCK_KEYS or opened != (of, rec.get(BLOCK_KEYS[of])):
            return [f"block-end of {of!r} on node {node} closes no open "
                    f"block of that kind (open: {opened})"]
        n, times = rec.get("n"), rec.get("times")
        if not isinstance(n, int) or n < 2:
            return [f"block-end needs an int n >= 2, got {n!r}"]
        if times is not None and len(times) != n - 1:
            return [f"block-end of {n} decisions lists {len(times)} "
                    f"repeat times, not {n - 1}"]
    return []


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: python -m repro.obs.validate FILE...", file=sys.stderr)
        return 2
    failed = False
    for path in argv:
        if path.endswith(".jsonl"):
            with open(path) as fh:
                problems = validate_runlog(fh.readlines())
        else:
            with open(path) as fh:
                problems = validate_chrome_trace(json.load(fh))
        if problems:
            failed = True
            print(f"{path}: INVALID")
            for p in problems:
                print(f"  - {p}")
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
