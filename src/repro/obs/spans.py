"""Structured span timeline assembled from trace events.

The simulator's tracing layer (:mod:`repro.sim.trace`) emits a flat
event stream; this module folds it into the three-level span tree the
paper's characterization implies — **job → stage/phase → task
attempt** — plus causal edges that record *why* a span starts when it
does:

================  ====================================================
edge kind         meaning
================  ====================================================
``queued-at``     the attempt's task entered the queue at ``t``; the
                  gap to launch is scheduler time, not work
``throttle-wait`` CAD pacing/concurrency gates held the attempt's
                  node back in the window before this launch; one
                  edge per attempt: ``t`` / ``last`` are the first and
                  last such decline, ``n`` their count
``mem-wait``      the memory gate declined the node's offers in the
                  same window (same ``t`` / ``last`` / ``n`` tally)
``spill``         the attempt spilled; once the write+read-back
                  finishes the measured seconds land in the attempt's
                  ``spill_elapsed`` attr
``combine``       the in-node combiner ran inside this phase
``recovery``      a fault event occurred (anchored to the job span)
================  ====================================================

Everything here is *post-hoc*: spans are only built when a caller asks
(``repro explain``, ``repro report``, the bench spans column), so the
no-telemetry path stays allocation-free and fingerprints are untouched
by construction.  The fold reads ``(t, kind, payload)`` records from
a run log's :class:`~repro.obs.eventlog.EventLog` (a live
:class:`~repro.obs.telemetry.Telemetry` bundle's ``events`` or a loaded
:class:`~repro.obs.runlog.RunLog`'s), selecting only the kinds it reads,
so the flow, offer and retry records that make up most of a log never
become payload dicts here; any other stream is normalized by
:func:`_norm`: ``(t, kind, payload)`` tuples pass through and
:class:`~repro.sim.trace.TraceEvent` objects (e.g. the simulator's
ring) are converted one at a time.

The fold is one streaming pass that keeps per-task state, not
per-event state: the scheduler declines between two launches on a node
(tens of thousands in a large CAD run) become one tally per wait
category, and :attr:`SpanRecorder.wait_index` keeps each wait
decision's time and category per node, in two arrays, for the
critical-path walk.  A telemetry run log records a repeated decision
once and closes the repeats with a ``block-end`` record
(:mod:`repro.obs.telemetry`); the fold adds its ``n - 1`` repeats to the
tally and its exact ``times`` to the index, so a coalesced log and the
per-decision stream of the simulator's ring fold to the same tree.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import (Any, Collection, Dict, Iterable, Iterator, List,
                    Mapping, Optional, Tuple)

from repro.obs.eventlog import EventLog
from repro.obs.telemetry import BLOCK_END

__all__ = ["Span", "SpanEdge", "SpanRecorder", "PHASE_CATEGORY",
           "WAIT_CATEGORIES", "phase_key", "base_phase"]

#: Engine phase -> attribution category (see obs/critpath.py).
PHASE_CATEGORY = {"compute": "compute", "combine": "combine",
                  "store": "store", "fetch": "fetch",
                  "recovery": "recovery"}

#: Decision-event kind -> wait category it justifies.
WAIT_KINDS = {"throttle": "scheduler-throttle",
              "mem-decline": "memory-wait"}

#: Wait category -> the edge kind that tallies it on the next launch.
WAIT_EDGES = {"scheduler-throttle": "throttle-wait",
              "memory-wait": "mem-wait"}

#: Wait categories by code, in string order: at equal times the larger
#: code, like the larger string, wins (:meth:`SpanRecorder.last_wait`).
WAIT_CATEGORIES = tuple(sorted(WAIT_EDGES))
_WAIT_CODE = {kind: WAIT_CATEGORIES.index(wcat)
              for kind, wcat in WAIT_KINDS.items()}

_ATTEMPT_END = ("complete", "interrupt", "failure")

#: The kinds the span fold reads, besides every ``fault-*``.
_SPAN_KINDS = frozenset({"phase-start", "phase-end", "launch",
                         *_ATTEMPT_END, *WAIT_KINDS, BLOCK_END, "spill",
                         "spill-done", "combine", "task-lost"})


def phase_key(phase: str, round_: Optional[int] = None) -> str:
    """Display/window name of a phase: ``store`` or ``store[2]`` for
    per-iteration shuffle rounds."""
    return f"{phase}[{round_}]" if round_ is not None else phase


def base_phase(name: str) -> str:
    """``store[2]`` -> ``store`` (category lookup key)."""
    return name.partition("[")[0]


class Span:
    """One timed node of the span tree."""

    __slots__ = ("span_id", "parent_id", "kind", "name", "start", "end",
                 "node", "attrs")

    def __init__(self, span_id: int, parent_id: Optional[int], kind: str,
                 name: str, start: float, end: Optional[float] = None,
                 node: Optional[int] = None,
                 attrs: Optional[Dict[str, Any]] = None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind          # "job" | "phase" | "attempt"
        self.name = name
        self.start = start
        self.end = end
        self.node = node
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) \
            - self.start

    def __repr__(self) -> str:  # debugging aid only
        return (f"Span({self.kind} {self.name!r} "
                f"[{self.start:.3f}, {self.end}] node={self.node})")


class SpanEdge:
    """One causal edge: ``src`` span explains ``dst`` span."""

    __slots__ = ("src", "dst", "kind", "attrs")

    def __init__(self, src: int, dst: int, kind: str,
                 attrs: Optional[Dict[str, Any]] = None):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.attrs = attrs if attrs is not None else {}


def _norm(events: Iterable[Any]) -> Iterator[Tuple[float, str, Mapping]]:
    """Normalize an event stream to ``(t, kind, data)`` tuples, lazily:
    tuples pass through, TraceEvent objects are converted one at a
    time."""
    for e in events:
        if type(e) is tuple:
            yield e
        else:
            yield float(e.time), e.kind, e.data


def _records(events: Iterable[Any], kinds: Collection[str],
             prefixes: Tuple[str, ...] = ()
             ) -> Iterator[Tuple[float, str, Mapping]]:
    """The records a fold over ``kinds`` (and ``prefixes``) reads: from
    an :class:`EventLog`, those kinds only; from any other stream, every
    event, through :func:`_norm`."""
    if isinstance(events, EventLog):
        return events.select(kinds, prefixes)
    return _norm(events)


class SpanRecorder:
    """The assembled span tree for one run.

    Use the classmethod constructors; the instance exposes ``job`` (the
    root span), ``phases`` and ``attempts`` (start-ordered), ``edges``,
    plus the wait decisions and fault times (:attr:`wait_index`,
    :meth:`last_wait`, :attr:`fault_times`) that
    :mod:`repro.obs.critpath` uses to categorize idle gaps.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.edges: List[SpanEdge] = []
        self.job: Optional[Span] = None
        self.phases: List[Span] = []
        self.attempts: List[Span] = []
        #: node -> (times, codes) of its throttle / mem-decline decisions,
        #: one entry per decision (a ``block-end``'s repeats included),
        #: times ascending; a code indexes :data:`WAIT_CATEGORIES`.
        self.wait_index: Dict[Any, Tuple[array, array]] = {}
        #: Timestamps of fault-* / task-lost events.
        self.fault_times: List[float] = []

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_telemetry(cls, telemetry: Any) -> "SpanRecorder":
        meta = telemetry.meta
        return cls.from_events(
            telemetry.events,
            t_end=meta.get("job_time_s"),
            job_name=str(meta.get("job_name", "job")))

    @classmethod
    def from_runlog(cls, log: Any) -> "SpanRecorder":
        """The span tree of a loaded run log.  A phase or attempt left
        open (the run was cut short) ends at the header's
        ``job_time_s``, else at the log's last event."""
        meta = log.meta
        t_end = meta.get("job_time_s")
        return cls.from_events(
            log.events, t_end=float(t_end) if t_end is not None else None,
            job_name=str(meta.get("job_name", "job")))

    @classmethod
    def from_events(cls, events: Iterable[Any], t0: float = 0.0,
                    t_end: Optional[float] = None,
                    job_name: str = "job") -> "SpanRecorder":
        rec = cls()
        job = rec._new_span(None, "job", job_name, t0)
        rec.job = job

        open_phases: Dict[Tuple[Any, str], Span] = {}
        open_attempts: Dict[Tuple[Any, Any], List[Span]] = {}
        #: node -> {wait category: [first t, last t, count]} of the
        #: decision events since the last launch on that node.
        waits: Dict[Any, Dict[str, List[Any]]] = {}
        # A phase left open ends at the last event of any kind.
        t_max = max(t0, max(events.times, default=t0)) \
            if isinstance(events, EventLog) else t0

        for t, kind, d in _records(events, _SPAN_KINDS, ("fault-",)):
            if t > t_max:
                t_max = t
            if kind == "phase-start":
                name = phase_key(d.get("phase", "?"), d.get("round"))
                key = (d.get("job"), name)
                sp = rec._new_span(job.span_id, "phase", name, t)
                if d.get("job"):
                    sp.attrs["job"] = d["job"]
                open_phases[key] = sp
                rec.phases.append(sp)
            elif kind == "phase-end":
                name = phase_key(d.get("phase", "?"), d.get("round"))
                sp = open_phases.pop((d.get("job"), name), None)
                if sp is not None:
                    sp.end = t
            elif kind == "launch":
                parent = (max(open_phases.values(),
                              key=lambda p: (p.start, p.span_id))
                          if open_phases else job)
                task, node = d.get("task"), d.get("node")
                phase = d.get("phase", base_phase(parent.name)
                               if parent is not job else "?")
                sp = rec._new_span(parent.span_id, "attempt",
                                   f"{phase}#{task}", t, node=node)
                sp.attrs["task"] = task
                sp.attrs["phase"] = phase
                if d.get("speculative"):
                    sp.attrs["speculative"] = True
                queued = d.get("queued")
                if queued is not None:
                    sp.attrs["queued"] = float(queued)
                    rec.edges.append(SpanEdge(
                        parent.span_id, sp.span_id, "queued-at",
                        {"t": float(queued)}))
                for wcat, (first, last, n) in waits.pop(node, {}).items():
                    rec.edges.append(SpanEdge(
                        parent.span_id, sp.span_id, WAIT_EDGES[wcat],
                        {"t": first, "last": last, "n": n}))
                open_attempts.setdefault((task, node), []).append(sp)
                rec.attempts.append(sp)
            elif kind in _ATTEMPT_END:
                stack = open_attempts.get((d.get("task"), d.get("node")))
                if stack:
                    sp = stack.pop()
                    sp.end = t
                    sp.attrs["outcome"] = kind
            elif kind in WAIT_KINDS:
                node, wcat = d.get("node"), WAIT_KINDS[kind]
                times, codes = rec._wait_arrays(node)
                times.append(t)
                codes.append(_WAIT_CODE[kind])
                tally = waits.setdefault(node, {}).get(wcat)
                if tally is None:
                    waits[node][wcat] = [t, t, 1]
                else:
                    tally[1] = t
                    tally[2] += 1
            elif kind == BLOCK_END:
                of = d.get("of")
                if of in WAIT_KINDS:
                    # The block's opening decision was tallied and
                    # indexed above; add its n - 1 repeats.
                    node, last = d.get("node"), d["last"]
                    repeats = d.get("times", ())
                    times, codes = rec._wait_arrays(node)
                    times.extend(repeats)
                    codes.extend([_WAIT_CODE[of]] * len(repeats))
                    tally = waits.setdefault(node, {}).setdefault(
                        WAIT_KINDS[of], [last, last, 0])
                    tally[1] = last
                    tally[2] += d["n"] - 1
            elif kind == "spill":
                sp = rec._open_attempt(open_attempts, d)
                if sp is not None:
                    sp.attrs["spill_bytes"] = \
                        sp.attrs.get("spill_bytes", 0.0) \
                        + float(d.get("bytes", 0.0))
                    rec.edges.append(SpanEdge(
                        sp.span_id, sp.span_id, "spill",
                        {"bytes": d.get("bytes"), "t": t}))
            elif kind == "spill-done":
                sp = rec._open_attempt(open_attempts, d)
                if sp is not None:
                    sp.attrs["spill_elapsed"] = \
                        sp.attrs.get("spill_elapsed", 0.0) \
                        + float(d.get("elapsed", 0.0))
            elif kind == "combine":
                target = None
                for (jb, name), sp in open_phases.items():
                    if base_phase(name) == "combine":
                        target = sp
                if target is not None:
                    target.attrs["pre"] = d.get("pre")
                    target.attrs["post"] = d.get("post")
                    rec.edges.append(SpanEdge(
                        job.span_id, target.span_id, "combine",
                        {"pre": d.get("pre"), "post": d.get("post")}))
            elif kind.startswith("fault-") or kind == "task-lost":
                rec.fault_times.append(t)
                rec.edges.append(SpanEdge(
                    job.span_id, job.span_id, "recovery",
                    {"t": t, "kind": kind}))

        job.end = max(t_end if t_end is not None else t_max, job.start)
        for sp in open_phases.values():
            sp.end = job.end
        for stack in open_attempts.values():
            for sp in stack:
                sp.end = job.end
                sp.attrs["outcome"] = "unfinished"
        rec.phases.sort(key=lambda s: (s.start, s.span_id))
        rec.attempts.sort(key=lambda s: (s.start, s.span_id))
        for node, (times, codes) in rec.wait_index.items():
            if any(b < a for a, b in zip(times, times[1:])):
                # Out-of-order input: a run log is in time order, but
                # from_events takes any stream.
                pairs = sorted(zip(times, codes))
                rec.wait_index[node] = (array("d", [p[0] for p in pairs]),
                                        array("b", [p[1] for p in pairs]))
        rec.fault_times.sort()
        return rec

    # -- internals --------------------------------------------------------

    def _new_span(self, parent_id: Optional[int], kind: str, name: str,
                  start: float, node: Optional[int] = None) -> Span:
        sp = Span(len(self.spans), parent_id, kind, name, start, None,
                  node)
        self.spans.append(sp)
        return sp

    def _wait_arrays(self, node: Any) -> Tuple[array, array]:
        idx = self.wait_index.get(node)
        if idx is None:
            idx = self.wait_index[node] = (array("d"), array("b"))
        return idx

    @staticmethod
    def _open_attempt(open_attempts, d) -> Optional[Span]:
        stack = open_attempts.get((d.get("task"), d.get("node")))
        return stack[-1] if stack else None

    # -- queries ----------------------------------------------------------

    def span(self, span_id: int) -> Span:
        return self.spans[span_id]

    def last_wait(self, node: Any, lo: float, hi: float) -> Optional[str]:
        """Category of the latest wait decision on ``node`` with ``lo <=
        t <= hi`` (at equal times the larger category wins), or None.

        One bisection of the node's times finds the latest; the scan
        back covers only the decisions at exactly that time."""
        idx = self.wait_index.get(node)
        if idx is None:
            return None
        times, codes = idx
        i = bisect_right(times, hi) - 1
        if i < 0 or times[i] < lo:
            return None
        t, code = times[i], codes[i]
        i -= 1
        while i >= 0 and times[i] == t:
            code = max(code, codes[i])
            i -= 1
        return WAIT_CATEGORIES[code]

    def edges_of(self, kind: str) -> List[SpanEdge]:
        return [e for e in self.edges if e.kind == kind]

    def attempts_between(self, a: float, b: float,
                         eps: float = 1e-9) -> List[Span]:
        """Attempts overlapping the open interval ``(a, b)``."""
        return [s for s in self.attempts
                if s.end is not None and s.end > a + eps
                and s.start < b - eps]
