"""Scheduler decision audit: every veto/throttle/decline with the state
that justified it.

The offer loop already traces its decisions: the stage runner traces
``decline`` from the policy's ``decline_info`` and ``throttle`` and
``mem-decline`` from the declining admission gate's own ``why``
payload, and CAD traces its ``cad-step`` when a completion moves its
delay.  Those payloads carry the *justifying state* — the node volume
vs. the cluster average behind an ELB veto, the CAD running mean vs.
its trigger threshold behind a throttle step, the free heap vs. demand
behind a memory decline.  This
module folds the event stream (a run log's
:class:`~repro.obs.eventlog.EventLog`, of which it reads the decision
kinds only, or ``(t, kind, payload)`` tuples or :class:`TraceEvent`
objects; see :func:`repro.obs.spans._records`) into typed
:class:`AuditRecord` rows and renders the deterministic summaries
``repro explain`` prints.  A record keeps the event's payload and
derives its justifying :attr:`state` only when read: the summaries
read it for one example per reason, not for every decision.
:func:`iter_audit` yields the records one at a time and
:func:`audit_lines` folds them in one pass into counts plus the first
record of each reason, so a summary holds one record per reason, not one
per decision; :func:`build_audit` is the same stream as a list.

A telemetry run log records a decision that repeats on its node once
and closes the repeats with a ``block-end`` record
(:mod:`repro.obs.telemetry`).  Its ``n - 1`` repeats become one
:attr:`AuditRecord.repeat` record of weight :attr:`AuditRecord.n` for
the block's ``(action, reason)``, with no state of its own, so totals
and counts are those of the per-decision stream, and the first record
of each reason, the example, is still a traced decision.

Actions:

=================  =====================================================
action             emitted when / state recorded
=================  =====================================================
``elb-veto``       ELB refused a node's offer: ``node_bytes``,
                   ``cluster_avg``, ``threshold``
``delay-pass``     delay scheduling skipped a non-local head-of-queue
                   task: ``wait``, ``reference``, ``deadline``
``policy-decline`` the policy simply had no eligible task
``cad-throttle``   a CAD pacing/concurrency gate held a node back:
                   ``delay``, ``in_flight``, ``target``,
                   ``window_avg``, ``baseline``
``cad-step``       CAD moved its delay: ``prev``, ``delay``,
                   ``window_avg``, ``baseline``, ``trigger_ratio``
``mem-decline``    the memory gate refused a launch: ``free``,
                   ``demand``, ``floor``, ``elastic``
=================  =====================================================
"""

from __future__ import annotations

from typing import (Any, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Tuple)

from repro.obs.spans import _records
from repro.obs.telemetry import BLOCK_END

__all__ = ["AuditRecord", "iter_audit", "build_audit", "audit_counts",
           "audit_lines"]

#: Payload keys that are bookkeeping, not justifying state.
_META_KEYS = frozenset({"node", "reason"})

#: The kinds the audit reads.
_AUDIT_KINDS = frozenset({"decline", "throttle", "cad-step", "mem-decline",
                          BLOCK_END})


class AuditRecord:
    """One audited scheduler decision, or the repeats of one.

    A record with a payload is one traced decision (``n == 1``); a
    :attr:`repeat` record, made from a ``block-end``, stands for the
    ``n`` repeats of its node's decision and keeps no state."""

    __slots__ = ("t", "action", "node", "reason", "_payload", "n")

    def __init__(self, t: float, action: str, node: Optional[int],
                 reason: str, payload: Optional[Mapping[str, Any]],
                 n: int = 1):
        self.t = t
        self.action = action
        self.node = node
        self.reason = reason
        self._payload = payload
        self.n = n

    @property
    def repeat(self) -> bool:
        """True for the repeats folded by a ``block-end``."""
        return self._payload is None

    @property
    def state(self) -> Dict[str, Any]:
        """The justifying state: the payload minus its bookkeeping keys
        (empty for a :attr:`repeat` record)."""
        if self._payload is None:
            return {}
        return {k: v for k, v in self._payload.items()
                if k not in _META_KEYS}

    def __repr__(self) -> str:  # debugging aid only
        return (f"AuditRecord(t={self.t:.3f} {self.action} "
                f"node={self.node} reason={self.reason!r})")


#: ``decline`` reason -> audit action (any other reason is a
#: ``policy-decline``).
_DECLINE_ACTIONS = {"elb-veto": "elb-veto", "delay-wait": "delay-pass"}


def _decision(kind: str, d: Mapping[str, Any]
              ) -> Optional[Tuple[str, str]]:
    """(action, reason) of a decision payload, None for other kinds."""
    if kind == "decline":
        reason = str(d.get("reason", "no-task"))
        return _DECLINE_ACTIONS.get(reason, "policy-decline"), reason
    if kind == "throttle":
        return "cad-throttle", str(d.get("reason", "?"))
    if kind == "cad-step":
        return "cad-step", str(d.get("step", "?"))
    if kind == "mem-decline":
        return "mem-decline", ("elastic-floor" if d.get("elastic")
                               else "rigid")
    return None


def iter_audit(events: Iterable[Any]) -> Iterator[AuditRecord]:
    """Fold the trace-event stream into audit records, lazily and in
    event order."""
    for t, kind, d in _records(events, _AUDIT_KINDS):
        repeats = kind == BLOCK_END
        decision = _decision(d.get("of", "") if repeats else kind, d)
        if decision is not None:
            action, reason = decision
            if repeats:
                yield AuditRecord(t, action, d.get("node"), reason, None,
                                  d["n"] - 1)
            else:
                yield AuditRecord(t, action, d.get("node"), reason, d)


def build_audit(events: Iterable[Any]) -> List[AuditRecord]:
    """:func:`iter_audit` as a list."""
    return list(iter_audit(events))


def _ranked(counts: Mapping[Tuple[str, str], int]
            ) -> List[Tuple[str, str, int]]:
    return sorted(((a, re, n) for (a, re), n in counts.items()),
                  key=lambda x: (-x[2], x[0], x[1]))


def audit_counts(records: Iterable[AuditRecord]
                 ) -> List[Tuple[str, str, int]]:
    """(action, reason, count) sorted by count desc, then name."""
    counts: Dict[Tuple[str, str], int] = {}
    for r in records:
        key = (r.action, r.reason)
        counts[key] = counts.get(key, 0) + r.n
    return _ranked(counts)


def _fmt_state(state: Mapping[str, Any]) -> str:
    parts = []
    for k in sorted(state):
        v = state[k]
        if isinstance(v, float):
            parts.append(f"{k}={v:.4g}")
        else:
            parts.append(f"{k}={v}")
    return " ".join(parts)


def audit_lines(records: Iterable[AuditRecord], limit: int = 8,
                skip_uninteresting: bool = True) -> List[str]:
    """Deterministic "top decision reasons" rendering: counts plus the
    first occurrence's justifying state as the example.

    One pass over any iterable (a list or :func:`iter_audit`'s stream),
    keeping the total, a count per ``(action, reason)`` and the first
    traced record of each."""
    total = 0
    counts: Dict[Tuple[str, str], int] = {}
    first: Dict[Tuple[str, str], AuditRecord] = {}
    for r in records:
        total += r.n
        if skip_uninteresting and r.action == "policy-decline":
            continue
        key = (r.action, r.reason)
        counts[key] = counts.get(key, 0) + r.n
        if not r.repeat:
            first.setdefault(key, r)
    lines = [f"scheduler decisions: {total} audited, "
             f"{sum(counts.values())} consequential"]
    for action, reason, n in _ranked(counts)[:limit]:
        ex = first.get((action, reason))
        if ex is None:  # a block-end whose opening is not in the stream
            lines.append(f"  {action:<14s} {reason:<14s} x{n:<6d} e.g.")
            continue
        where = f" node {ex.node}" if ex.node is not None else ""
        state = _fmt_state(ex.state)
        suffix = f" [t={ex.t:.3f}{where} {state}]" if state else ""
        lines.append(f"  {action:<14s} {reason:<14s} x{n:<6d}"
                     f" e.g.{suffix}")
    if not counts:
        lines.append("  (none)")
    return lines
