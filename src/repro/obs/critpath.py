"""Critical-path extraction and wall-clock attribution over span trees.

Given a :class:`~repro.obs.spans.SpanRecorder`, this module answers the
characterization question the paper poses with its phase-dissection
figures: *where did the wall-clock go?*  The job window is partitioned
into a gapless chain of :class:`Segment`\\ s — by construction the
segment durations sum to the job wall-clock — and each segment lands in
exactly one attribution category:

``compute / combine / store / fetch`` — work on the critical chain,
categorized by the phase that ran it;
``spill`` — the measured write+read-back seconds carved out of
attempts that spilled;
``scheduler-throttle`` / ``memory-wait`` — idle windows on the
critical node explained by a recorded CAD throttle or memory-gate
decline (the proximate decision event wins);
``recovery`` — idle windows after a fault event (recovery barriers),
plus re-execution work outside any phase window;
``queueing`` — residual idle time: a task was queued and no recorded
decision explains the delay (slot simply busy elsewhere).

The chain itself is built backwards from the last-finishing attempt of
each phase window, stepping to the latest-finishing predecessor
attempt (same node preferred — the slot-release edge) until the window
start is reached.  Phase windows nest (per-iteration ``store[i]`` /
``fetch[i]`` rounds open inside the ``compute`` window); the innermost
open phase owns each elementary interval.

Everything is deterministic: ties break on span ids, rendering uses
fixed precision, and no wall-clock or RNG is consulted.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.spans import PHASE_CATEGORY, SpanRecorder, base_phase

__all__ = ["CATEGORIES", "Segment", "critical_path", "attribution",
           "node_blame", "device_blame", "bottleneck", "explain_lines"]

#: Attribution categories, in presentation order.
CATEGORIES = ("compute", "combine", "store", "fetch", "spill",
              "queueing", "scheduler-throttle", "memory-wait",
              "recovery")

_EPS = 1e-9


class Segment:
    """One contiguous piece of the critical path."""

    __slots__ = ("start", "end", "category", "node", "detail")

    def __init__(self, start: float, end: float, category: str,
                 node: Optional[int], detail: str):
        self.start = start
        self.end = end
        self.category = category
        self.node = node
        self.detail = detail

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:  # debugging aid only
        return (f"Segment({self.start:.3f}->{self.end:.3f} "
                f"{self.category} node={self.node} {self.detail!r})")


def critical_path(rec: SpanRecorder) -> List[Segment]:
    """Partition the job window into the critical-path segment chain."""
    job = rec.job
    if job is None or job.end is None or job.end - job.start <= _EPS:
        return []
    t0, t_end = job.start, job.end
    cuts = {t0, t_end}
    for p in rec.phases:
        p_end = p.end if p.end is not None else t_end
        cuts.add(min(max(p.start, t0), t_end))
        cuts.add(min(max(p_end, t0), t_end))
    bounds = sorted(cuts)
    segments: List[Segment] = []
    for a, b in zip(bounds, bounds[1:]):
        if b - a <= _EPS:
            continue
        active = [p for p in rec.phases
                  if p.start <= a + _EPS
                  and (p.end if p.end is not None else t_end) >= b - _EPS]
        phase = (max(active, key=lambda p: (p.start, p.span_id))
                 if active else None)
        segments.extend(_chain(rec, a, b, phase))
    segments.sort(key=lambda s: (s.start, s.end))
    return segments


def attribution(segments: List[Segment]) -> Dict[str, float]:
    """Category -> summed seconds (every category present, zeros kept)."""
    out = {c: 0.0 for c in CATEGORIES}
    for s in segments:
        out[s.category] = out.get(s.category, 0.0) + (s.end - s.start)
    return out


def node_blame(segments: List[Segment]) -> Dict[int, float]:
    """Node id -> seconds of the critical path charged to it."""
    out: Dict[int, float] = {}
    for s in segments:
        if s.node is not None:
            out[s.node] = out.get(s.node, 0.0) + (s.end - s.start)
    return out


def device_blame(attr: Mapping[str, float],
                 meta: Optional[Mapping[str, Any]] = None
                 ) -> Dict[str, float]:
    """Map category seconds onto the devices that served them."""
    meta = meta or {}
    store_dev = str(meta.get("shuffle_store", "store"))
    fetch_dev = store_dev if store_dev == "lustre" else "fabric"
    spill_dev = str(meta.get("spill_store", "ssd"))
    out: Dict[str, float] = {}

    def add(dev: str, secs: float) -> None:
        if secs > _EPS:
            out[dev] = out.get(dev, 0.0) + secs

    add("cpu", attr.get("compute", 0.0) + attr.get("combine", 0.0))
    add(store_dev, attr.get("store", 0.0))
    add(fetch_dev, attr.get("fetch", 0.0))
    add(spill_dev, attr.get("spill", 0.0))
    return out


def bottleneck(segments: List[Segment],
               meta: Optional[Mapping[str, Any]] = None
               ) -> Tuple[Optional[int], float, Optional[str], float]:
    """(node, node_seconds, device, device_seconds) carrying the most
    critical-path time."""
    nodes = node_blame(segments)
    devs = device_blame(attribution(segments), meta)
    node, node_s = (max(nodes.items(), key=lambda kv: (kv[1], -kv[0]))
                    if nodes else (None, 0.0))
    dev, dev_s = (max(devs.items(), key=lambda kv: (kv[1], kv[0]))
                  if devs else (None, 0.0))
    return node, node_s, dev, dev_s


# -- chain construction ---------------------------------------------------

def _chain(rec: SpanRecorder, a: float, b: float,
           phase) -> List[Segment]:
    atts = rec.attempts_between(a, b)
    if phase is not None:
        cat = PHASE_CATEGORY.get(base_phase(phase.name), "compute")
        label = phase.name
    elif atts:
        # Attempts outside any phase window: lineage re-execution.
        cat = "recovery"
        label = "recovery"
    else:
        return [Segment(a, b, _gap_category(rec, b), None, "idle")]

    def clamp_end(s) -> float:
        return min(s.end, b)

    segs: List[Segment] = []
    used = set()
    cur = max(atts, key=lambda s: (clamp_end(s), s.start, s.span_id))
    cursor = b
    last_end = clamp_end(cur)
    if last_end < cursor - _EPS:
        segs.append(Segment(last_end, cursor, _gap_category(rec, cursor),
                            None, f"{label} barrier"))
        cursor = last_end
    while True:
        used.add(cur.span_id)
        start_c = max(cur.start, a)
        if cursor - start_c > _EPS:
            segs.extend(_work_segments(cur, start_c, cursor, cat))
        cursor = min(cursor, start_c)
        if cursor <= a + _EPS:
            break
        cands = [s for s in atts if s.span_id not in used
                 and clamp_end(s) <= cursor + _EPS]
        if not cands:
            segs.append(_wait_segment(rec, a, cursor, cur))
            break
        best_end = max(clamp_end(s) for s in cands)
        top = [s for s in cands if clamp_end(s) >= best_end - _EPS]
        same = [s for s in top if s.node == cur.node]
        pool = same if same else top
        pred = max(pool, key=lambda s: (s.start, s.span_id))
        pe = clamp_end(pred)
        if pe < cursor - _EPS:
            segs.append(_wait_segment(rec, pe, cursor, cur))
            cursor = pe
        cur = pred
    return segs


def _work_segments(cur, s: float, e: float, cat: str) -> List[Segment]:
    out: List[Segment] = []
    detail = cur.name + (" (spec)" if cur.attrs.get("speculative") else "")
    spill_s = cur.attrs.get("spill_elapsed", 0.0)
    if spill_s > _EPS and abs(e - cur.end) <= _EPS:
        cut = max(s, e - spill_s)
        if e - cut > _EPS:
            out.append(Segment(cut, e, "spill", cur.node,
                               detail + " spill"))
        e = cut
    if e - s > _EPS:
        out.append(Segment(s, e, cat, cur.node, detail))
    return out


def _wait_segment(rec: SpanRecorder, w0: float, w1: float,
                  cur) -> Segment:
    """Idle window before ``cur`` launched: blame the proximate recorded
    decision on its node, else queueing.

    The last wait decision on ``cur``'s node inside ``[w0 - eps, w1 +
    eps]`` wins; at equal times the larger category string does."""
    wcat = rec.last_wait(cur.node, w0 - _EPS, w1 + _EPS)
    return Segment(w0, w1, wcat or "queueing", cur.node,
                   f"wait {cur.name}")


def _gap_category(rec: SpanRecorder, upto: float) -> str:
    """Idle window with no attempts at all: recovery barrier if a fault
    already happened, else queueing."""
    if bisect_right(rec.fault_times, upto + _EPS):
        return "recovery"
    return "queueing"


# -- rendering ------------------------------------------------------------

def explain_lines(rec: SpanRecorder,
                  meta: Optional[Mapping[str, Any]] = None,
                  max_segments: int = 40) -> List[str]:
    """Deterministic text rendering of the critical path and the
    attribution / blame tables (no trailing whitespace, fixed widths)."""
    job = rec.job
    segs = critical_path(rec)
    attr = attribution(segs)
    total = (job.end - job.start) if job and job.end is not None else 0.0
    lines = [
        f"run: {job.name if job else '?'}  wall-clock {total:.3f}s  "
        f"({len(rec.phases)} phases, {len(rec.attempts)} attempts)",
        f"critical path ({len(segs)} segments):",
    ]
    shown = segs[:max_segments]
    for s in shown:
        node = f"node {s.node}" if s.node is not None else "-"
        lines.append(f"  {s.start:9.3f} -> {s.end:9.3f}  "
                     f"{s.category:<18s} {node:<8s} {s.detail}")
    if len(segs) > len(shown):
        lines.append(f"  ... ({len(segs) - len(shown)} more segments)")
    lines.append("time attribution:")
    for cat in CATEGORIES:
        secs = attr.get(cat, 0.0)
        share = (100.0 * secs / total) if total > 0 else 0.0
        lines.append(f"  {cat:<18s} {secs:10.3f}s  {share:5.1f}%")
    acc = sum(attr.values())
    lines.append(f"  {'total':<18s} {acc:10.3f}s  "
                 f"{(100.0 * acc / total) if total > 0 else 0.0:5.1f}%")
    node, node_s, dev, dev_s = bottleneck(segs, meta)
    if node is not None:
        share = (100.0 * node_s / total) if total > 0 else 0.0
        lines.append(f"bottleneck node: node {node} carries "
                     f"{node_s:.3f}s ({share:.1f}%) of the critical path")
    if dev is not None:
        share = (100.0 * dev_s / total) if total > 0 else 0.0
        lines.append(f"bottleneck device: {dev} serves "
                     f"{dev_s:.3f}s ({share:.1f}%)")
    return lines
