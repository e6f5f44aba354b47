"""Congestion-Aware task Dispatching (CAD) — paper §VI-B.

CAD is a feedback controller that mitigates SSD write interference during
the intermediate-data storing phase.  Spark launches ShuffleMapTasks as
fast as slots free up, oblivious to the device: once the SSD's clean
blocks are depleted and garbage collection starts, piling more concurrent
writers onto the device makes *aggregate* throughput collapse (Fig 8(d)).

Mechanism (paper's constants):

* watch the execution times of completed ShuffleMapTasks;
* when the running average jumps by 2×, add 50 ms to a delay interval
  inserted before each dispatch on a node;
* when the average drops by half, remove 50 ms again.

The delay gives outstanding device operations time to complete and lets
small writes coalesce, trading launch latency for device efficiency —
the paper measures a 41.2 % faster storing phase at 700 GB–1.5 TB.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional

from repro.core.scheduler import AdmissionGate
from repro.obs.registry import NULL_REGISTRY
from repro.sim import simtime

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.task import SimTask
    from repro.obs.registry import MetricsRegistry
    from repro.sim.core import Simulator

__all__ = ["CongestionAwareDispatcher"]


class CongestionAwareDispatcher(AdmissionGate):
    """Adaptive per-node dispatch throttle for storing-phase tasks.

    An admission gate of the stage runner: a decline is traced as
    ``throttle``, and a completion that moves the delay as ``cad-step``.
    """

    kind = "throttle"
    counter = "sched.throttle_declines"

    def __init__(self, step: float = 0.05, trigger_ratio: float = 2.0,
                 relax_ratio: float = 0.5, window: int = 25,
                 max_delay: float = 10.0,
                 target_concurrency: int = 4,
                 max_spacing: float = 0.25,
                 metrics: Optional["MetricsRegistry"] = None) -> None:
        if step <= 0:
            raise ValueError("step must be positive")
        if trigger_ratio <= 1.0:
            raise ValueError("trigger_ratio must exceed 1.0")
        if not 0 < relax_ratio < 1.0:
            raise ValueError("relax_ratio must be in (0, 1)")
        if window < 1:
            raise ValueError("window must be >= 1")
        if target_concurrency < 1:
            raise ValueError("target_concurrency must be >= 1")
        self.step = step
        self.trigger_ratio = trigger_ratio
        self.relax_ratio = relax_ratio
        self.window = window
        self.max_delay = max_delay
        self.target_concurrency = target_concurrency
        self.max_spacing = max_spacing
        self.delay = 0.0
        self._window_avg: Optional[float] = None
        self._recent: Deque[float] = deque(maxlen=window)
        #: Uncongested reference: the average of the first full window.
        self._baseline: Optional[float] = None
        #: Average at the moment of the last increase (the "high" the
        #: relax rule compares against).
        self._last_high: Optional[float] = None
        self._next_allowed: Dict[int, float] = {}
        self._in_flight: Dict[int, int] = {}
        self._sim: Optional["Simulator"] = None
        # Statistics, mirrored into the registry so `repro report` sees
        # them (a disabled registry hands back the shared no-op).
        self.increases = 0
        self.decreases = 0
        reg = metrics if metrics is not None else NULL_REGISTRY
        self._m_increases = reg.counter("cad.delay_increases_total")
        self._m_decreases = reg.counter("cad.delay_decreases_total")

    def attach(self, sim: "Simulator", wake: Callable[[], None]) -> None:
        self._sim = sim

    # -- dispatch gating ------------------------------------------------------
    def check(self, node: int, now: float) -> Optional[float]:
        """May ``node`` dispatch another storing task right now?

        Two gates once congestion is detected: dispatches are spaced by
        the accumulated delay interval (the paper's mechanism), and the
        node's in-flight storing tasks are held at ``target_concurrency``
        so outstanding device operations can complete — queue depths at
        or below the device's efficient range stop the interference
        feedback loop of Fig 8(d).  A pacing block wakes at its strictly
        future release time (the same ``reached`` test the runner's
        retry arming uses); a concurrency block waits for an exit.
        """
        t = self._next_allowed.get(node, 0.0)
        if not simtime.reached(now, t):
            return t
        if self.delay > 0 and \
                self._in_flight.get(node, 0) >= self.target_concurrency:
            return inf
        return None

    def why(self, node: int, now: float) -> Dict[str, object]:
        t = self._next_allowed.get(node, 0.0)
        info: Dict[str, object]
        if simtime.reached(now, t):
            info = {"reason": "concurrency"}
        else:
            info = {"reason": "pacing", "retry_at": t}
        info.update(delay=self.delay, in_flight=self._in_flight.get(node, 0),
                    target=self.target_concurrency,
                    window_avg=self._window_avg, baseline=self._baseline)
        return info

    def on_launch(self, task: "SimTask", node: int, now: float) -> None:
        self._in_flight[node] = self._in_flight.get(node, 0) + 1
        if self.delay > 0:
            # The pacing component is bounded: the in-flight cap carries
            # the heavy lifting, the interval just staggers launches so
            # freed slots do not refill in one burst.
            self._next_allowed[node] = now + min(self.delay,
                                                 self.max_spacing)

    # -- feedback -----------------------------------------------------------------
    def on_exit(self, task: "SimTask", node: int,
                duration: Optional[float]) -> None:
        """An attempt on ``node`` ended: release its in-flight count and
        feed a completed ShuffleMapTask's execution time.

        An attempt that ended without completing (``duration`` is
        ``None``: a failure, a speculation loser, a crash victim) only
        releases its count; otherwise a node blocked on the concurrency
        cap would wait forever for a completion that can no longer
        arrive.  While the running average sits above ``trigger_ratio``
        × the uncongested baseline, every completion adds another
        ``step`` to the dispatch interval — the controller keeps backing
        off until the congestion signal clears (or ``max_delay`` is
        hit).  When the average falls to ``relax_ratio`` of the level
        that caused the last increase, the interval is stepped back down.
        """
        if self._in_flight.get(node, 0) > 0:
            self._in_flight[node] -= 1
        if duration is None:
            return
        self._recent.append(duration)
        if len(self._recent) < self.window:
            return
        avg = sum(self._recent) / len(self._recent)
        self._window_avg = avg
        if self._baseline is None:
            self._baseline = avg
            return
        prev = self.delay
        if avg >= self.trigger_ratio * self._baseline:
            self.delay = min(self.max_delay, self.delay + self.step)
            self._last_high = avg
            self.increases += 1
            self._m_increases.inc()
        elif (self.delay > 0 and self._last_high is not None
              and avg <= self.relax_ratio * self._last_high):
            self.delay = max(0.0, self.delay - self.step)
            self._last_high = max(self._baseline, avg / self.relax_ratio)
            self.decreases += 1
            self._m_decreases.inc()
        if self._sim._tracing and self.delay != prev:
            # The feedback step, with the state that justified it.
            self._sim.trace(
                "cad-step", node=node,
                step="increase" if self.delay > prev else "decrease",
                prev=prev, delay=self.delay, window_avg=avg,
                baseline=self._baseline, trigger_ratio=self.trigger_ratio)
