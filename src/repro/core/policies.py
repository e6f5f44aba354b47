"""Task-assignment policies: locality-aware FIFO and delay scheduling.

The paper evaluates two baseline behaviours (§V-A):

* **Immediate (FIFO with locality preference)** — when a slot frees,
  launch a data-local task if one is pending, otherwise launch the head
  of the queue right away.  This is the natural behaviour on the
  compute-centric Lustre configuration, where "tasks can be immediately
  launched on available compute nodes since there is no locality
  constraint".
* **Delay scheduling** (Zaharia et al., EuroSys'10) — a non-local task
  is held back up to ``locality_wait`` seconds in the hope that a slot
  on one of its preferred nodes frees.  Spark enables this by default;
  the paper shows it degrades Grep by 42.7 % and LR by 9.9 % on the HPC
  data-centric configuration (Fig 9).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.task import SimTask, TaskQueue
from repro.sim import simtime

__all__ = ["SchedulingPolicy", "LocalityFirstPolicy", "DelayScheduling"]


class SchedulingPolicy:
    """Strategy interface consulted by the stage runner."""

    def select(self, node: int, queue: TaskQueue,
               now: float) -> Optional[SimTask]:
        """Pick a task for a free slot on ``node`` (or None to idle)."""
        raise NotImplementedError

    def next_retry(self, queue: TaskQueue, now: float) -> Optional[float]:
        """When to re-offer idle slots despite pending tasks, if ever.

        Contract (the *wakeup protocol*): return either ``None`` —
        meaning any current declines are not time-based, so only a
        cluster-state change (completion, abandonment, failure) can make a
        future offer succeed — or a timestamp **strictly greater than**
        ``now`` at which a declined offer should be repeated.  A policy
        that declines an offer because a deadline computed from the same
        inputs has not been reached MUST use
        :func:`repro.sim.simtime.reached` for that test so the two
        answers cannot disagree under float rounding (the lost-wakeup
        bug).
        """
        return None

    def node_order(self, nodes: Sequence[int]) -> List[int]:
        """Order in which free nodes receive offers.

        ``nodes`` is a fresh list built per offer pass (see
        ``StageRunner._free_nodes``), so the identity ordering returns
        it as-is rather than copying O(n_nodes) per pass.
        """
        return nodes

    def decline_info(self, node: int, queue: TaskQueue,
                     now: float) -> dict:
        """Why :meth:`select` just returned ``None`` for this offer.

        Called by the runner *only under tracing*, immediately after a
        decline, to record the decision's justifying state in the audit
        log (obs/audit.py).  Implementations MUST be pure reads — no
        queue pops, no counter bumps — so that traced and untraced runs
        stay byte-identical.
        """
        return {"reason": "no-task"}

    def on_complete(self, task: SimTask, node: int, duration: float) -> None:
        """Completion notification (for adaptive policies)."""


class LocalityFirstPolicy(SchedulingPolicy):
    """Prefer local tasks, but never hold a slot idle."""

    def select(self, node: int, queue: TaskQueue,
               now: float) -> Optional[SimTask]:
        task = queue.pop_pinned(node)
        if task is None:
            task = queue.pop_local(node)
            if task is not None:
                task.local = True
        if task is None:
            task = queue.pop_any()
            if task is not None:
                task.local = (node in task.preferred) if task.preferred else None
        return task


class DelayScheduling(SchedulingPolicy):
    """Hold non-local tasks back up to ``wait`` seconds for locality.

    Follows Spark's TaskSetManager semantics: the wait clock measures the
    time since the *last local launch anywhere in the stage* (not since
    the task was queued), so as long as some node keeps launching local
    tasks, slots without local work sit idle — which is exactly why the
    paper measures large degradations on short-task jobs (Fig 9).
    """

    def __init__(self, wait: float = 3.0) -> None:
        if wait < 0:
            raise ValueError("wait must be non-negative")
        self.wait = wait
        self.skipped = 0   # statistics: offers declined for locality
        self._last_local_launch: Optional[float] = None

    def _reference(self, queue: TaskQueue) -> Optional[float]:
        head = queue.peek_any()
        if head is None:
            return None
        if self._last_local_launch is None:
            return head.queued_at
        return max(self._last_local_launch, head.queued_at)

    def select(self, node: int, queue: TaskQueue,
               now: float) -> Optional[SimTask]:
        task = queue.pop_pinned(node)
        if task is None:
            task = queue.pop_local(node)
            if task is not None:
                task.local = True
                self._last_local_launch = now
        if task is not None:
            return task
        ref = self._reference(queue)
        if ref is not None and simtime.reached(now, ref + self.wait):
            task = queue.pop_any()
            if task is None:
                # Only pinned-elsewhere tasks remain; nothing to launch
                # here regardless of the wait clock.
                return None
            task.local = (node in task.preferred) if task.preferred else None
            return task
        if ref is not None:
            self.skipped += 1
        return None

    def decline_info(self, node: int, queue: TaskQueue,
                     now: float) -> dict:
        ref = self._reference(queue)
        if ref is None or simtime.reached(now, ref + self.wait):
            # Either the queue holds nothing launchable here, or the
            # wait expired and only pinned-elsewhere tasks remain.
            return {"reason": "no-task"}
        return {"reason": "delay-wait", "wait": self.wait,
                "reference": ref, "deadline": ref + self.wait}

    def next_retry(self, queue: TaskQueue, now: float) -> Optional[float]:
        ref = self._reference(queue)
        if ref is None:
            return None
        deadline = ref + self.wait
        if simtime.reached(now, deadline):
            # The wait has already expired: if an offer was still
            # declined it was not for a time-based reason (e.g. only
            # pinned tasks remain), so no timer can help — state changes
            # re-offer.  ``not reached`` conversely implies
            # ``deadline > now``, so the runner always arms the timer.
            return None
        return deadline
