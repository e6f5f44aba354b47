"""The stage runner: offer-based task scheduling over simulated nodes.

One :class:`StageRunner` executes one stage (a set of tasks) to
completion.  Slots (one per core) are offered to the policy whenever they
free; the policy picks a task or declines (delay scheduling / ELB veto),
in which case the runner re-offers when the policy's retry time arrives
or when cluster state changes.  Offers sweep free nodes round-robin, one
task per node per pass, so initial assignment is even — the behaviour
ELB's description assumes.

Fault tolerance follows Spark semantics: a failed task attempt is
re-queued (up to ``max_attempt_failures`` times); with speculation
enabled, straggling attempts get one backup copy and the first finisher
wins while the loser is abandoned.  An attempt is an :class:`Attempt`
record plus one process, the task's body, whose exit books it out; an
abandoned attempt is booked out at once and its body, if started, runs
on with its exit ignored (DESIGN.md §8, "Attempt lifecycle").

Admission gates sit between a free slot and the policy: CAD and the
memory gate answer one :class:`AdmissionGate` protocol (DESIGN.md §7),
and every decline, a gate's or the policy's, is counted and traced
through one path.

With a :class:`~repro.core.faults.NodeLiveness` attached, the runner
also survives whole-node faults (DESIGN.md §9): dead nodes are never
offered, a crash abandons the node's in-flight attempts (through the
same gate ``on_exit`` path as speculation losers) and purges queued
tasks pinned to it (their input died with the node — the engine recovers
them through lineage), and a restart re-offers, closing the lost-wakeup
class PR 1 fixed for timers.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import partial
from math import inf
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, \
    Set, Tuple

from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.sim import simtime
from repro.sim.events import URGENT, Event
from repro.sim.process import Process
from repro.core.metrics import FailureRecord, TaskRecord
from repro.core.policies import SchedulingPolicy
from repro.core.speculation import SpeculativeExecution, TaskAttemptFailure
from repro.core.task import SimTask, TaskQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.faults import NodeLiveness
    from repro.sim.core import Simulator

__all__ = ["AdmissionGate", "Attempt", "StageRunner", "StageFailed"]


class StageFailed(Exception):
    """A task exhausted its attempt budget."""


class AdmissionGate:
    """An offer-time admission gate: CAD, the memory gate (DESIGN.md §7).

    ``check`` returns ``None`` to admit ``node`` or the gate's wake: a
    strictly future time, or ``inf`` when only an exit on the node or a
    call of the ``wake`` handed to :meth:`attach` can lift the block.
    The runner counts each decline under ``counter`` and traces it as
    ``kind`` with ``node`` first and :meth:`why`'s pure-read payload
    after.  ``duration`` is ``None`` for a failed or abandoned attempt.
    """

    kind = ""
    counter = ""

    def attach(self, sim: "Simulator", wake: Callable[[], None]) -> None:
        pass

    def detach(self) -> None:
        pass

    def check(self, node: int, now: float) -> Optional[float]:
        raise NotImplementedError

    def why(self, node: int, now: float) -> Dict[str, object]:
        raise NotImplementedError

    def on_launch(self, task: SimTask, node: int, now: float) -> None:
        pass

    def on_release(self, task: SimTask, node: int) -> None:
        pass

    def on_exit(self, task: SimTask, node: int,
                duration: Optional[float]) -> None:
        pass

    def wake_pending(self) -> bool:
        return False

    def diagnostics(self) -> Dict[str, object]:
        return {}


class _PolicyDecline:
    """The policy's own decline, counted and traced like a gate's."""

    kind = "decline"

    def __init__(self, policy: SchedulingPolicy, queue: TaskQueue) -> None:
        self.policy = policy
        self.queue = queue

    def why(self, node: int, now: float) -> Dict[str, object]:
        return self.policy.decline_info(node, self.queue, now)


@dataclass(eq=False)
class Attempt:
    """One launched attempt of a task, until it is booked out."""

    task: SimTask
    node: int
    started: float
    speculative: bool
    abandoned: bool = False


class StageRunner:
    """Runs one stage's tasks across the cluster under a policy.

    ``gates`` are checked per free node in order (the engine passes CAD,
    then the memory gate) before the policy.  The runner attaches each
    gate, traces its declines as ``throttle``/``mem-decline`` with the
    gate's own payload, and detaches it when the stage ends; CAD traces
    its ``cad-step`` feedback from ``on_exit`` itself.
    """

    def __init__(self, sim: "Simulator", n_nodes: int, cores_per_node: int,
                 tasks: Sequence[SimTask], policy: SchedulingPolicy,
                 gates: Sequence[AdmissionGate] = (),
                 speculation: Optional[SpeculativeExecution] = None,
                 task_overhead: float = 0.0,
                 max_attempt_failures: int = 3,
                 on_complete: Optional[Callable[[SimTask, int, TaskRecord],
                                                None]] = None,
                 liveness: Optional["NodeLiveness"] = None,
                 failure_log: Optional[List[FailureRecord]] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 slots: Optional[Sequence[int]] = None,
                 slot_listener: Optional[Callable[[int], None]] = None
                 ) -> None:
        self.sim = sim
        self.n_nodes = n_nodes
        self.policy = policy
        self.liveness = liveness
        self.failure_log = failure_log
        #: Pinned tasks abandoned because their node died with their data.
        self.tasks_lost: List[SimTask] = []
        #: Fault-killed attempts re-queued without burning a failure.
        self.crash_requeues = 0
        self.speculation = speculation
        if speculation is not None:
            speculation.total_tasks = len(tasks)
        self.task_overhead = task_overhead
        self.max_attempt_failures = max_attempt_failures
        self.on_complete = on_complete
        self.queue = TaskQueue(tasks)
        for t in tasks:
            t.queued_at = sim.now
        # Slot capacity: by default every core of every node belongs to
        # this stage (the single-job engine).  Under the multi-job serve
        # layer the stage starts with its job's *leased* entitlement and
        # capacity arrives/leaves mid-stage via add/remove_capacity.
        if slots is None:
            self.free_slots = [cores_per_node] * n_nodes
        else:
            if len(slots) != n_nodes:
                raise ValueError(
                    f"slots has {len(slots)} entries for {n_nodes} nodes")
            self.free_slots = [int(s) for s in slots]
        #: Scheduler frontier (DESIGN.md §12): the ascending-sorted list
        #: of nodes with at least one free slot, maintained at the four
        #: slot-mutation sites on 0↔positive transitions.  The optimized
        #: :meth:`_free_nodes` reads it instead of scanning all
        #: ``n_nodes`` — on a mostly-busy (or mostly-irrelevant) large
        #: cluster the offer sweep then costs O(frontier), and a node
        #: with no free capacity costs nothing at all.
        self._frontier: List[int] = [n for n in range(n_nodes)
                                     if self.free_slots[n] > 0]
        #: Called with a node id whenever a *revoked* slot physically
        #: frees (its running task exited after remove_capacity had
        #: already reduced the entitlement) — the serve layer's hook for
        #: returning the core to the shared pool.
        self.slot_listener = slot_listener
        self._owed_slots: Dict[int, int] = {}
        self.records: List[TaskRecord] = []
        self._remaining = len(tasks)
        self._finished: Set[int] = set()
        self._failures: Dict[int, int] = {}
        #: task_id -> its attempts not yet booked out, in launch order.
        self._attempts: Dict[int, List[Attempt]] = {}
        self.done = Event(sim, name="stage-done")
        # Instrumentation (pure recording; a disabled registry hands back
        # no-op instruments, so there are no ``if metrics`` hot-path
        # branches and nothing to allocate per event).
        metrics = metrics if metrics is not None else NULL_REGISTRY
        labels = {"phase": tasks[0].phase if tasks else "empty"}
        self._m_launches = metrics.counter("sched.launches", labels)
        self._m_spec = metrics.counter("sched.speculative_launches", labels)
        self._m_completions = metrics.counter("sched.completions", labels)
        self._m_failures = metrics.counter("sched.attempt_failures", labels)
        self._m_requeues = metrics.counter("sched.crash_requeues", labels)
        self._m_duration = metrics.histogram("sched.task_duration_s", labels)
        # Decision counters (audit visibility: every declined offer by
        # gate — CAD throttle, memory gate, policy/ELB decline), created
        # for every stage, gated or not.
        for name in ("sched.throttle_declines", "sched.mem_declines"):
            metrics.counter(name, labels)
        self._policy_decline = (_PolicyDecline(policy, self.queue),
                                metrics.counter("sched.policy_declines",
                                                labels))
        #: (gate, its decline counter) in check order: CAD, then memory.
        self._gates = tuple((gate, metrics.counter(gate.counter, labels))
                            for gate in gates)
        for gate in gates:
            gate.attach(sim, self._offer)
        self._retry_token = 0
        self._retry_deadline: Optional[float] = None
        self._spec_token = 0
        sim.add_diagnostic(self.diagnostic_snapshot)
        # Deregister at stage end (success or failure): on a long-lived
        # simulator the diagnostic list must not grow per stage forever.
        self.done.add_callback(self._on_done)
        if self._remaining == 0:
            self.done.succeed(self.records)

    def _on_done(self, _ev: Event) -> None:
        self.sim.remove_diagnostic(self.diagnostic_snapshot)
        for gate, _ in self._gates:
            gate.detach()

    # -- public -----------------------------------------------------------------
    def run(self) -> Event:
        """Start offering; returns the stage-completion event."""
        if self._remaining > 0:
            self._offer()
        return self.done

    # -- dynamic capacity (slot leasing) ----------------------------------------
    def add_capacity(self, node: int, k: int = 1) -> None:
        """Grant ``k`` more slots on ``node`` (executor handoff arrived)."""
        if k <= 0:
            return
        owed = self._owed_slots.get(node, 0)
        if owed > 0:
            # New capacity first pays down revocation debt: a granted
            # core and an owed core cancel out without waiting for the
            # running task to exit.
            pay = min(owed, k)
            self._owed_slots[node] = owed - pay
            k -= pay
            if self.slot_listener is not None:
                for _ in range(pay):
                    self.slot_listener(node)
        if k > 0:
            if self.free_slots[node] == 0:
                insort(self._frontier, node)
            self.free_slots[node] += k
            if not self.done.triggered:
                self._offer()

    def remove_capacity(self, node: int, k: int = 1) -> int:
        """Revoke up to ``k`` slots on ``node``.

        Idle slots are reclaimed immediately (the return value); the
        remainder is *owed* — each running task that exits on ``node``
        repays one owed slot (reported through ``slot_listener``) instead
        of re-entering this stage's free pool.
        """
        if k <= 0:
            return 0
        reclaimed = min(self.free_slots[node], k)
        self.free_slots[node] -= reclaimed
        if reclaimed > 0 and self.free_slots[node] == 0:
            self._frontier.remove(node)
        if k > reclaimed:
            self._owed_slots[node] = \
                self._owed_slots.get(node, 0) + (k - reclaimed)
        return reclaimed

    def _release_slot(self, node: int) -> None:
        """A task exited on ``node``: repay revocation debt first."""
        if self._owed_slots.get(node, 0) > 0:
            self._owed_slots[node] -= 1
            if self.slot_listener is not None:
                self.slot_listener(node)
        else:
            if self.free_slots[node] == 0:
                insort(self._frontier, node)
            self.free_slots[node] += 1

    # -- liveness ---------------------------------------------------------------
    def _alive(self, node: int) -> bool:
        return self.liveness is None or self.liveness.alive(node)

    def _free_nodes(self) -> List[int]:
        """Nodes with a free slot, excluding dead ones.

        Reads the maintained frontier, the ascending list of nodes with
        free capacity, and consults the liveness mask only when some
        node is actually dead.  Always returns a fresh list — callers
        (and policies) may reorder it freely.
        """
        live = self.liveness
        if live is not None and live.n_dead > 0:
            mask = live.mask
            return [n for n in self._frontier if mask[n]]
        return list(self._frontier)

    def on_node_crash(self, node: int) -> None:
        """The node died: abandon its in-flight attempts and purge queued
        tasks pinned to it — their input data no longer exists, so
        re-queueing would deadlock; the engine recovers them via lineage."""
        if self.done.triggered:
            return
        self._abandon_node(node, "node-crash")
        while True:
            task = self.queue.pop_pinned(node)
            if task is None:
                break
            self._lose_task(task)
        self._offer()

    def on_executor_loss(self, node: int) -> None:
        """The executor died but the node (and its data) survives: every
        in-flight attempt there is abandoned and re-queued."""
        if self.done.triggered:
            return
        self._abandon_node(node, "executor-loss")
        self._offer()

    def _abandon_node(self, node: int, cause: str) -> None:
        for attempts in self._attempts.values():
            for attempt in attempts:
                if attempt.node == node:
                    self.abandon(attempt, cause)

    def on_node_restart(self, node: int) -> None:
        """A restarted node is fresh capacity: re-offer, or its slots
        would sit idle until some unrelated event happened to sweep."""
        if not self.done.triggered:
            self._offer()

    def _lose_task(self, task: SimTask) -> None:
        self.tasks_lost.append(task)
        if self.sim._tracing:
            self.sim.trace("task-lost", task=task.task_id, node=task.pinned)
        self._remaining -= 1
        if self._remaining == 0 and not self.done.triggered:
            self.done.succeed(self.records)

    def _recover_attempt(self, task: SimTask, cause: str) -> None:
        """Re-queue an attempt killed by a fault — or declare the task
        lost when it is pinned to a node that died with its input."""
        if task.task_id in self._finished or self._attempts.get(task.task_id):
            return  # a twin attempt survives elsewhere
        if task.pinned is not None and not self._alive(task.pinned):
            self._lose_task(task)
            return
        self.crash_requeues += 1
        self._m_requeues.inc()
        task.taken = False
        task.queued_at = self.sim.now
        self.queue.push(task)

    # -- offer loop -------------------------------------------------------------
    def _offer(self) -> None:
        """Sweep free nodes, one launch per node per pass, until no
        assignment is possible; then arm a retry timer if needed."""
        if self.done.triggered:
            return
        now = self.sim.now
        if self.sim._tracing:
            self.sim.trace("offer", free_slots=list(self.free_slots),
                           pending=len(self.queue))
        gates = self._gates
        while len(self.queue) > 0:
            free = self._free_nodes()
            if not free:
                return
            order = self.policy.node_order(free)
            launched_any = False
            gate_retry = inf
            for node in order:
                if len(self.queue) == 0:
                    # Nothing left to place: the remaining nodes in this
                    # pass could only ever continue (no trace, no state
                    # change), so stop sweeping them.  On a huge, mostly
                    # free cluster this is the difference between an
                    # O(queue) and an O(nodes) pass.
                    break
                if self.free_slots[node] <= 0:
                    continue
                # The first decline ends the node's turn: gates in order,
                # then the policy, whose own retry time comes from
                # next_retry below.
                for gate, declines in gates:
                    wake = gate.check(node, now)
                    if wake is not None:
                        break
                else:
                    task = self.policy.select(node, self.queue, now)
                    if task is not None:
                        self._launch(task, node)
                        launched_any = True
                        continue
                    gate, declines = self._policy_decline
                    wake = inf
                declines.inc()
                if self.sim._tracing:
                    # why() is a pure read re-deriving the decision's
                    # justifying state (reason + numbers) for the audit.
                    self.sim.trace(gate.kind, node=node,
                                   **gate.why(node, now))
                if wake < gate_retry:
                    gate_retry = wake
            if not launched_any:
                retry = self.policy.next_retry(self.queue, now)
                if retry is None or gate_retry < retry:
                    retry = gate_retry
                if now < retry < inf:
                    self._arm_retry(retry)
                break
        self._maybe_speculate()

    def _arm_retry(self, when: float) -> None:
        self._retry_token += 1
        token = self._retry_token
        self._retry_deadline = when
        if self.sim._tracing:
            self.sim.trace("retry-armed", at=when, token=token)
        self.sim.schedule_callback(simtime.delay_until(self.sim.now, when),
                                   self._on_retry, token)

    def _on_retry(self, token: int) -> None:
        stale = token != self._retry_token
        if self.sim._tracing:
            self.sim.trace("retry-fired", token=token, stale=stale)
        if not stale:
            self._retry_deadline = None
            self._offer()

    # -- speculation -------------------------------------------------------------
    def _maybe_speculate(self) -> None:
        spec = self.speculation
        if spec is None or len(self.queue) > 0 or not spec.active():
            return
        now = self.sim.now
        while True:
            # Backup copies obey the gates like any launch.
            free = [n for n in self._free_nodes()
                    if all(gate.check(n, now) is None
                           for gate, _ in self._gates)]
            if not free:
                break
            straggler = self._pick_straggler(now)
            if straggler is None:
                break
            task, _ = straggler
            # LATE places the backup away from the straggling attempt's
            # node — that node is the presumed cause of the slowness.
            busy_node = self._attempts[task.task_id][0].node
            others = [n for n in free if n != busy_node]
            node = others[0] if others else free[0]
            spec.copies_launched += 1
            self._launch(task, node, speculative=True)
        self._arm_speculation_check()

    def _arm_speculation_check(self) -> None:
        """Re-check when the earliest running attempt would cross the
        straggler threshold (completions alone won't wake us up)."""
        spec = self.speculation
        threshold = spec.threshold() if spec is not None else None
        if threshold is None:
            return
        if not self._free_nodes():
            return
        now = self.sim.now
        horizon = None
        for task_id, attempts in self._attempts.items():
            if task_id in self._finished or len(attempts) != 1:
                continue
            if attempts[0].task.pinned is not None:
                continue
            crossing = attempts[0].started + threshold
            if not simtime.reached(now, crossing) and \
                    (horizon is None or crossing < horizon):
                horizon = crossing
        if horizon is not None:
            self._spec_token += 1
            token = self._spec_token
            if self.sim._tracing:
                self.sim.trace("spec-armed", at=horizon, token=token)
            self.sim.schedule_callback(
                simtime.delay_until(now, simtime.next_after(now, horizon)),
                self._on_spec_check, token)

    def _on_spec_check(self, token: int) -> None:
        if token == self._spec_token and \
                not self.done.triggered:
            self._maybe_speculate()

    def _pick_straggler(self, now: float) -> Optional[Tuple[SimTask, float]]:
        spec = self.speculation
        assert spec is not None
        best: Optional[Tuple[SimTask, float]] = None
        for task_id, attempts in self._attempts.items():
            if task_id in self._finished or len(attempts) != 1:
                continue
            task, started = attempts[0].task, attempts[0].started
            if task.pinned is not None:
                continue  # a pinned task's data exists only on its node
            elapsed = now - started
            if spec.is_straggler(elapsed):
                if best is None or elapsed > best[1]:
                    best = (task, elapsed)
        return best

    # -- attempt lifecycle ------------------------------------------------------
    def _launch(self, task: SimTask, node: int,
                speculative: bool = False) -> None:
        self.free_slots[node] -= 1
        if self.free_slots[node] == 0:
            self._frontier.remove(node)
        self._m_launches.inc()
        if speculative:
            self._m_spec.inc()
        for gate, _ in self._gates:
            gate.on_launch(task, node, self.sim.now)
        if self.sim._tracing:
            self.sim.trace("launch", task=task.task_id, node=node,
                           speculative=speculative, phase=task.phase,
                           queued=task.queued_at)
        attempt = Attempt(task, node, self.sim.now, speculative)
        self._attempts.setdefault(task.task_id, []).append(attempt)
        self.sim.schedule_now(self._begin, (attempt,), URGENT)

    def _begin(self, attempt: Attempt) -> None:
        """The attempt's start entry: sit out the launch overhead."""
        if self.task_overhead > 0:
            self.sim.schedule_callback(self.task_overhead, self._start_body,
                                       attempt)
        else:
            self.sim.schedule_now(self._start_body, (attempt,), URGENT)

    def _start_body(self, attempt: Attempt) -> None:
        """Run the task's body, inline, as the attempt's one process."""
        if attempt.abandoned:
            return
        task = attempt.task
        body = Process(self.sim, self._body(task, attempt.node),
                       name=f"task:{task.phase}#{task.task_id}")
        body.add_callback(partial(self._on_exit, attempt))
        body.start()

    @staticmethod
    def _body(task: SimTask, node: int):
        """The task's body, with an attempt failure as its result."""
        try:
            yield from task.body(node)
        except TaskAttemptFailure as failure:
            return failure

    def abandon(self, attempt: Attempt, cause: str) -> None:
        """Give ``attempt`` up and book it out from one URGENT entry now;
        a started body runs on, I/O and all, with its exit ignored."""
        if not attempt.abandoned:
            attempt.abandoned = True
            self.sim.schedule_now(self._on_abandoned, (attempt, cause),
                                  URGENT)

    def _on_abandoned(self, attempt: Attempt, cause: str) -> None:
        task, node = attempt.task, attempt.node
        self._book_out(attempt)
        # The attempt never completes: tell the gates now, or a node
        # blocked on CAD's concurrency cap would wait forever for a
        # completion that cannot come.
        self._exit_gates(task, node, None)
        if self.sim._tracing:
            self.sim.trace("interrupt", task=task.task_id, node=node,
                           cause=cause)
        if cause in ("node-crash", "executor-loss"):
            self._recover_attempt(task, cause)
        self._offer()

    def _book_out(self, attempt: Attempt) -> None:
        """Return the attempt's heap and slot and drop it from the table."""
        task, node = attempt.task, attempt.node
        for gate, _ in self._gates:
            gate.on_release(task, node)
        self._release_slot(node)
        attempts = self._attempts[task.task_id]
        attempts.remove(attempt)
        if not attempts:
            del self._attempts[task.task_id]

    def _on_exit(self, attempt: Attempt, body: Process) -> None:
        """The body ended: book the attempt's completion or failure.

        An abandoned attempt is booked out already.  A body that raised
        anything but an attempt failure is left failed: the run raises.
        """
        if attempt.abandoned or not body.ok:
            return
        task, node = attempt.task, attempt.node
        self._book_out(attempt)
        if isinstance(body.value, TaskAttemptFailure):
            self._exit_gates(task, node, None)
            self._handle_failure(task, node)
            self._offer()
            return
        if task.task_id in self._finished:
            # A twin won while this attempt, re-queued after a failure,
            # was still running; drop the result.
            self._offer()
            return

        started, finished = attempt.started, self.sim.now
        self._finished.add(task.task_id)
        if self.sim._tracing:
            self.sim.trace("complete", task=task.task_id, node=node,
                           speculative=attempt.speculative)
        record = TaskRecord(task_id=task.task_id, phase=task.phase,
                            node=node, queued_at=task.queued_at,
                            started_at=started, finished_at=finished,
                            bytes=task.bytes, local=task.local)
        self.records.append(record)
        duration = finished - started
        self._m_completions.inc()
        self._m_duration.observe(duration)
        self.policy.on_complete(task, node, duration)
        self._exit_gates(task, node, duration)
        if self.speculation is not None:
            self.speculation.on_complete(duration)
            if attempt.speculative:
                # Only a finish *by the backup copy* is a win for
                # speculation; the original attempt winning the race
                # (with its twin still alive) is not.
                self.speculation.copies_won += 1
            for twin in self._attempts.get(task.task_id, ()):
                self.abandon(twin, "speculative twin finished")
        if self.on_complete is not None:
            self.on_complete(task, node, record)
        self._remaining -= 1
        if self._remaining == 0:
            self.done.succeed(self.records)
        else:
            self._offer()

    def _exit_gates(self, task: SimTask, node: int,
                    duration: Optional[float]) -> None:
        for gate, _ in self._gates:
            gate.on_exit(task, node, duration)

    def _handle_failure(self, task: SimTask, node: int) -> None:
        count = self._failures.get(task.task_id, 0) + 1
        self._failures[task.task_id] = count
        self._m_failures.inc()
        if self.sim._tracing:
            self.sim.trace("failure", task=task.task_id, node=node,
                           count=count)
        if self.failure_log is not None:
            self.failure_log.append(FailureRecord(
                phase=task.phase, task_id=task.task_id, attempt=count,
                node=node, at=self.sim.now))
        if count > self.max_attempt_failures:
            if not self.done.triggered:
                self.done.fail(StageFailed(
                    f"task {task.phase}#{task.task_id} failed "
                    f"{count} times"))
            return
        # Re-queue for another attempt, Spark-style.
        task.taken = False
        task.queued_at = self.sim.now
        self.queue.push(task)

    @property
    def attempt_failures(self) -> int:
        return sum(self._failures.values())

    # -- forensics & invariants ---------------------------------------------------
    def diagnostic_snapshot(self) -> Dict[str, object]:
        """State summary for :class:`~repro.sim.core.SimulationDeadlock`."""
        running = {tid: [a.node for a in attempts]
                   for tid, attempts in self._attempts.items()}
        snap: Dict[str, object] = {
            "stage": "done" if self.done.triggered else "running",
            "pending_tasks": [t.task_id for t in self.queue.pending()],
            "free_slots": list(self.free_slots),
            "running_attempts": running,
            "remaining": self._remaining,
            "armed_retry_deadline": self._retry_deadline,
            "armed_retry_token": self._retry_token,
        }
        if self.liveness is not None:
            snap["dead_nodes"] = self.liveness.dead_nodes()
            snap["tasks_lost"] = [t.task_id for t in self.tasks_lost]
        if any(self._owed_slots.values()):
            snap["owed_slots"] = {n: k for n, k in self._owed_slots.items()
                                  if k > 0}
        for gate, _ in self._gates:
            snap.update(gate.diagnostics())
        violation = self.wakeup_invariant_violation()
        if violation is not None:
            snap["invariant_violation"] = violation
        return snap

    def wakeup_invariant_violation(self) -> Optional[str]:
        """Check: *any pending task with a free slot implies an armed
        wakeup or a state-changing event in flight.*

        Returns a description of the violation, or ``None`` when the
        invariant holds.  A violated invariant at a quiescent point (no
        events left in the simulator between offers) is exactly a lost
        wakeup: pending work, capacity to run it, and nothing that will
        ever re-offer.
        """
        if self.done.triggered or len(self.queue) == 0:
            return None
        free = self._free_nodes()
        if not free:
            if self.liveness is not None and not self.liveness.any_alive() \
                    and not self._attempts:
                return ("pending tasks with every node dead and no restart "
                        "scheduled — the cluster cannot finish the stage")
            return None
        if self._attempts:
            return None  # a running attempt's exit always re-offers
        if self._retry_deadline is not None:
            return None  # an armed wakeup timer will re-offer
        if any(gate.wake_pending() for gate, _ in self._gates):
            return None  # e.g. another job's heap release will re-offer
        pending = [t.task_id for t in self.queue.pending()]
        return (f"pending tasks {pending} with free slots on nodes {free} "
                f"but no armed wakeup and no running attempts")
