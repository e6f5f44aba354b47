"""Tests for the stage runner, policies, ELB and CAD."""

import math

import numpy as np
import pytest

from repro.core.cad import CongestionAwareDispatcher
from repro.core.elb import EnhancedLoadBalancer
from repro.core.faults import NodeLiveness
from repro.core.memory import ClusterMemory, MemoryGate
from repro.core.policies import DelayScheduling, LocalityFirstPolicy
from repro.core.scheduler import AdmissionGate, StageRunner
from repro.core.speculation import TaskAttemptFailure
from repro.core.task import SimTask, TaskQueue
from repro.obs.registry import MetricsRegistry
from repro.sim import FluidPipe, Simulator
from repro.sim import process as sim_process


def make_tasks(sim, n, duration=1.0, preferred=None, pinned=None):
    def body_factory(i):
        def factory(node):
            def body(node=node):
                yield sim.timeout(duration)
            return body()
        return factory

    tasks = []
    for i in range(n):
        tasks.append(SimTask(
            task_id=i, phase="compute", body=body_factory(i),
            preferred=(preferred[i] if preferred else ()),
            pinned=(pinned[i] if pinned else None)))
    return tasks


class TestTaskQueue:
    def test_pop_any_fifo(self):
        sim = Simulator()
        tasks = make_tasks(sim, 3)
        q = TaskQueue(tasks)
        assert q.pop_any().task_id == 0
        assert q.pop_any().task_id == 1
        assert len(q) == 1

    def test_pop_local_respects_preference(self):
        sim = Simulator()
        tasks = make_tasks(sim, 3, preferred=[(1,), (2,), (1,)])
        q = TaskQueue(tasks)
        assert q.pop_local(2).task_id == 1
        assert q.pop_local(2) is None

    def test_lazy_deletion_across_indexes(self):
        sim = Simulator()
        tasks = make_tasks(sim, 2, preferred=[(0,), (0,)])
        q = TaskQueue(tasks)
        t = q.pop_any()
        assert t.task_id == 0
        # Taken task must not be served through the locality index.
        assert q.pop_local(0).task_id == 1
        assert len(q) == 0

    def test_pinned_only_via_pop_pinned(self):
        sim = Simulator()
        tasks = make_tasks(sim, 2, pinned=[1, None])
        q = TaskQueue(tasks)
        assert q.pop_any().task_id == 1
        assert q.pop_pinned(1).task_id == 0
        assert q.pop_pinned(1) is None

    def test_has_helpers(self):
        sim = Simulator()
        tasks = make_tasks(sim, 2, preferred=[(3,), ()], pinned=[None, 2])
        q = TaskQueue(tasks)
        assert q.has_local(3) and not q.has_local(1)
        assert q.has_pinned(2) and not q.has_pinned(3)


class TestStageRunner:
    def run_stage(self, sim, tasks, n_nodes=2, cores=2, policy=None,
                  gates=(), overhead=0.0):
        runner = StageRunner(sim, n_nodes, cores, tasks,
                             policy=policy or LocalityFirstPolicy(),
                             gates=gates, task_overhead=overhead)
        done = runner.run()
        sim.run(until=done)
        return runner

    def test_all_tasks_run_exactly_once(self):
        sim = Simulator()
        runner = self.run_stage(sim, make_tasks(sim, 10))
        assert len(runner.records) == 10
        assert sorted(r.task_id for r in runner.records) == list(range(10))

    def test_makespan_matches_slot_count(self):
        sim = Simulator()
        # 8 unit tasks over 2 nodes x 2 cores = 2 waves.
        self.run_stage(sim, make_tasks(sim, 8, duration=1.0))
        assert sim.now == pytest.approx(2.0)

    def test_no_slot_oversubscription(self):
        sim = Simulator()
        runner = self.run_stage(sim, make_tasks(sim, 20), n_nodes=2, cores=3)
        events = []
        for r in runner.records:
            events.append((r.started_at, 1, r.node))
            events.append((r.finished_at, -1, r.node))
        events.sort()
        running = {0: 0, 1: 0}
        for _, delta, node in events:
            running[node] += delta
            assert running[node] <= 3

    def test_round_robin_initial_spread(self):
        sim = Simulator()
        runner = self.run_stage(sim, make_tasks(sim, 8), n_nodes=4, cores=4)
        first_wave = [r for r in runner.records if r.started_at == 0.0]
        nodes = {r.node for r in first_wave}
        assert nodes == {0, 1, 2, 3}  # spread, not node-0-first

    def test_pinned_tasks_run_on_their_node(self):
        sim = Simulator()
        tasks = make_tasks(sim, 6, pinned=[0, 1, 0, 1, 0, 1])
        runner = self.run_stage(sim, tasks)
        for r in runner.records:
            assert r.node == r.task_id % 2

    def test_task_overhead_applied(self):
        sim = Simulator()
        self.run_stage(sim, make_tasks(sim, 1, duration=1.0), overhead=0.5)
        assert sim.now == pytest.approx(1.5)

    def test_empty_stage_completes_immediately(self):
        sim = Simulator()
        runner = StageRunner(sim, 2, 2, [], policy=LocalityFirstPolicy())
        done = runner.run()
        assert done.triggered

    def test_locality_recorded(self):
        sim = Simulator()
        tasks = make_tasks(sim, 2, preferred=[(0,), (0,)])
        runner = self.run_stage(sim, tasks, n_nodes=2, cores=1)
        locs = {r.task_id: r.local for r in runner.records}
        assert locs[0] is True          # ran on its preferred node
        assert locs[1] is False         # stolen by node 1 (no waiting)


class TestDelayScheduling:
    def test_lost_wakeup_regression(self):
        """Pinned Hypothesis counterexample from
        ``test_delay_scheduling_never_beats_immediate``: before the
        simtime fix, float rounding made ``select`` decline the offer
        ("wait not yet elapsed") while ``next_retry`` simultaneously
        reported "retry now", so no timer was armed and the simulation
        ran dry.  Must run to completion under both policies."""
        task_set = [(1.0, None), (2.0, 0), (1.583289386664838, 0),
                    (1.0, 0)]
        n_nodes = 2

        def run(policy_factory):
            sim = Simulator()
            tasks = []
            for i, (dur, pref) in enumerate(task_set):
                def factory(node, dur=dur):
                    def body():
                        yield sim.timeout(dur)
                    return body()

                preferred = (pref % n_nodes,) if pref is not None else ()
                tasks.append(SimTask(task_id=i, phase="compute",
                                     body=factory, preferred=preferred))
            runner = StageRunner(sim, n_nodes, 2, tasks,
                                 policy=policy_factory())
            sim.run(until=runner.run())
            assert sorted(r.task_id for r in runner.records) == \
                list(range(len(task_set)))
            return sim.now

        immediate = run(LocalityFirstPolicy)
        delayed = run(lambda: DelayScheduling(wait=3.0))
        assert delayed >= immediate - 1e-9

    def test_waits_then_gives_up(self):
        sim = Simulator()
        # Both tasks prefer node 0; node 1 must wait out the delay.
        tasks = make_tasks(sim, 2, duration=5.0, preferred=[(0,), (0,)])
        policy = DelayScheduling(wait=1.0)
        runner = StageRunner(sim, 2, 1, tasks, policy=policy)
        done = runner.run()
        sim.run(until=done)
        by_id = {r.task_id: r for r in runner.records}
        assert by_id[0].started_at == pytest.approx(0.0)
        # Task 1 launched non-locally only after the 1 s wait.
        assert by_id[1].started_at == pytest.approx(1.0)
        assert by_id[1].local is False
        assert policy.skipped > 0

    def test_zero_wait_equals_immediate(self):
        sim = Simulator()
        tasks = make_tasks(sim, 2, duration=5.0, preferred=[(0,), (0,)])
        runner = StageRunner(sim, 2, 1, tasks, policy=DelayScheduling(0.0))
        done = runner.run()
        sim.run(until=done)
        assert max(r.started_at for r in runner.records) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DelayScheduling(wait=-1)


class TestELB:
    def test_saturated_node_vetoed(self):
        data = np.array([100.0, 10.0, 10.0, 10.0])
        elb = EnhancedLoadBalancer(LocalityFirstPolicy(), data,
                                   threshold=0.25)
        assert elb.saturated(0)
        assert not elb.saturated(1)

    def test_no_veto_before_any_data(self):
        elb = EnhancedLoadBalancer(LocalityFirstPolicy(), np.zeros(4))
        assert not elb.saturated(0)

    def test_node_order_prefers_least_loaded(self):
        data = np.array([30.0, 10.0, 20.0])
        elb = EnhancedLoadBalancer(LocalityFirstPolicy(), data)
        assert elb.node_order([0, 1, 2]) == [1, 2, 0]

    def test_select_declines_on_saturated_node(self):
        sim = Simulator()
        data = np.array([100.0, 0.0])
        elb = EnhancedLoadBalancer(LocalityFirstPolicy(), data)
        q = TaskQueue(make_tasks(sim, 1))
        assert elb.select(0, q, 0.0) is None
        assert elb.vetoes == 1
        assert elb.select(1, q, 0.0) is not None

    def test_pinned_tasks_bypass_veto(self):
        sim = Simulator()
        data = np.array([100.0, 0.0])
        elb = EnhancedLoadBalancer(LocalityFirstPolicy(), data)
        q = TaskQueue(make_tasks(sim, 1, pinned=[0]))
        assert elb.select(0, q, 0.0) is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            EnhancedLoadBalancer(LocalityFirstPolicy(), np.zeros(2),
                                 threshold=-0.1)


def attached_cad(**kwargs):
    """A CAD gate bound to a simulator, as a stage runner binds it."""
    cad = CongestionAwareDispatcher(**kwargs)
    cad.attach(Simulator(), lambda: None)
    return cad


def complete(cad, duration, node=0):
    """Feed one completed attempt's execution time."""
    cad.on_exit(None, node, duration)


class TestCAD:
    def test_no_throttle_initially(self):
        cad = CongestionAwareDispatcher()
        assert cad.check(0, 0.0) is None
        assert cad.delay == 0.0

    def test_delay_grows_while_congested(self):
        cad = attached_cad(step=0.05, window=5)
        for _ in range(5):
            complete(cad, 1.0)   # establishes the baseline
        for _ in range(5):
            complete(cad, 3.0)   # sustained 3x congestion
        assert cad.delay >= 0.05
        assert cad.increases >= 1
        before = cad.delay
        for _ in range(5):
            complete(cad, 3.0)   # still congested: keeps backing off
        assert cad.delay > before

    def test_delay_shrinks_when_times_halve(self):
        cad = attached_cad(step=0.05, window=5)
        for _ in range(5):
            complete(cad, 4.0)
        for _ in range(5):
            complete(cad, 9.0)   # jump -> +step(s)
        peak = cad.delay
        assert peak > 0
        for _ in range(10):
            complete(cad, 2.0)   # halved -> steps back down
        assert cad.decreases >= 1
        assert cad.delay < peak

    def test_gating_after_launch(self):
        cad = CongestionAwareDispatcher(step=0.05, window=2)
        cad.delay = 0.1
        cad.on_launch(None, 3, now=10.0)
        assert cad.check(3, 10.05) is not None
        assert cad.check(3, 10.11) is None
        assert cad.check(4, 10.05) is None  # other nodes unaffected

    def test_delay_capped(self):
        cad = attached_cad(step=1.0, window=1, max_delay=2.0)
        complete(cad, 1.0)
        complete(cad, 1.0)  # sets reference
        for t in (10.0, 100.0, 1000.0, 10000.0):
            complete(cad, t)
        assert cad.delay <= 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CongestionAwareDispatcher(step=0)
        with pytest.raises(ValueError):
            CongestionAwareDispatcher(trigger_ratio=1.0)
        with pytest.raises(ValueError):
            CongestionAwareDispatcher(relax_ratio=1.5)
        with pytest.raises(ValueError):
            CongestionAwareDispatcher(window=0)

    def test_throttler_in_stage_runner_spaces_launches(self):
        sim = Simulator()
        tasks = make_tasks(sim, 4, duration=0.01)
        cad = CongestionAwareDispatcher(max_spacing=1.0)
        cad.delay = 1.0  # pre-set: every launch arms a 1 s per-node gate
        runner = StageRunner(sim, 1, 4, tasks, policy=LocalityFirstPolicy(),
                             gates=(cad,))
        done = runner.run()
        sim.run(until=done)
        starts = sorted(r.started_at for r in runner.records)
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert all(g >= 0.99 for g in gaps)

    def test_throttler_caps_in_flight_tasks_when_congested(self):
        sim = Simulator()
        tasks = make_tasks(sim, 12, duration=1.0)
        cad = CongestionAwareDispatcher(target_concurrency=2,
                                        max_spacing=0.0001)
        cad.delay = 0.05  # congestion already detected
        runner = StageRunner(sim, 1, 8, tasks, policy=LocalityFirstPolicy(),
                             gates=(cad,))
        done = runner.run()
        sim.run(until=done)
        events = []
        for r in runner.records:
            events.append((r.started_at, 1))
            events.append((r.finished_at, -1))
        events.sort()
        running = 0
        peak = 0
        for _, d in events:
            running += d
            peak = max(peak, running)
        assert peak <= 2

    def test_interrupted_attempt_releases_concurrency_slot(self):
        """A node blocked on CAD's concurrency cap must not lose its
        wakeup when the last running task on it is *abandoned* rather
        than completed: the abandoned attempt has to release its
        in-flight count or the pending task waits forever."""
        sim = Simulator()
        tasks = make_tasks(sim, 2, duration=1000.0)
        cad = CongestionAwareDispatcher(target_concurrency=1,
                                        max_spacing=1e-4)
        cad.delay = 0.05  # congestion detected: the in-flight cap is live
        runner = StageRunner(sim, 1, 2, tasks,
                             policy=LocalityFirstPolicy(), gates=(cad,))
        runner.run()
        # Task 0 holds the single concurrency slot; task 1 is blocked.
        assert len(runner.records) == 0

        def kill_running_attempt():
            runner.abandon(runner._attempts[0][0], "node drained")

        sim.schedule_callback(1.0, kill_running_attempt)
        sim.run(until=5.0)
        # The freed concurrency slot let task 1 launch right away.
        started = {tid: a[0].started for tid, a in runner._attempts.items()}
        assert started == {1: pytest.approx(1.0)}
        assert runner.wakeup_invariant_violation() is None


class StubGate(AdmissionGate):
    """Declines node 0 until ``until`` with a time wake, then with
    ``inf`` until it is lifted by an exit (``lift="exit"``) or by
    :meth:`lift` calling the runner's wake."""

    kind = "stub-block"
    counter = "sched.stub_declines"

    def __init__(self, until, lift):
        self.until = until
        self.lift_on_exit = lift == "exit"
        self.held = True
        self.wake = None
        self.detached = False

    def attach(self, sim, wake):
        self.wake = wake

    def detach(self):
        self.detached = True

    def check(self, node, now):
        if node != 0:
            return None
        if now < self.until:
            return self.until
        return math.inf if self.held else None

    def why(self, node, now):
        return {"reason": "timed" if now < self.until else "held",
                "until": self.until}

    def on_exit(self, task, node, duration):
        if self.lift_on_exit:
            self.held = False

    def lift(self):
        self.held = False
        self.wake()


class TestAdmissionGateProtocol:
    """A fake gate drives the runner through the protocol alone."""

    @pytest.mark.parametrize("lift, lifted_at", [("exit", 1.0),
                                                 ("wake", 0.75)])
    def test_stub_gate_declines_wakes_and_detaches(self, lift, lifted_at):
        sim = Simulator()
        sim.enable_trace(capacity=10_000)
        registry = MetricsRegistry()
        gate = StubGate(until=0.5, lift=lift)
        runner = StageRunner(sim, 2, 1, make_tasks(sim, 3, duration=1.0),
                             policy=LocalityFirstPolicy(), gates=(gate,),
                             metrics=registry)
        done = runner.run()
        if lift == "wake":
            sim.schedule_callback(lifted_at, gate.lift)
        assert not gate.detached
        sim.run(until=done)
        assert gate.detached

        blocks = sim.trace_events("stub-block")
        # Two passes at t=0 hit the timed block, the retry at 0.5 the
        # held one; the lift then admits node 0.
        assert [(e.time, e.data["reason"]) for e in blocks] == \
            [(0.0, "timed"), (0.0, "timed"), (0.5, "held")]
        assert all(list(e.data) == ["node", "reason", "until"]
                   and e.data["node"] == 0 for e in blocks)
        counters = registry.counters
        assert counters["sched.stub_declines{phase=compute}"].value == 3
        for name in ("throttle", "mem", "policy"):
            assert counters[f"sched.{name}_declines{{phase=compute}}"] \
                .value == 0
        # The time wake armed the retry at exactly that time; the inf
        # wake armed nothing.
        assert [e.data["at"] for e in sim.trace_events("retry-armed")] \
            == [0.5]
        first_on_0 = min(r.started_at for r in runner.records if r.node == 0)
        assert first_on_0 == pytest.approx(lifted_at)
        assert sorted(r.task_id for r in runner.records) == [0, 1, 2]


class TestBookOutOrder:
    """``_book_out`` returns an exiting attempt's heap before its slot.

    With a memory gate attached, the heap release wakes the gate's own
    runner, so an offer pass runs while the exiting attempt still holds
    its slot and before its completion is recorded; the next launch comes
    from the exit's own pass, after ``complete``.  Both orders are
    model-visible (the ``spill_pressure`` bench digest depends on the
    self re-offer), and releasing the slot first breaks both.
    """

    def test_heap_release_re_offers_while_the_slot_is_held(self):
        sim = Simulator()
        sim.enable_trace(capacity=10_000)
        mem = ClusterMemory(1, heap_bytes=4.0)
        runner = StageRunner(sim, 1, 1, make_tasks(sim, 2, duration=1.0),
                             policy=LocalityFirstPolicy(),
                             gates=(MemoryGate(mem, ideal_task_heap=1.0),))
        sim.run(until=runner.run())

        at_exit = [(e.kind, dict(e.data)) for e in sim.trace_events()
                   if e.time == 1.0
                   and e.kind in ("offer", "launch", "complete")]
        assert [kind for kind, _ in at_exit] == \
            ["offer", "complete", "offer", "launch"]
        # The gate's self re-offer: task 0 still holds node 0's only
        # slot, and task 1 waits in the queue.
        assert at_exit[0][1] == {"free_slots": [0], "pending": 1}
        assert at_exit[1][1]["task"] == 0
        assert at_exit[2][1] == {"free_slots": [1], "pending": 1}
        assert at_exit[3][1]["task"] == 1
        assert [r.task_id for r in runner.records] == [0, 1]


class TestAbandon:
    """An attempt is abandoned by bookkeeping: the scheduler never throws
    into its body, and every attempt is booked out exactly once."""

    def _stage(self, sim, bodies, n_nodes=2, cores=2, overhead=0.05,
               **kwargs):
        tasks = [SimTask(task_id=i, phase="compute", body=body)
                 for i, body in enumerate(bodies)]
        return StageRunner(sim, n_nodes, cores, tasks,
                           policy=LocalityFirstPolicy(),
                           task_overhead=overhead, **kwargs)

    @pytest.mark.parametrize("overhead", [0.0, 0.05])
    def test_crash_in_the_launch_timestep_never_starts_the_body(
            self, overhead):
        sim = Simulator()
        started = []

        def body(node):
            started.append((node, sim.now))
            yield sim.timeout(1.0)

        mem = ClusterMemory(2, heap_bytes=4.0)
        lv = NodeLiveness(2)
        runner = self._stage(sim, [body] * 2, cores=1, overhead=overhead,
                             liveness=lv,
                             gates=(MemoryGate(mem, ideal_task_heap=1.0),))
        done = runner.run()
        assert [a[0].node for a in runner._attempts.values()] == [0, 1]
        lv.mark_dead(1)
        runner.on_node_crash(1)   # before either attempt's start entry
        sim.run(until=done)
        # Node 1's body never ran; its task re-ran on node 0 afterwards.
        assert started == [(0, overhead), (0, 1.0 + 2 * overhead)]
        assert runner.crash_requeues == 1
        # Slot and heap came back exactly once each.
        assert runner.free_slots == [1, 1]
        assert mem.exec_used == [0.0, 0.0] and mem.exec_count == [0, 0]
        assert not runner._attempts

    def test_abandoned_body_keeps_its_io_and_its_late_failure_is_ignored(
            self):
        sim = Simulator()
        disk = FluidPipe(sim, 100.0, name="disk")
        writes, finished = [], []

        def body(node):
            if node == 1 and not writes:
                writes.append(sim.now)
                yield disk.transfer(300.0)
                finished.append(sim.now)
                raise TaskAttemptFailure("disk error after the abandon")
            yield sim.timeout(1.0)

        runner = self._stage(sim, [body] * 2, cores=1, overhead=0.0)
        sim.enable_trace()
        done = runner.run()
        sim.schedule_callback(1.0, runner.on_executor_loss, 1)
        sim.run(until=done)
        sim.run()
        # The orphaned body's I/O reached the disk and it failed later,
        # which neither crashed the run nor counted as a failure.
        assert disk.bytes_completed == pytest.approx(300.0)
        assert finished == [pytest.approx(3.0)]
        assert runner.attempt_failures == 0
        assert sorted(r.task_id for r in runner.records) == [0, 1]
        assert [e.data["cause"] for e in sim.trace_events("interrupt")] \
            == ["executor-loss"]

    def test_crash_and_executor_loss_in_one_instant_book_each_attempt_once(
            self):
        sim = Simulator()

        def body(node):
            yield sim.timeout(2.0)

        mem = ClusterMemory(2, heap_bytes=4.0)
        lv = NodeLiveness(2)
        runner = self._stage(sim, [body] * 4, liveness=lv,
                             gates=(MemoryGate(mem, ideal_task_heap=1.0),))
        sim.enable_trace()
        done = runner.run()

        def faults():
            runner.on_executor_loss(1)
            lv.mark_dead(1)
            runner.on_node_crash(1)

        sim.schedule_callback(1.0, faults)
        sim.run(until=done)
        interrupts = [(e.data["task"], e.data["node"], e.data["cause"])
                      for e in sim.trace_events("interrupt")]
        assert interrupts == [(1, 1, "executor-loss"),
                              (3, 1, "executor-loss")]
        assert runner.crash_requeues == 2
        assert sorted(r.task_id for r in runner.records) == [0, 1, 2, 3]
        assert all(r.node == 0 for r in runner.records)
        assert runner.free_slots == [2, 2]
        assert mem.exec_used == [0.0, 0.0] and mem.exec_count == [0, 0]

    def test_a_stage_makes_one_process_per_attempt(self, monkeypatch):
        built = []
        init = sim_process.Process.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(sim_process.Process, "__init__", counting_init)
        sim = Simulator()
        failed = set()

        def body(node):
            yield sim.timeout(1.0)
            if node == 0 and not failed:
                failed.add(node)
                raise TaskAttemptFailure("first attempt on node 0")

        runner = self._stage(sim, [body] * 5)
        sim.enable_trace()
        done = runner.run()
        sim.run(until=done)
        launches = len(sim.trace_events("launch"))
        assert launches == 6 and runner.attempt_failures == 1
        assert len(built) == launches
