"""Property-based tests on scheduler invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cad import CongestionAwareDispatcher
from repro.core.elb import EnhancedLoadBalancer
from repro.core.faults import NodeLiveness
from repro.core.memory import ClusterMemory, MemoryGate
from repro.core.policies import DelayScheduling, LocalityFirstPolicy
from repro.core.scheduler import StageRunner
from repro.core.speculation import SpeculativeExecution
from repro.core.task import SimTask
from repro.obs.registry import MetricsRegistry
from repro.sim import Simulator


def build_tasks(sim, durations, prefs, n_nodes):
    tasks = []
    for i, (dur, pref) in enumerate(zip(durations, prefs)):
        def factory(node, dur=dur):
            def body():
                yield sim.timeout(dur)
            return body()

        preferred = (pref % n_nodes,) if pref is not None else ()
        tasks.append(SimTask(task_id=i, phase="compute", body=factory,
                             preferred=preferred))
    return tasks


task_sets = st.lists(
    st.tuples(st.floats(min_value=0.01, max_value=5.0),
              st.one_of(st.none(), st.integers(0, 7))),
    min_size=1, max_size=40)


@given(task_sets, st.integers(2, 4), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_every_task_runs_exactly_once(task_set, n_nodes, cores):
    sim = Simulator()
    durations = [d for d, _ in task_set]
    prefs = [p for _, p in task_set]
    tasks = build_tasks(sim, durations, prefs, n_nodes)
    runner = StageRunner(sim, n_nodes, cores, tasks,
                         policy=LocalityFirstPolicy())
    done = runner.run()
    sim.run(until=done)
    assert sorted(r.task_id for r in runner.records) == \
        list(range(len(tasks)))


@given(task_sets, st.integers(2, 4), st.integers(1, 3),
       st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_no_oversubscription_under_delay_scheduling(task_set, n_nodes,
                                                    cores, wait):
    sim = Simulator()
    durations = [d for d, _ in task_set]
    prefs = [p for _, p in task_set]
    tasks = build_tasks(sim, durations, prefs, n_nodes)
    runner = StageRunner(sim, n_nodes, cores, tasks,
                         policy=DelayScheduling(wait=wait))
    done = runner.run()
    sim.run(until=done)
    # Reconstruct per-node concurrency from the records.
    for node in range(n_nodes):
        events = []
        for r in runner.records:
            if r.node == node:
                events.append((r.started_at, 1))
                events.append((r.finished_at, -1))
        events.sort()
        running = 0
        for _, d in events:
            running += d
            assert running <= cores


@given(task_sets, st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_delay_scheduling_never_beats_immediate(task_set, n_nodes):
    """Delay scheduling can only hold work back: its makespan is never
    (meaningfully) shorter than immediate scheduling for equal inputs."""

    def run(policy_factory):
        sim = Simulator()
        durations = [d for d, _ in task_set]
        prefs = [p for _, p in task_set]
        tasks = build_tasks(sim, durations, prefs, n_nodes)
        runner = StageRunner(sim, n_nodes, 2, tasks,
                             policy=policy_factory())
        done = runner.run()
        sim.run(until=done)
        return sim.now

    immediate = run(LocalityFirstPolicy)
    delayed = run(lambda: DelayScheduling(wait=3.0))
    assert delayed >= immediate - 1e-9


@given(task_sets,
       st.integers(2, 5),
       st.lists(st.tuples(st.floats(min_value=0.05, max_value=3.0),
                          st.integers(0, 7)),
                max_size=3),
       st.lists(st.floats(min_value=0.0, max_value=100.0),
                min_size=5, max_size=5))
@settings(max_examples=40, deadline=None)
def test_elb_stall_freedom_under_node_death(task_set, n_nodes, crashes,
                                            skew):
    """ELB veto + dead nodes never deadlock the stage.

    Regression (mirrors PR 1's lost-wakeup class): ELB's cluster average
    used to include dead nodes, whose intermediate volumes are zeroed on
    crash.  The deflated average could mark every free *live* node as
    saturated while no attempts were running — and ``next_retry``
    delegates blindly to the inner policy, which arms nothing for
    unpinned work.  Nonempty queue, free slots, no wakeup: deadlock.
    The live-node-only mean makes a veto imply that some live node sits
    at or below the mean, so the least-loaded live node is always
    offerable and the stage must finish.
    """
    sim = Simulator()
    durations = [d for d, _ in task_set]
    prefs = [p for _, p in task_set]
    tasks = build_tasks(sim, durations, prefs, n_nodes)
    intermediate = np.array([skew[n % len(skew)] for n in range(n_nodes)],
                            dtype=float)
    liveness = NodeLiveness(n_nodes)
    policy = EnhancedLoadBalancer(LocalityFirstPolicy(), intermediate,
                                  threshold=0.25, liveness=liveness)
    runner = StageRunner(sim, n_nodes, 2, tasks, policy=policy,
                         liveness=liveness)
    done = runner.run()

    def crash(node):
        # Keep at least one node alive; re-crashing a corpse is a no-op.
        if not liveness.alive(node) or len(liveness.live_nodes()) <= 1:
            return
        liveness.mark_dead(node)
        intermediate[node] = 0.0    # the engine zeroes crashed hosts
        runner.on_node_crash(node)

    for at, node in crashes:
        sim.schedule_callback(at, crash, node % n_nodes)
    sim.run(until=done)   # a lost wakeup would raise SimulationDeadlock
    assert runner.wakeup_invariant_violation() is None
    assert sorted(r.task_id for r in runner.records) == \
        list(range(len(tasks)))


@given(task_sets, st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_speculation_preserves_exactly_once_records(task_set, n_nodes):
    sim = Simulator()
    durations = [d for d, _ in task_set]
    prefs = [p for _, p in task_set]
    tasks = build_tasks(sim, durations, prefs, n_nodes)
    runner = StageRunner(
        sim, n_nodes, 2, tasks, policy=LocalityFirstPolicy(),
        speculation=SpeculativeExecution(quantile=0.5, multiplier=1.2))
    done = runner.run()
    sim.run(until=done)
    assert sorted(r.task_id for r in runner.records) == \
        list(range(len(tasks)))


@given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=5.0),
                          st.one_of(st.none(), st.integers(0, 7))),
                min_size=1, max_size=30),
       st.integers(2, 3), st.integers(1, 3), st.booleans(),
       st.sampled_from([0.5, 1.0, 1.5, 2.5]),
       st.one_of(st.none(),
                 st.tuples(st.floats(min_value=0.0, max_value=6.0),
                           st.integers(0, 7))))
@settings(max_examples=60, deadline=None)
def test_cad_and_memory_gate_on_one_runner(task_set, n_nodes, cores,
                                           elastic, heap, crash):
    """CAD and the memory gate together on one runner: every task runs
    once or dies with its node, no wakeup is lost, the heap and CAD's
    in-flight counts drain to zero, and every decline is counted once
    and traced once."""
    sim = Simulator()
    sim.enable_trace(capacity=1_000_000)
    durations = [d for d, _ in task_set]
    tasks = build_tasks(sim, durations, [None] * len(task_set), n_nodes)
    for task, (_, pin) in zip(tasks, task_set):
        task.pinned = None if pin is None else pin % n_nodes
    cad = CongestionAwareDispatcher(window=2, target_concurrency=1)
    mem = ClusterMemory(n_nodes, heap_bytes=heap)
    gate = MemoryGate(mem, ideal_task_heap=1.0, elastic=elastic,
                      min_task_frac=0.25)
    liveness = NodeLiveness(n_nodes)
    registry = MetricsRegistry()
    runner = StageRunner(sim, n_nodes, cores, tasks,
                         policy=LocalityFirstPolicy(), gates=(cad, gate),
                         liveness=liveness, metrics=registry)
    done = runner.run()
    if crash is not None:
        at, node = crash

        def kill(node=node % n_nodes):
            liveness.mark_dead(node)
            runner.on_node_crash(node)

        sim.schedule_callback(at, kill)
    sim.run(until=done)
    sim.run()   # abandoned bodies run on; let them drain

    done_ids = [r.task_id for r in runner.records]
    lost_ids = [t.task_id for t in runner.tasks_lost]
    assert len(done_ids) == len(set(done_ids))
    assert sorted(done_ids + lost_ids) == list(range(len(tasks)))
    if crash is None:
        assert not lost_ids
    assert runner.wakeup_invariant_violation() is None
    assert mem.exec_used == [0.0] * n_nodes
    assert mem.exec_count == [0] * n_nodes
    assert not mem.has_outstanding()
    assert sum(cad._in_flight.values()) == 0
    counters = registry.counters
    assert counters["sched.throttle_declines{phase=compute}"].value == \
        len(sim.trace_events("throttle"))
    assert counters["sched.mem_declines{phase=compute}"].value == \
        len(sim.trace_events("mem-decline"))
