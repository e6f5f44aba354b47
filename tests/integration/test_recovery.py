"""End-to-end fault injection and lineage recovery (DESIGN.md §9).

One workload, four fault scenarios.  With ``groupby_spec(2 GB)`` on
``hyperion(4)`` at seed 11 the fault-free phase boundaries are
compute ≈ [0, 0.842), store ≈ [0.842, 1.070), fetch ≈ [1.070, 1.312),
which is what the crash times below are aimed at.
"""

import pytest

from repro import EngineOptions, FaultPlan, hyperion, run_job
from repro.core.faults import ExecutorLoss, ShuffleOutputLoss
from repro.workloads import groupby_spec

GB = 1024.0 ** 3

SEED = 11
NO_FAULT_JOB_TIME = 1.3116922246126195


def _run(plan=None):
    return run_job(groupby_spec(2 * GB, shuffle_store="ssd"),
                   cluster_spec=hyperion(4),
                   options=EngineOptions(seed=SEED, fault_plan=plan))


def _fingerprint(res):
    rec = res.recovery
    return (res.job_time,
            sorted((t.phase, t.task_id, t.node, t.queued_at, t.started_at,
                    t.finished_at, t.bytes) for t in res.all_tasks()),
            sorted((f.phase, f.task_id, f.attempt, f.node, f.at)
                   for f in res.failures),
            None if rec is None else
            (rec.node_crashes, rec.node_restarts, rec.tasks_recomputed,
             rec.bytes_recomputed, rec.bytes_restored, rec.crash_requeues,
             rec.tasks_lost, rec.recovery_time))


class TestCrashMidStore:
    """Node 1 dies while its pinned ShuffleMapTasks run: its two
    memory-resident map outputs are lost and lineage recovery recomputes
    and re-stores them on a healthy host before reducers may fetch."""

    PLAN = FaultPlan.single_crash(node=1, at=0.911, restart_at=60.911)

    def test_job_completes_via_lineage_recovery(self):
        res = _run(self.PLAN)
        rec = res.recovery
        assert set(res.phases) == {"compute", "store", "fetch", "recovery"}
        assert rec.node_crashes == 1
        assert rec.tasks_lost == 2          # pinned store tasks on node 1
        assert rec.tasks_recomputed == 2    # their producing map tasks
        assert rec.bytes_recomputed == pytest.approx(0.5 * GB)
        assert rec.bytes_restored == pytest.approx(0.5 * GB)
        assert rec.recovery_time == pytest.approx(0.9938002176898253)
        assert res.attempt_failures == 0    # crashes are not task failures

    def test_recovery_costs_wall_clock(self):
        res = _run(self.PLAN)
        assert res.job_time > NO_FAULT_JOB_TIME
        assert res.job_time == pytest.approx(2.380050672764663)

    def test_two_runs_byte_identical(self):
        assert _fingerprint(_run(self.PLAN)) == _fingerprint(_run(self.PLAN))

    def test_no_fault_baseline_unchanged(self):
        res = _run()
        assert res.recovery is None
        assert res.job_time == pytest.approx(NO_FAULT_JOB_TIME)


class TestCrashMidCompute:
    """A crash before anything is cached on the node only re-queues its
    in-flight attempts — nothing exists yet for lineage to recompute."""

    PLAN = FaultPlan.single_crash(node=1, at=0.421, restart_at=60.0)

    def test_requeue_without_recompute(self):
        res = _run(self.PLAN)
        rec = res.recovery
        assert rec.crash_requeues == 2
        assert rec.tasks_recomputed == 0
        assert rec.tasks_lost == 0
        assert "recovery" not in res.phases
        assert res.job_time > NO_FAULT_JOB_TIME


class TestCrashThenRestart:
    """The node rejoins (empty) while recovery is still running; the
    remaining three nodes already own the lost partitions, but the
    restarted node is offered work again."""

    PLAN = FaultPlan.single_crash(node=1, at=0.911, restart_at=1.2)

    def test_restart_is_counted_and_helps(self):
        res = _run(self.PLAN)
        assert res.recovery.node_restarts == 1
        assert res.recovery.tasks_recomputed == 2
        # Rejoining mid-job beats staying dead.
        assert res.job_time < 2.380050672764663
        assert res.job_time > NO_FAULT_JOB_TIME

    def test_reproducible(self):
        assert _fingerprint(_run(self.PLAN)) == _fingerprint(_run(self.PLAN))


class TestShuffleOutputLoss:
    """Only the *stored* copy is lost; the memory-resident intermediates
    survive, so recovery re-stores without recomputing — the lineage cut
    of ``LineageRecovery``'s ``"store"`` mode at work."""

    PLAN = FaultPlan((ShuffleOutputLoss(at=1.1, node=2),))

    def test_restore_only(self):
        res = _run(self.PLAN)
        rec = res.recovery
        assert rec.shuffle_losses == 1
        assert rec.tasks_recomputed == 0
        assert rec.stored_bytes_lost == pytest.approx(0.5 * GB)
        assert rec.bytes_restored == pytest.approx(0.5 * GB)
        assert res.job_time > NO_FAULT_JOB_TIME
        assert res.job_time == pytest.approx(1.4582062526061361)


class TestExecutorLossMidCompute:
    """The executor on node 1 dies mid-compute but the node survives:
    its in-flight attempts are re-queued, nothing is lost to lineage,
    and the job completes."""

    PLAN = FaultPlan((ExecutorLoss(at=0.421, node=1),))

    def test_attempts_requeued_and_job_completes(self):
        res = _run(self.PLAN)
        rec = res.recovery
        assert rec.executor_losses == 1
        assert rec.crash_requeues == 2
        assert rec.node_crashes == 0
        assert rec.tasks_lost == 0
        assert rec.tasks_recomputed == 0
        assert "recovery" not in res.phases
        assert set(res.phases) == {"compute", "store", "fetch"}
        assert res.attempt_failures == 0  # a lost executor is no failure
        assert res.job_time > NO_FAULT_JOB_TIME

    def test_reproducible(self):
        assert _fingerprint(_run(self.PLAN)) == _fingerprint(_run(self.PLAN))
