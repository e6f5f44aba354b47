"""Decision audit: every veto/throttle/decline carries justifying state.

The acceptance bar: each ELB veto, CAD throttle step, delay-scheduling
pass, and memory decline must appear in the audit with the state that
justified it — and the audit counts must agree with the MetricsRegistry
counters the same decisions bump.

The telemetry log records a decision that repeats on its node once and
folds the repeats into a ``block-end``, which the audit yields as one
``repeat`` record of weight ``n``.  So every state predicate is checked
on every traced record (the openings), and the openings plus the
repeats' weights must equal the registry counter.  ``_RawTelemetry``
also keeps the per-pass stream as traced, and the audit of the two
streams must agree.
"""

import pytest

from repro.cluster.spec import GB, MB, hyperion
from repro.core.engine import EngineOptions, run_job
from repro.core.memory import MemoryConfig
from repro.cluster.variability import UniformSpeed
from repro.obs.audit import (AuditRecord, audit_counts, audit_lines,
                             build_audit, iter_audit)
from repro.obs.telemetry import Telemetry
from repro.workloads import grep_spec, groupby_spec


class _RawTelemetry(Telemetry):
    """Telemetry that also keeps every trace event as traced, one per
    offer pass (``raw``), beside its coalesced ``events``."""

    def bind(self, sim):
        self.raw = []
        sim.add_trace_sink(lambda ev: self.raw.append(ev.record))
        super().bind(sim)


def _counter_sum(telemetry, prefix):
    snap = telemetry.registry.snapshot()
    return sum(v for k, v in snap["counters"].items()
               if k.startswith(prefix))


def _split(records, action):
    """(the traced records of ``action``, the decisions they and the
    block repeats stand for)."""
    mine = [r for r in records if r.action == action]
    return [r for r in mine if not r.repeat], sum(r.n for r in mine)


@pytest.fixture(scope="module")
def elb_run():
    """Heterogeneous nodes + ELB: the balancer vetoes data-heavy nodes."""
    tele = _RawTelemetry()
    run_job(groupby_spec(16 * GB, split_bytes=32 * MB, n_reducers=64),
            cluster_spec=hyperion(8), speed_model=UniformSpeed(0.6, 1.6),
            options=EngineOptions(seed=5, elb=True), telemetry=tele)
    return tele, build_audit(tele.events)


@pytest.fixture(scope="module")
def congested_run():
    """Congested SSD + CAD + tight heap: throttles, steps, declines."""
    tele = _RawTelemetry()
    run_job(groupby_spec(24 * GB, shuffle_store="ssd", n_reducers=32),
            cluster_spec=hyperion(2),
            options=EngineOptions(cad=True, seed=0,
                                  memory=MemoryConfig(mem_frac=0.4)),
            telemetry=tele)
    return tele, build_audit(tele.events)


class TestElbVetoAudit:
    def test_every_veto_is_audited(self, elb_run):
        tele, records = elb_run
        vetoes, n = _split(records, "elb-veto")
        assert vetoes
        assert n == _counter_sum(tele, "elb.vetoes_total")

    def test_veto_state_justifies_the_decision(self, elb_run):
        _, records = elb_run
        vetoes, _ = _split(records, "elb-veto")
        assert vetoes
        for r in vetoes:
            assert r.node is not None
            assert r.state["node_bytes"] > \
                r.state["cluster_avg"] * (1.0 + r.state["threshold"])


class TestCadAudit:
    def test_every_throttle_is_audited_with_gate_state(self,
                                                       congested_run):
        tele, records = congested_run
        throttles, n = _split(records, "cad-throttle")
        assert throttles
        assert n == _counter_sum(tele, "sched.throttle_declines")
        assert n > len(throttles)  # the run repeats its throttles
        for r in throttles:
            assert r.reason in ("pacing", "concurrency")
            for key in ("delay", "in_flight", "target", "window_avg",
                        "baseline"):
                assert key in r.state
            if r.reason == "concurrency":
                assert r.state["in_flight"] >= r.state["target"]

    def test_cad_steps_record_the_feedback_signal(self, congested_run):
        tele, records = congested_run
        steps = [r for r in records if r.action == "cad-step"]
        increases = [r for r in steps if r.reason == "increase"]
        assert len(increases) == _counter_sum(
            tele, "cad.delay_increases_total")
        for r in increases:
            assert r.state["delay"] > r.state["prev"]
            # The justifying state: the running mean crossed the trigger.
            assert r.state["window_avg"] >= \
                r.state["trigger_ratio"] * r.state["baseline"]
        for r in (r for r in steps if r.reason == "decrease"):
            assert r.state["delay"] < r.state["prev"]


class TestMemoryAudit:
    def test_every_decline_is_audited_with_heap_state(self,
                                                      congested_run):
        tele, records = congested_run
        declines, n = _split(records, "mem-decline")
        assert declines
        assert n == _counter_sum(tele, "sched.mem_declines")
        assert n > len(declines)  # the run repeats its declines
        assert all(r.reason == "rigid"
                   for r in records if r.action == "mem-decline")
        for r in declines:
            assert r.reason == "rigid"
            assert r.state["free"] < r.state["demand"]
            assert r.state["floor"] == r.state["demand"]  # rigid gate

    def test_elastic_floor_reason(self):
        tele = Telemetry()
        run_job(groupby_spec(8 * GB, shuffle_store="ssd"),
                cluster_spec=hyperion(2),
                options=EngineOptions(
                    seed=0, memory=MemoryConfig(mem_frac=0.2,
                                                elastic=True)),
                telemetry=tele)
        records = build_audit(tele.events)
        declines, n = _split(records, "mem-decline")
        assert n == _counter_sum(tele, "sched.mem_declines")
        assert all(r.reason == "elastic-floor"
                   for r in records if r.action == "mem-decline")
        for r in declines:
            assert r.state["floor"] < r.state["demand"]


class TestDelaySchedulingAudit:
    def test_delay_passes_record_the_wait_clock(self):
        tele = Telemetry()
        run_job(grep_spec(8 * GB, shuffle_store="ssd"),
                cluster_spec=hyperion(4),
                options=EngineOptions(seed=3, delay_scheduling=True),
                telemetry=tele)
        records = build_audit(tele.events)
        passes, _ = _split(records, "delay-pass")
        assert passes
        # Every policy "no" (delay passes included) is audited once.
        assert sum(r.n for r in records if r.action in (
            "delay-pass", "elb-veto", "policy-decline")) == \
            _counter_sum(tele, "sched.policy_declines")
        for r in passes:
            assert r.state["deadline"] == \
                r.state["reference"] + r.state["wait"]
            assert r.t < r.state["deadline"]


class TestCoalescedLog:
    """The coalesced log audits exactly like the per-pass stream."""

    def test_counts_and_lines_match_the_per_pass_stream(self, elb_run,
                                                        congested_run):
        for tele, records in (elb_run, congested_run):
            assert len(tele.events) < len(tele.raw)
            assert audit_counts(records) == \
                audit_counts(iter_audit(tele.raw))
            for skip in (True, False):
                assert audit_lines(records, skip_uninteresting=skip) == \
                    audit_lines(iter_audit(tele.raw),
                                skip_uninteresting=skip)

    def test_repeat_records_carry_no_state(self, congested_run):
        _, records = congested_run
        repeats = [r for r in records if r.repeat]
        assert repeats
        for r in repeats:
            assert r.n >= 1 and r.state == {}

    def test_traced_count_expands_the_blocks(self, elb_run, congested_run):
        from repro.obs.telemetry import traced_count
        for tele, _ in (elb_run, congested_run):
            assert traced_count(tele.events) == len(tele.raw)


class TestRendering:
    def test_counts_sorted_and_lines_deterministic(self, congested_run):
        _, records = congested_run
        counts = audit_counts(records)
        assert counts == sorted(counts, key=lambda x: (-x[2], x[0], x[1]))
        lines = audit_lines(records)
        assert lines == audit_lines(list(records))
        assert lines[0].startswith("scheduler decisions:")
        assert any("mem-decline" in ln for ln in lines)

    def test_streamed_fold_renders_like_the_list(self, congested_run,
                                                 elb_run):
        for tele, records in (congested_run, elb_run):
            stream = iter_audit(tele.events)
            assert not isinstance(stream, list)
            assert audit_lines(stream) == audit_lines(records)
            assert audit_lines(iter_audit(tele.events), limit=2,
                               skip_uninteresting=False) == \
                audit_lines(records, limit=2, skip_uninteresting=False)

    def test_empty_stream(self):
        assert build_audit([]) == []
        lines = audit_lines([])
        assert lines[-1].strip() == "(none)"

    def test_policy_declines_counted_but_not_rendered(self):
        recs = [AuditRecord(1.0, "policy-decline", 0, "no-task", {})]
        lines = audit_lines(recs)
        assert "1 audited, 0 consequential" in lines[0]
        assert not any("policy-decline" in ln for ln in lines)
