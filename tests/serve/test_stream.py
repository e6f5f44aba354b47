"""End-to-end tests of the stream server: determinism, tenancy, faults."""

import json

import pytest

from repro import hyperion
from repro.core.faults import FaultPlan
from repro.obs.registry import MetricsRegistry
from repro.serve import SlotPool, StreamServer, Tenant

TENANTS = [Tenant("etl", 2.0), Tenant("adhoc", 1.0, quota=0.5)]


def server(n_jobs=6, policy="fair", seed=3, rate=0.5, **kw):
    kw.setdefault("cluster_spec", hyperion(4))
    kw.setdefault("base_gb", 0.5)
    kw.setdefault("moving_delay", 0.25)
    return StreamServer(TENANTS, arrival_rate=rate, n_jobs=n_jobs,
                        policy=policy, seed=seed, **kw)


class TestDeterminism:
    def test_rerun_byte_identical(self):
        a = server().run()
        b = server().run()
        assert a.summary_lines() == b.summary_lines()
        assert a.to_json() == b.to_json()

    def test_seed_changes_outcomes(self):
        a = server(seed=3).run()
        b = server(seed=4).run()
        assert a.summary_lines() != b.summary_lines()

    def test_fifo_prefix_stable_across_job_counts(self):
        """A FIFO stream with more jobs replays the shorter stream's
        outcomes exactly: later arrivals never rewrite the prefix."""
        short = server(n_jobs=5, policy="fifo").run()
        long = server(n_jobs=9, policy="fifo").run()
        by_key = {(o.tenant, o.index): o for o in long.outcomes}
        for o in short.outcomes:
            assert by_key[(o.tenant, o.index)] == o

    def test_policies_change_the_schedule(self):
        fifo = server(policy="fifo", rate=2.0).run()
        fair = server(policy="fair", rate=2.0).run()
        assert fifo.summary_lines() != fair.summary_lines()
        # Same arrivals and job mix either way, though.
        assert sorted((o.tenant, o.index, o.workload, o.arrived_at)
                      for o in fifo.outcomes) == \
            sorted((o.tenant, o.index, o.workload, o.arrived_at)
                   for o in fair.outcomes)


class TestResultShape:
    def test_all_jobs_complete_with_sane_times(self):
        res = server().run()
        assert len(res.outcomes) == 6
        assert res.tenants() == ["adhoc", "etl"] or \
            set(res.tenants()) <= {"adhoc", "etl"}
        for o in res.outcomes:
            assert o.arrived_at <= o.first_grant_at <= o.finished_at
            assert o.latency >= o.service > 0
            assert o.slowdown >= 1.0
        assert res.makespan == pytest.approx(
            max(o.finished_at for o in res.outcomes))

    def test_json_roundtrip(self):
        res = server().run()
        payload = json.loads(res.to_json())
        assert payload["n_jobs"] == 6
        assert len(payload["outcomes"]) == 6
        assert set(payload["tenant_stats"]) == set(res.tenants())

    def test_njobs_validation(self):
        with pytest.raises(ValueError, match="n_jobs"):
            server(n_jobs=0)


class TestTelemetry:
    def test_per_tenant_instruments_populated(self):
        reg = MetricsRegistry()
        res = server(registry=reg).run()
        total = 0
        for t in res.tenants():
            lat = reg.histogram("serve.latency_s", {"tenant": t})
            sd = reg.histogram("serve.slowdown", {"tenant": t})
            n = reg.counter("serve.jobs_completed", {"tenant": t})
            assert len(lat.values) == len(sd.values) == n.value > 0
            total += int(n.value)
        assert total == 6

    def test_stats_match_the_result_series(self):
        res = server().run()
        stats = res.tenant_stats()
        for t, st in stats.items():
            vals = res.tenant_values[t]["latency"]
            assert st["jobs"] == len(vals)
            assert st["latency_mean"] == pytest.approx(
                sum(vals) / len(vals))


class TestFaults:
    def plan(self):
        return FaultPlan.single_crash(node=1, at=4.0, restart_at=8.0)

    def test_mid_stream_crash_recovers_every_tenant(self):
        res = server(fault_plan=self.plan()).run()
        assert len(res.outcomes) == 6  # nobody's job was lost
        for o in res.outcomes:
            assert o.finished_at > o.arrived_at

    def test_faulted_stream_is_deterministic(self):
        a = server(fault_plan=self.plan()).run()
        b = server(fault_plan=self.plan()).run()
        assert a.summary_lines() == b.summary_lines()

    def test_crash_actually_perturbs_the_stream(self):
        clean = server().run()
        faulted = server(fault_plan=self.plan()).run()
        assert clean.summary_lines() != faulted.summary_lines()


class TestPolicyTargetCache:
    @pytest.mark.parametrize("policy", ["fair", "fifo"])
    def test_cached_targets_match_a_fresh_policy_call(self, monkeypatch,
                                                      policy):
        """After every rebalance of a serve run, the pool's cached
        targets equal ``policy.targets`` recomputed from scratch."""
        checked = []
        rebalance_once = SlotPool._rebalance_once

        def checking(pool):
            rebalance_once(pool)
            assert pool._targets == pool.policy.targets(pool.leases,
                                                        pool.total)
            checked.append(pool._targets is not None)

        monkeypatch.setattr(SlotPool, "_rebalance_once", checking)
        res = server(policy=policy, rate=2.0).run()
        assert len(res.outcomes) == 6
        assert len(checked) > len(res.outcomes) and all(checked)

    def test_cache_does_not_change_the_stream(self, monkeypatch):
        cached = server(rate=2.0).run()
        rebalance_once = SlotPool._rebalance_once

        def uncached(pool):
            pool._targets = None
            rebalance_once(pool)

        monkeypatch.setattr(SlotPool, "_rebalance_once", uncached)
        fresh = server(rate=2.0).run()
        assert cached.to_json() == fresh.to_json()
