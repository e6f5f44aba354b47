"""Tests for the fetch-stage machinery."""

import math

import numpy as np
import pytest

from repro.cluster import Cluster, hyperion
from repro.config import SparkConf
from repro.core.jobspec import JobSpec
from repro.core.shuffle import FetchPlan, _FetchPump, _Slice, fetch_body
from repro.sim.process import Process

GB = 1024.0 ** 3
MB = 1024.0 ** 2
KB = 1024.0


def make_plan(n_nodes=4, n_reducers=8, store_bytes_per_node=1 * GB,
              conf=None, **spec_kw):
    cluster = Cluster(hyperion(n_nodes), seed=0)
    spec_kw.setdefault("shuffle_store", "ramdisk")
    spec = JobSpec(intermediate_ratio=1.0, **spec_kw)
    return FetchPlan(cluster=cluster, spec=spec,
                     conf=conf if conf is not None else SparkConf(),
                     node_store_bytes=np.full(n_nodes,
                                              store_bytes_per_node),
                     n_reducers=n_reducers)


class TestFetchPlan:
    def test_slice_bytes_uniform_hash_partitioning(self):
        plan = make_plan(n_nodes=4, n_reducers=8,
                         store_bytes_per_node=8 * GB)
        assert plan.slice_bytes(0) == pytest.approx(1 * GB)

    def test_slices_cover_everything(self):
        plan = make_plan(n_nodes=3, n_reducers=5,
                         store_bytes_per_node=10 * GB)
        total = sum(plan.slice_bytes(s) * plan.n_reducers for s in range(3))
        assert total == pytest.approx(30 * GB)

    def test_flow_cap_large_requests_near_line_rate(self):
        plan = make_plan()
        assert plan.flow_cap() > 3.5 * GB

    def test_flow_cap_small_requests_collapse(self):
        plan = make_plan(conf=SparkConf(fetch_request_bytes=128 * KB))
        assert plan.flow_cap() < 2.0 * GB

    def test_wire_inflation_negligible_for_1gb_requests(self):
        plan = make_plan()
        assert plan.wire_inflation() == pytest.approx(1.0, abs=1e-3)

    def test_wire_inflation_significant_for_128kb_requests(self):
        plan = make_plan(conf=SparkConf(fetch_request_bytes=128 * KB))
        assert plan.wire_inflation() > 1.5

    def test_smaller_requests_never_cheaper(self):
        caps = []
        infl = []
        for req in (64 * KB, 1 * MB, 64 * MB, 1 * GB):
            plan = make_plan(conf=SparkConf(fetch_request_bytes=req))
            caps.append(plan.flow_cap())
            infl.append(plan.wire_inflation())
        assert caps == sorted(caps)
        assert infl == sorted(infl, reverse=True)


class FetchSpy:
    """Records the shuffle reads and fabric transfers a plan starts.

    Wraps ``Fabric.transfer`` and every node's shuffle-volume ``read`` on
    the instance; each record gets its start time at the call and its end
    time when the completion fires: the ``then`` callback the fetch path
    passes, or the returned event's callbacks for any other caller.  A
    fetch transfer's ``slice`` is the ``(reducer, logical source)`` of
    the ``_Slice`` whose callback it completes.
    """

    def __init__(self, plan):
        self.sim = plan.cluster.sim
        self.reads = []
        self.flows = []
        fabric = plan.cluster.fabric
        fabric.transfer = self._wrap(fabric.transfer, self.flows,
                                     lambda a, kw: {"src": a[0],
                                                    "dst": a[1],
                                                    "slice": _slice_of(kw)})
        for node in plan.cluster.nodes:
            vol = node.volume(plan.spec.shuffle_store)
            vol.read = self._wrap(vol.read, self.reads,
                                  lambda a, kw, n=node.node_id:
                                  {"node": n, "file": a[1]})

    def _wrap(self, fn, log, describe):
        def wrapped(*args, **kwargs):
            rec = dict(describe(args, kwargs), start=self.sim.now, end=None)
            log.append(rec)

            def ended():
                rec["end"] = self.sim.now

            then = kwargs.get("then")
            if then is not None:
                def recorded():
                    ended()
                    then()
                kwargs["then"] = recorded
            ev = fn(*args, **kwargs)
            if then is None:
                ev.callbacks.append(lambda _ev: ended())
            return ev
        return wrapped


def _slice_of(kwargs):
    then = kwargs.get("then")
    rec = getattr(then, "__self__", None)
    if not isinstance(rec, _Slice):
        return None
    return rec.pump.reducer, rec.src


def run_bodies(plan, placements):
    """Run one fetch body per ``(reducer, node)`` to completion."""
    sim = plan.cluster.sim
    procs = [sim.process(fetch_body(plan, r, 1.0)(node))
             for r, node in placements]
    sim.run()
    assert all(p.processed and p.ok for p in procs)
    return procs


def max_overlap(intervals):
    """Most half-open ``[start, end)`` intervals alive at once."""
    edges = sorted([(e, 0) for _, e in intervals]
                   + [(s, 1) for s, _ in intervals])
    alive = best = 0
    for _, is_start in edges:
        alive += 1 if is_start else -1
        best = max(best, alive)
    return best


class TestFetchPump:
    N = 8

    def plan(self, window=4, n_reducers=8, store="ramdisk", **kw):
        return make_plan(n_nodes=self.N, n_reducers=n_reducers,
                         store_bytes_per_node=64 * MB,
                         conf=SparkConf(max_concurrent_fetches=window),
                         shuffle_store=store, **kw)

    def test_window_bounds_fetch_flows_in_flight(self):
        plan = self.plan(window=2)
        spy = FetchSpy(plan)
        run_bodies(plan, [(r, r % self.N) for r in range(8)])
        for r in range(8):
            mine = [(f["start"], f["end"]) for f in spy.flows
                    if f["slice"][0] == r]
            assert len(mine) == self.N - 1
            assert max_overlap(mine) == 2

    def test_window_of_one_runs_slices_in_sequence(self):
        plan = self.plan(window=1)
        spy = FetchSpy(plan)
        run_bodies(plan, [(3, 5)])
        flows = {f["slice"][1]: f for f in spy.flows}
        prev_end = 0.0
        for read in spy.reads:
            src = read["file"][-1]
            ends = [read["end"]]
            starts = [read["start"]]
            if src in flows:
                starts.append(flows[src]["start"])
                ends.append(flows[src]["end"])
            assert min(starts) >= prev_end
            prev_end = max(ends)

    def test_sources_come_in_rotated_order(self):
        plan = self.plan(window=1)
        spy = FetchSpy(plan)
        reducer, node = 3, 5
        run_bodies(plan, [(reducer, node)])
        assert [r["node"] for r in spy.reads] == \
            [(node + 1 + k + reducer) % self.N for k in range(self.N)]
        assert [r["file"] for r in spy.reads] == \
            [plan.bundle_id(r["node"]) for r in spy.reads]

    def test_zero_byte_slices_are_skipped(self):
        plan = self.plan()
        plan.node_store_bytes[[1, 4]] = 0.0
        spy = FetchSpy(plan)
        run_bodies(plan, [(0, 0)])
        read_from = sorted(r["node"] for r in spy.reads)
        assert read_from == [0, 2, 3, 5, 6, 7]
        assert sorted(f["src"] for f in spy.flows) == [2, 3, 5, 6, 7]
        pump = _FetchPump(plan, 0, 0)
        assert 1 not in pump.srcs and 4 not in pump.srcs

    def test_all_empty_reducer_fetches_nothing(self):
        plan = self.plan()
        plan.node_store_bytes[:] = 0.0
        spy = FetchSpy(plan)
        run_bodies(plan, [(0, 0)])
        assert spy.reads == [] and spy.flows == []
        assert plan.cluster.sim.now == 0.0
        assert _FetchPump(plan, 0, 0).done is None

    def test_local_slice_never_touches_the_fabric(self):
        plan = self.plan()
        spy = FetchSpy(plan)
        run_bodies(plan, [(2, 6)])
        assert 6 in [r["node"] for r in spy.reads]
        assert all(f["src"] != 6 and f["dst"] == 6 for f in spy.flows)
        assert len(spy.flows) == self.N - 1

    def test_gated_source_resumes_at_physical_node(self):
        plan = self.plan()
        sim = plan.cluster.sim

        class StubAvailability:
            """Source 2 is mid-recovery until t=0.5, then lives on 5."""

            def __init__(self):
                self.gate = sim.event()
                self.redirect = {}

            def available(self, src):
                if src == 2 and not self.gate.triggered:
                    return self.gate
                return None

            def physical(self, src):
                return self.redirect.get(src, src)

            def open(self):
                self.redirect[2] = 5
                self.gate.succeed()

        stub = StubAvailability()
        plan.availability = stub
        plan.source_bytes = plan.node_store_bytes.copy()
        sim.schedule_callback(0.5, stub.open)
        spy = FetchSpy(plan)
        (proc,) = run_bodies(plan, [(0, 0)])
        assert all(r["file"] != plan.bundle_id(2) for r in spy.reads)
        late = [r for r in spy.reads if r["start"] >= 0.5]
        assert [(r["node"], r["file"]) for r in late] == \
            [(5, plan.bundle_id(5))]
        (moved,) = [f for f in spy.flows if f["slice"] == (0, 2)]
        assert moved["src"] == 5 and moved["start"] == 0.5
        assert sim.now > 0.5

    @pytest.mark.parametrize("store", ["ramdisk", "ssd"])
    def test_processes_scale_with_reducers_not_slices(self, store,
                                                      monkeypatch):
        created = []
        init = Process.__init__

        def counting(self, *args, **kwargs):
            created.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Process, "__init__", counting)
        n_reducers = 16
        plan = self.plan(n_reducers=n_reducers, store=store)
        spy = FetchSpy(plan)
        run_bodies(plan, [(r, r % self.N) for r in range(n_reducers)])
        assert len(spy.reads) == n_reducers * self.N
        # One process per reducer body; no page-cache read, slice or
        # semaphore wait adds one.
        assert len(created) == n_reducers
