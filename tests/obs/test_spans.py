"""Span recorder + critical-path attribution (the PR 10 tentpole).

The load-bearing acceptance assertion lives here: on a seeded
shuffle-heavy run the critical path's category attribution sums to the
job wall-clock (the partition is exact by construction — these tests
pin it), the chain is gapless, and the bottleneck node/device are
named.  A second group asserts the explanation survives the JSONL
round trip and that assembling spans never perturbs the simulation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.spec import GB, hyperion
from repro.core.engine import EngineOptions, JobSpec, run_job
from repro.core.memory import MemoryConfig
from repro.obs.critpath import (CATEGORIES, _wait_segment, attribution,
                                bottleneck, critical_path, explain_lines,
                                node_blame)
from repro.obs.spans import (WAIT_KINDS, Span, SpanRecorder, base_phase,
                             phase_key)
from repro.obs.telemetry import Telemetry, traced_count
from repro.sim.trace import TraceEvent
from repro.workloads import groupby_spec

_EPS = 1e-6


def _shuffle_heavy(telemetry=None):
    """Congested SSD shuffle under CAD + a tight managed heap: the run
    produces throttle waits, memory declines, and CAD steps."""
    return run_job(
        groupby_spec(24 * GB, shuffle_store="ssd", n_reducers=32),
        cluster_spec=hyperion(2),
        options=EngineOptions(cad=True, seed=0,
                              memory=MemoryConfig(mem_frac=0.4)),
        telemetry=telemetry)


@pytest.fixture(scope="module")
def heavy():
    tele = Telemetry(probe_period=0.25)
    result = _shuffle_heavy(tele)
    return tele, result, SpanRecorder.from_telemetry(tele)


class TestSpanTree:
    def test_three_level_tree(self, heavy):
        _, result, rec = heavy
        assert rec.job is not None
        assert rec.job.end == result.job_time
        assert rec.phases and rec.attempts
        phase_ids = {p.span_id for p in rec.phases}
        for att in rec.attempts:
            assert att.parent_id in phase_ids
            assert att.end is not None
            assert att.attrs["outcome"] in ("complete", "interrupt",
                                            "failure", "unfinished")

    def test_every_attempt_has_queued_edge(self, heavy):
        _, _, rec = heavy
        assert len(rec.edges_of("queued-at")) == len(rec.attempts)

    def test_wait_edges_recorded(self, heavy):
        _, _, rec = heavy
        kinds = {e.kind for e in rec.edges}
        assert "throttle-wait" in kinds or "mem-wait" in kinds
        assert rec.wait_index
        for times, codes in rec.wait_index.values():
            assert len(times) == len(codes)
            assert list(times) == sorted(times)

    def test_at_most_one_wait_edge_per_kind_per_attempt(self, heavy):
        _, _, rec = heavy
        seen = set()
        for e in rec.edges:
            if e.kind in ("throttle-wait", "mem-wait"):
                assert (e.dst, e.kind) not in seen
                seen.add((e.dst, e.kind))
                assert e.attrs["t"] <= e.attrs["last"]
                assert e.attrs["n"] >= 1

    def test_wait_tallies_count_every_consumed_decline(self, heavy):
        # A decline is consumed by the next launch on its node; the
        # declines after a node's last launch explain nothing.  A
        # block-end stands for the n - 1 repeats of its decision.
        tele, _, rec = heavy
        pending, consumed = {}, {"throttle": 0, "mem-decline": 0}
        for _, kind, d in tele.events:
            if kind in consumed:
                pending.setdefault(d["node"], []).append(kind)
            elif kind == "block-end" and d["of"] in consumed:
                pending[d["node"]].extend([d["of"]] * (d["n"] - 1))
            elif kind == "launch":
                for k in pending.pop(d["node"], ()):
                    consumed[k] += 1
        tallied = {kind: sum(e.attrs["n"] for e in rec.edges_of(kind))
                   for kind in ("throttle-wait", "mem-wait")}
        assert tallied == {"throttle-wait": consumed["throttle"],
                           "mem-wait": consumed["mem-decline"]}
        assert sum(tallied.values()) > len(rec.attempts)

    def test_edge_count_does_not_grow_with_declines(self, heavy):
        # 980 declines; one wait edge per decline made this 1,234, and
        # the fetch-source edges (one per shuffle flow) 448.
        tele, _, rec = heavy
        assert sum(len(times) for times, _ in
                   rec.wait_index.values()) == 980
        assert len(rec.edges) == 416
        # The log keeps each block's opening and one block-end.
        assert sum(1 for _, kind, _ in tele.events
                   if kind in ("throttle", "mem-decline")) == 202

    def test_phase_key_round_trip(self):
        assert phase_key("store") == "store"
        assert phase_key("store", 2) == "store[2]"
        assert base_phase("store[2]") == "store"
        assert base_phase("compute") == "compute"


class TestCriticalPath:
    def test_attribution_sums_to_wall_clock(self, heavy):
        _, result, rec = heavy
        attr = attribution(critical_path(rec))
        assert sum(attr.values()) == pytest.approx(result.job_time,
                                                   abs=_EPS)

    def test_chain_is_gapless_and_ordered(self, heavy):
        _, result, rec = heavy
        segs = critical_path(rec)
        assert segs[0].start == pytest.approx(0.0, abs=_EPS)
        assert segs[-1].end == pytest.approx(result.job_time, abs=_EPS)
        for a, b in zip(segs, segs[1:]):
            assert b.start == pytest.approx(a.end, abs=_EPS)
            assert b.end > b.start

    def test_all_categories_present(self, heavy):
        _, _, rec = heavy
        attr = attribution(critical_path(rec))
        assert set(attr) == set(CATEGORIES)

    def test_congestion_shows_up_as_throttle_time(self, heavy):
        _, _, rec = heavy
        attr = attribution(critical_path(rec))
        assert attr["scheduler-throttle"] > 0

    def test_bottleneck_names_node_and_device(self, heavy):
        tele, result, rec = heavy
        segs = critical_path(rec)
        node, node_s, dev, dev_s = bottleneck(segs, tele.meta)
        assert node in range(2)
        assert node_s == pytest.approx(max(node_blame(segs).values()))
        # The congested store dominates: the SSD is the named device.
        assert dev == "ssd"
        assert 0 < dev_s <= result.job_time + _EPS

    def test_iterative_rounds_nest_and_still_sum(self):
        spec = JobSpec(name="IterShuffle", input_bytes=2 * GB,
                       shuffle_store="ramdisk", intermediate_ratio=0.5,
                       iterations=3)
        tele = Telemetry()
        result = run_job(spec, cluster_spec=hyperion(2),
                         options=EngineOptions(seed=1), telemetry=tele)
        rec = SpanRecorder.from_telemetry(tele)
        names = [p.name for p in rec.phases]
        assert "store[0]" in names and "fetch[2]" in names
        attr = attribution(critical_path(rec))
        assert sum(attr.values()) == pytest.approx(result.job_time,
                                                   abs=_EPS)
        assert attr["store"] > 0 and attr["fetch"] > 0

    def test_explain_lines_deterministic_across_runs(self, heavy):
        tele, _, rec = heavy
        again = Telemetry(probe_period=0.25)
        _shuffle_heavy(again)
        rec2 = SpanRecorder.from_telemetry(again)
        assert explain_lines(rec, tele.meta) == \
            explain_lines(rec2, again.meta)


def _linear_wait_category(events, w0, w1, node, eps=1e-9):
    """The rule as DESIGN.md §15 states it, over one ``(t, category,
    node)`` tuple per decision in sorted order: the last decision on the
    node inside ``[w0 - eps, w1 + eps]`` names the wait, so at equal
    times the larger category string wins."""
    cat = "queueing"
    for t, wcat, n in sorted(events):
        if w0 - eps <= t <= w1 + eps and n == node:
            cat = wcat
    return cat


#: Wait category -> the decision kind that records it.
_KIND_OF = {"scheduler-throttle": "throttle", "memory-wait": "mem-decline"}

# Times on a coarse grid, some nudged by about the tolerance, so window
# edges and ties land exactly on or just beside decision times.
_TIMES = st.builds(lambda k, d: k * 0.5 + d, st.integers(0, 8),
                   st.sampled_from([0.0, 0.0, 1e-9, -1e-9, 2e-9]))


def _decision_events(events):
    """``(t, category, node)`` tuples as the per-decision trace stream
    the scheduler emits, in the given order."""
    return [(t, _KIND_OF[wcat], {"node": node, "reason": "pacing",
                                 "elastic": False})
            for t, wcat, node in events]


class TestWaitSegment:
    def _segment(self, events, w0, w1, node):
        rec = SpanRecorder.from_events(_decision_events(events))
        cur = Span(0, None, "attempt", "fetch#1", w1, node=node)
        return _wait_segment(rec, w0, w1, cur)

    def test_last_decision_on_the_node_wins(self):
        events = [(1.0, "scheduler-throttle", 0), (2.0, "memory-wait", 0),
                  (2.5, "scheduler-throttle", 1),
                  (3.5, "scheduler-throttle", 0)]
        seg = self._segment(events, 0.5, 3.0, 0)
        assert (seg.start, seg.end, seg.category, seg.node) == \
            (0.5, 3.0, "memory-wait", 0)
        assert self._segment(events, 0.5, 3.0, 2).category == "queueing"

    @settings(max_examples=300, deadline=None)
    @given(events=st.lists(st.tuples(
               _TIMES, st.sampled_from(["memory-wait",
                                        "scheduler-throttle"]),
               st.integers(0, 2)), max_size=12),
           w0=_TIMES, span=_TIMES, node=st.integers(0, 2))
    def test_bisection_matches_the_linear_rule(self, events, w0, span,
                                               node):
        w1 = w0 + span
        assert self._segment(events, w0, w1, node).category == \
            _linear_wait_category(events, w0, w1, node)

    @settings(max_examples=300, deadline=None)
    @given(passes=st.lists(st.tuples(
               _TIMES,
               st.lists(st.tuples(st.integers(0, 2), st.sampled_from(
                   ["throttle-pacing", "throttle-concurrency",
                    "mem-rigid", "decline", "launch"])),
                        max_size=4)),
               max_size=10),
           w0=_TIMES, span=_TIMES, node=st.integers(0, 2))
    def test_coalesced_index_matches_the_per_pass_rule(self, passes, w0,
                                                       span, node):
        """Offer passes at sorted times (several at one time give
        equal-time ties across categories), each visiting some nodes;
        the per-pass stream goes through the telemetry sink, whose
        coalesced log must fold to the per-pass rule's categories and
        the same wait tallies."""
        stream = []
        for t, visits in sorted(passes, key=lambda p: p[0]):
            for n, what in visits:
                kind, _, reason = what.partition("-")
                kind = {"mem": "mem-decline"}.get(kind, kind)
                stream.append((t, kind, {"node": n, "reason": reason,
                                         "elastic": False, "task": 0}))
        tele = Telemetry()
        for t, kind, d in stream:
            tele._sink(TraceEvent(t, kind, d))
        tele.finish()
        assert traced_count(tele.events) == len(stream)
        oracle = [(t, WAIT_KINDS[kind], d["node"])
                  for t, kind, d in stream if kind in WAIT_KINDS]
        rec = SpanRecorder.from_events(tele.events)
        per_pass = SpanRecorder.from_events(stream)
        w1 = w0 + span
        cur = Span(0, None, "attempt", "fetch#1", w1, node=node)
        assert _wait_segment(rec, w0, w1, cur).category == \
            _linear_wait_category(oracle, w0, w1, node)
        assert [(e.dst, e.kind, e.attrs) for e in rec.edges] == \
            [(e.dst, e.kind, e.attrs) for e in per_pass.edges]
        assert {k: (list(a), list(b)) for k, (a, b) in
                rec.wait_index.items()} == \
            {k: (list(a), list(b)) for k, (a, b) in
             per_pass.wait_index.items()}


class TestRoundTripAndInvariance:
    def test_runlog_round_trip_gives_same_explanation(self, heavy,
                                                      tmp_path):
        from repro.obs.export import write_runlog
        from repro.obs.runlog import load_runlog
        tele, _, rec = heavy
        path = tmp_path / "run.jsonl"
        write_runlog(str(path), tele)
        log = load_runlog(str(path))
        rec2 = SpanRecorder.from_runlog(log)
        assert explain_lines(rec, tele.meta) == \
            explain_lines(rec2, log.meta)
        # The block-ends' exact repeat times survive the trip, so the
        # wait index and the critical path are the same.
        assert [(s.start, s.end, s.category, s.node, s.detail)
                for s in critical_path(rec2)] == \
            [(s.start, s.end, s.category, s.node, s.detail)
             for s in critical_path(rec)]
        assert {k: (list(a), list(b)) for k, (a, b) in
                rec2.wait_index.items()} == \
            {k: (list(a), list(b)) for k, (a, b) in
             rec.wait_index.items()}

    def test_spans_never_perturb_the_simulation(self, heavy):
        _, observed, rec = heavy
        bare = _shuffle_heavy()
        assert observed.job_time == bare.job_time
        assert sorted((t.task_id, t.phase, t.node, t.started_at,
                       t.finished_at) for t in observed.all_tasks()) == \
            sorted((t.task_id, t.phase, t.node, t.started_at,
                    t.finished_at) for t in bare.all_tasks())
        # ... and the explanation covers exactly that unperturbed run.
        assert sum(attribution(critical_path(rec)).values()) == \
            pytest.approx(bare.job_time, abs=_EPS)

    def test_empty_recorder_yields_no_path(self):
        rec = SpanRecorder.from_events([], t_end=0.0)
        assert critical_path(rec) == []
        assert attribution([]) == {c: 0.0 for c in CATEGORIES}
