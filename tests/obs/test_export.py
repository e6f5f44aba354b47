"""Exporters, validators, run-log reader, trace-event plumbing.

Round-trips a real instrumented run through both exporters, checks the
documents validate, and that the run-log reader reconstructs what the
probe sampled.  Also covers the trace-layer satellites: TraceEvent
immutability, the ring-eviction counter, and trace sinks.
"""

import json
import pickle
from math import isnan

import pytest

from repro.cluster.spec import GB, hyperion
from repro.core.engine import EngineOptions, run_job
from repro.core.faults import FaultPlan
from repro.core.metrics import PhaseMetrics, TaskRecord
from repro.obs.export import (RUNLOG_SCHEMA, chrome_trace, runlog_lines,
                              write_chrome_trace, write_runlog)
from repro.obs.runlog import load_runlog
from repro.obs.telemetry import Telemetry
from repro.obs.validate import validate_chrome_trace, validate_runlog
from repro.sim.core import Simulator
from repro.sim.trace import TraceEvent


@pytest.fixture(scope="module")
def traced_run():
    """One CAD+crash groupby run with telemetry — shared by the module."""
    from repro.workloads import groupby_spec
    tele = Telemetry(probe_period=0.05)
    options = EngineOptions(
        seed=5, cad=True,
        fault_plan=FaultPlan.single_crash(at=1.0, node=2, restart_at=4.0))
    result = run_job(groupby_spec(2 * GB), options=options,
                     cluster_spec=hyperion(4), telemetry=tele)
    return tele, result


class TestChromeTrace:
    def test_document_validates(self, traced_run):
        tele, _ = traced_run
        doc = chrome_trace(tele)
        assert validate_chrome_trace(doc) == []

    def test_task_lanes_never_overlap(self, traced_run):
        """Greedy lane packing must put concurrent attempts on distinct
        tids — overlapping X events on one lane render as garbage."""
        tele, _ = traced_run
        doc = chrome_trace(tele)
        by_lane = {}
        for ev in doc["traceEvents"]:
            if ev["ph"] == "X" and ev.get("cat") == "task":
                by_lane.setdefault((ev["pid"], ev["tid"]), []).append(
                    (ev["ts"], ev["ts"] + ev["dur"]))
        assert by_lane  # the run produced task spans
        for spans in by_lane.values():
            spans.sort()
            for (_, prev_end), (start, _) in zip(spans, spans[1:]):
                assert start >= prev_end - 1e-6

    def test_phases_flows_and_instants_present(self, traced_run):
        tele, _ = traced_run
        doc = chrome_trace(tele)
        cats = {ev.get("cat") for ev in doc["traceEvents"]}
        phs = {ev["ph"] for ev in doc["traceEvents"]}
        assert "phase" in cats
        assert "flow" in cats
        assert "i" in phs  # the crash/restart instants
        assert {"b", "e"} <= phs

    def test_counts_balance(self, traced_run):
        tele, _ = traced_run
        doc = chrome_trace(tele)
        b = sum(1 for e in doc["traceEvents"] if e["ph"] == "b")
        e = sum(1 for e in doc["traceEvents"] if e["ph"] == "e")
        assert b > 0
        assert e <= b  # flows cut short by the crash never end

    def test_write_is_loadable_json(self, traced_run, tmp_path):
        tele, _ = traced_run
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), tele)
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["job_name"]

    def test_validator_flags_garbage(self):
        assert validate_chrome_trace({"traceEvents": "nope"})
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "pid": 0, "tid": 0,
                              "ts": 0.0, "name": "x"}]})  # missing dur
        assert validate_chrome_trace({"traceEvents": []})  # no X at all


class TestRunLog:
    def test_lines_validate(self, traced_run):
        tele, _ = traced_run
        lines = list(runlog_lines(tele))
        assert validate_runlog(lines) == []
        assert json.loads(lines[0])["schema"] == RUNLOG_SCHEMA

    def test_chronological_merge(self, traced_run):
        tele, _ = traced_run
        ts = [json.loads(line)["t"] for line in runlog_lines(tele)
              if json.loads(line)["type"] in ("event", "sample")]
        assert ts == sorted(ts)

    def test_round_trip_through_loader(self, traced_run, tmp_path):
        tele, result = traced_run
        path = tmp_path / "run.jsonl"
        write_runlog(str(path), tele)
        log = load_runlog(str(path))
        assert log.meta["job_name"] == result.job_name
        assert len(log.times) == tele.probe.samples_taken
        assert len(log.events) == len(tele.events)
        # A sampled column survives the trip (NaN-for-null included).
        series = tele.series()
        key = "cad.delay_s"
        assert key in log.columns
        got = [v for v in log.columns[key]]
        want = series[key]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (isnan(g) and isnan(w)) or g == w

    def test_phase_windows_from_events(self, traced_run, tmp_path):
        tele, result = traced_run
        path = tmp_path / "run.jsonl"
        write_runlog(str(path), tele)
        log = load_runlog(str(path))
        windows = log.phase_windows()
        # "recovery" is derived post-run from task records, not from
        # live phase markers, so it appears in result.phases only.
        assert set(windows) == set(result.phases) - {"recovery"}
        for name, (t0, t1) in windows.items():
            assert t0 == result.phases[name].start
            assert t1 == result.phases[name].end

    def test_validator_flags_garbage(self):
        assert validate_runlog([])  # empty
        assert validate_runlog(['{"type": "event"}'])  # no meta header
        assert validate_runlog(
            ['{"type": "meta", "schema": 1}',
             '{"type": "event", "kind": "x"}'])  # event missing t


class TestTraceLayer:
    def test_trace_event_is_immutable(self):
        sim = Simulator()
        seen = []
        sim.add_trace_sink(seen.append)
        sim.trace("launch", task=1, node=0)
        ev = seen[0]
        with pytest.raises(Exception):
            ev.time = 99.0
        with pytest.raises(TypeError):
            ev.data["task"] = 2

    def test_trace_event_copies_mutable_payload(self):
        payload = {"nodes": 3}
        ev = TraceEvent(time=0.0, kind="k", data=payload)
        payload["nodes"] = 99
        assert ev.data["nodes"] == 3

    def test_trace_event_equality_and_pickle(self):
        """The slots record keeps the dataclass's value semantics, and a
        pickled copy (a deadlock report's trace tail crossing a worker
        process) restores without tripping the immutability guard."""
        ev = TraceEvent(1.5, "launch", {"task": 2})
        assert ev == TraceEvent(1.5, "launch", {"task": 2})
        assert ev != TraceEvent(1.5, "launch", {"task": 3})
        assert ev.record == (1.5, "launch", {"task": 2})
        assert pickle.loads(pickle.dumps(ev)) == ev
        assert repr(ev) == ("TraceEvent(time=1.5, kind='launch', "
                            "data={'task': 2})")

    def test_eviction_counter(self):
        sim = Simulator()
        sim.enable_trace(capacity=4)
        for i in range(10):
            sim.trace("tick", i=i)
        assert sim.trace_evictions == 6
        assert len(sim.trace_events()) == 4

    def test_sinks_unbounded_and_removable(self):
        sim = Simulator()
        seen = []
        sim.add_trace_sink(seen.append)
        for i in range(5):
            sim.trace("tick", i=i)
        sim.remove_trace_sink(seen.append)
        sim.trace("after")
        assert [e.data["i"] for e in seen] == [0, 1, 2, 3, 4]
        assert sim.trace_evictions == 0  # sinks never evict


def _phase(durations):
    tasks = [TaskRecord(task_id=i, phase="compute", node=0, queued_at=0.0,
                        started_at=0.0, finished_at=d)
             for i, d in enumerate(durations)]
    return PhaseMetrics(name="compute", start=0.0,
                        end=max(durations, default=0.0), tasks=tasks)


class TestMinMaxSpread:
    def test_empty_phase_is_nan(self):
        assert isnan(_phase([]).min_max_spread())

    def test_all_instantaneous_is_one(self):
        assert _phase([0.0, 0.0, 0.0]).min_max_spread() == 1.0

    def test_instantaneous_tasks_excluded_from_ratio(self):
        assert _phase([0.0, 2.0, 8.0]).min_max_spread() == 4.0

    def test_uniform_is_one(self):
        assert _phase([5.0, 5.0]).min_max_spread() == 1.0
