"""Exporters, validators, run-log reader, trace-event plumbing.

Round-trips a real instrumented run through both exporters, checks the
documents validate, and that the run-log reader reconstructs what the
probe sampled.  Also covers the trace-layer satellites: TraceEvent
immutability, the ring-eviction counter, and trace sinks.
"""

import io
import json
import pickle
from collections import Counter
from dataclasses import replace
from math import isnan

import pytest

from repro.cluster.spec import GB, hyperion
from repro.core.engine import EngineOptions, run_job
from repro.core.faults import FaultPlan
from repro.core.metrics import PhaseMetrics, TaskRecord
from repro.cli import main
from repro.obs import export
from repro.obs.export import (RUNLOG_SCHEMA, chrome_trace, runlog_lines,
                              write_chrome_trace, write_runlog)
from repro.analysis.timeline import phase_utilization
from repro.obs.runlog import load_runlog
from repro.obs.spans import SpanRecorder
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


@pytest.fixture(scope="module")
def pressure_run():
    """A tight heap on two nodes: memory declines repeat on every offer
    pass, so the log has block-end records."""
    from repro.core.memory import MemoryConfig
    from repro.workloads import groupby_spec
    tele = Telemetry(probe_period=0.25)
    run_job(groupby_spec(4 * GB, shuffle_store="ssd"),
            cluster_spec=hyperion(2),
            options=EngineOptions(cad=True, seed=0,
                                  memory=MemoryConfig(mem_frac=0.4)),
            telemetry=tele)
    return tele


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

    def test_block_ends_are_engine_instants_without_times(self,
                                                          pressure_run):
        tele = pressure_run
        doc = chrome_trace(tele)
        assert validate_chrome_trace(doc) == []
        ends = [e for e in doc["traceEvents"] if e["name"] == "block-end"]
        assert len(ends) == sum(1 for _, kind, _ in tele.events
                                if kind == "block-end") > 0
        for e in ends:
            assert e["ph"] == "i" and e["cat"] == "event"
            assert e["args"]["n"] >= 2 and "last" in e["args"]
            assert "times" not in e["args"]

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

    def test_streamed_file_is_json_dump_bytes(self, tmp_path, monkeypatch):
        """On the CI trace-smoke run (CAD, a mid-job crash, probes),
        the file written one event at a time holds the bytes of
        ``json.dump(chrome_trace(...), default=str)`` plus a newline."""
        seen = []
        write = export.write_chrome_trace

        def keep(path, telemetry):
            seen.append(telemetry)
            write(path, telemetry)

        monkeypatch.setattr(export, "write_chrome_trace", keep)
        path = tmp_path / "trace.json"
        assert main(["run", "--workload", "groupby", "--data-gb", "8",
                     "--nodes", "4", "--store", "ssd", "--cad", "--seed",
                     "11", "--crash", "1@1.0:3.0", "--probe-period", "0.1",
                     "--trace-out", str(path)]) == 0
        (tele,) = seen
        whole = io.StringIO()
        json.dump(chrome_trace(tele), whole, default=str)
        whole.write("\n")
        assert path.read_bytes() == whole.getvalue().encode()

    @staticmethod
    def _lane_doc(*spans):
        return {"traceEvents": [
            {"ph": "X", "pid": 0, "tid": 0, "ts": ts, "dur": dur,
             "name": f"s{i}"} for i, (ts, dur) in enumerate(spans)]}

    def test_validator_accepts_disjoint_lane_events(self):
        assert validate_chrome_trace(self._lane_doc((0, 5), (5, 5),
                                                    (20, 1))) == []

    def test_validator_accepts_nested_lane_events(self):
        assert validate_chrome_trace(self._lane_doc((0, 10), (2, 3),
                                                    (5, 5))) == []

    def test_validator_rejects_crossing_lane_events(self):
        problems = validate_chrome_trace(self._lane_doc((0, 10), (5, 10)))
        assert len(problems) == 1 and "crosses" in problems[0]
        # The same pair on two lanes is fine.
        doc = self._lane_doc((0, 10), (5, 10))
        doc["traceEvents"][1]["tid"] = 1
        assert validate_chrome_trace(doc) == []

    def test_validator_flags_garbage(self):
        assert validate_chrome_trace({"traceEvents": "nope"})
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "pid": 0, "tid": 0,
                              "ts": 0.0, "name": "x"}]})  # missing dur
        assert validate_chrome_trace({"traceEvents": []})  # no X at all


def _x_events(doc, cat):
    return [e for e in doc["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == cat]


def _launch_phases(tele):
    return Counter(d["phase"] for _, kind, d in tele.events
                   if kind == "launch")


class TestIterativeRounds:
    """M3R-style partition-stable rounds: every attempt and phase keeps
    the name the span tree gives it."""

    @pytest.fixture(scope="class")
    def rounds(self):
        from repro.workloads import groupby_spec
        spec = replace(groupby_spec(4 * GB, shuffle_store="ssd",
                                    combiner=True),
                       iterations=3, partition_stable=True)
        tele = Telemetry()
        run_job(spec, cluster_spec=hyperion(4),
                options=EngineOptions(seed=3), telemetry=tele)
        return tele, chrome_trace(tele)

    def test_task_names_follow_launch_phase(self, rounds):
        tele, doc = rounds
        names = Counter(e["name"].partition("#")[0]
                        for e in _x_events(doc, "task"))
        assert names == _launch_phases(tele)
        assert names["compute"] == 48

    def test_phase_spans_are_round_qualified(self, rounds):
        _, doc = rounds
        names = [e["name"] for e in _x_events(doc, "phase")]
        assert sorted(n for n in names if n[:5] in ("store", "fetch")) == \
            ["fetch[0]", "fetch[1]", "fetch[2]",
             "store[0]", "store[1]", "store[2]"]
        assert validate_chrome_trace(doc) == []


class TestConcurrentJobs:
    """A serve stream's interleaved jobs (``stream_sustained``, quick):
    one phase span and one report row per (job, phase), and no two
    complete events crossing on a lane."""

    @pytest.fixture(scope="class")
    def stream(self):
        from repro.bench.scenarios import run_scenario
        tele = Telemetry(probe_period=0.25)
        run_scenario("stream_sustained", quick=True, telemetry=tele)
        return tele, chrome_trace(tele)

    def test_one_phase_event_per_span(self, stream):
        tele, doc = stream
        phases = SpanRecorder.from_telemetry(tele).phases
        assert len(phases) == 18
        got = [(e["name"], e["args"]["job"], e["ts"])
               for e in _x_events(doc, "phase")]
        assert got == [(sp.name, sp.attrs["job"], sp.start * 1e6)
                       for sp in phases]

    def test_no_lane_has_crossing_events(self, stream):
        _, doc = stream
        lanes = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                lanes.setdefault((e["pid"], e["tid"]), []).append(
                    (e["ts"], e["ts"] + e["dur"]))
        for spans in lanes.values():
            spans.sort(key=lambda s: (s[0], -s[1]))
            enclosing = []  # ends of the spans still open, innermost last
            for ts, end in spans:
                while enclosing and enclosing[-1] <= ts + 1e-3:
                    enclosing.pop()
                assert not enclosing or end <= enclosing[-1] + 1e-3
                enclosing.append(end)
        assert validate_chrome_trace(doc) == []

    def test_task_names_follow_launch_phase(self, stream):
        tele, doc = stream
        names = Counter(e["name"].partition("#")[0]
                        for e in _x_events(doc, "task"))
        assert names == _launch_phases(tele)

    def test_report_has_a_row_per_job_phase(self, stream, tmp_path):
        tele, _ = stream
        path = tmp_path / "run.jsonl"
        write_runlog(str(path), tele)
        util = phase_utilization(load_runlog(str(path)))
        assert len(util) == 18
        assert all(":" in label for label in util)


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
        windows = {sp.name: (sp.start, sp.end)
                   for sp in SpanRecorder.from_runlog(log).phases}
        # "recovery" is derived post-run from task records, not from
        # live phase markers, so it appears in result.phases only.
        assert windows == {name: (ph.start, ph.end)
                           for name, ph in result.phases.items()
                           if name != "recovery"}

    def test_coalesced_log_validates_with_block_ends(self, pressure_run):
        lines = list(runlog_lines(pressure_run))
        kinds = Counter(json.loads(line).get("kind") for line in lines)
        assert kinds["block-end"] > 0
        assert validate_runlog(lines) == []

    @staticmethod
    def _log(*events):
        return ([json.dumps({"type": "meta", "schema": RUNLOG_SCHEMA})]
                + [json.dumps({"type": "event", **e}) for e in events]
                + [json.dumps({"type": "summary"})])

    _THROTTLE = {"t": 1.0, "kind": "throttle", "node": 0,
                 "reason": "pacing"}
    _END = {"t": 2.0, "kind": "block-end", "node": 0, "of": "throttle",
            "reason": "pacing", "n": 2, "last": 1.5, "times": [1.5]}

    def test_validator_accepts_a_closed_block(self):
        assert validate_runlog(self._log(self._THROTTLE, self._END)) == []

    def test_validator_flags_orphan_block_end(self):
        problems = validate_runlog(self._log(self._END))
        assert len(problems) == 1 and "closes no open block" in problems[0]
        # Closed already by a launch on the node, or open on another
        # node, kind or reason: still an orphan.
        for opener in (
                [self._THROTTLE, {"t": 1.0, "kind": "launch", "node": 0}],
                [dict(self._THROTTLE, node=1)],
                [dict(self._THROTTLE, kind="decline")],
                [dict(self._THROTTLE, reason="concurrency")]):
            problems = validate_runlog(self._log(*opener, self._END))
            assert len(problems) == 1, opener
            assert "closes no open block" in problems[0]

    def test_validator_flags_a_bad_repeat_count(self):
        for bad in ({"n": 1, "times": []}, {"times": [1.2, 1.5]}):
            problems = validate_runlog(
                self._log(self._THROTTLE, dict(self._END, **bad)))
            assert len(problems) == 1, bad

    def test_validator_flags_events_out_of_time_order(self):
        problems = validate_runlog(self._log(
            {"t": 2.0, "kind": "offer"}, {"t": 1.0, "kind": "offer"}))
        assert len(problems) == 1 and "before the previous" in problems[0]

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
