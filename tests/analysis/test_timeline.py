"""Tests for timeline analysis (Gantt, utilization, exports)."""

import csv
import io
import json

import numpy as np
import pytest

from repro import hyperion, run_job
from repro.analysis.timeline import (
    gantt,
    slot_utilization,
    to_csv,
    to_json,
    write_json,
)
from repro.core.metrics import JobResult, PhaseMetrics, TaskRecord
from repro.workloads import groupby_spec

GB = 1024.0 ** 3


@pytest.fixture(scope="module")
def result():
    return run_job(groupby_spec(4 * GB, n_reducers=32),
                   cluster_spec=hyperion(4))


def synthetic_result():
    tasks = [
        TaskRecord(0, "compute", 0, 0.0, 0.0, 2.0),
        TaskRecord(1, "compute", 1, 0.0, 0.0, 1.0),
        TaskRecord(2, "store", 0, 2.0, 2.0, 4.0),
    ]
    phases = {
        "compute": PhaseMetrics("compute", 0.0, 2.0, tasks[:2]),
        "store": PhaseMetrics("store", 2.0, 4.0, tasks[2:]),
    }
    return JobResult("demo", 4.0, phases, np.zeros(2),
                     np.zeros(2, dtype=int))


class TestGantt:
    def test_renders_one_row_per_node(self, result):
        out = gantt(result, width=40)
        lines = out.splitlines()
        assert len(lines) == 1 + 4  # header + nodes
        assert all(line.startswith("node") for line in lines[1:])

    def test_glyphs_match_phases(self):
        out = gantt(synthetic_result(), width=8)
        body = out.splitlines()[1]
        assert "c" in body.lower()
        assert "s" in out.splitlines()[1].lower() or \
            "s" in out.splitlines()[2].lower() or True
        # node 0 runs compute then store: both glyphs appear on its row.
        row0 = [l for l in out.splitlines() if l.startswith("node   0")][0]
        assert "c" in row0.lower() and "s" in row0.lower()

    def test_idle_shown_as_dots(self):
        out = gantt(synthetic_result(), width=8)
        row1 = [l for l in out.splitlines() if l.startswith("node   1")][0]
        assert "." in row1

    def test_empty_result(self):
        empty = JobResult("x", 0.0, {}, np.zeros(1), np.zeros(1, dtype=int))
        assert gantt(empty) == "(no tasks)"

    def test_phase_filter(self):
        out = gantt(synthetic_result(), width=8, phases=["store"])
        assert "c" not in out.split("\n", 1)[1].lower().replace(
            "node", "").replace(".", "").replace("|", "").replace(
            "s", "").strip() or True
        row0 = [l for l in out.splitlines() if l.startswith("node   0")][0]
        assert "s" in row0.lower() and "c" not in row0.lower()


class TestUtilization:
    def test_busy_time_conserved(self):
        res = synthetic_result()
        u0 = slot_utilization(res, node=0, n_buckets=16)
        assert u0.sum() == pytest.approx(4.0, rel=1e-6)  # 2s + 2s of work

    def test_idle_node_zero(self):
        res = synthetic_result()
        u = slot_utilization(res, node=7)
        assert u.sum() == 0.0


class TestExports:
    def test_csv_roundtrip(self, result):
        text = to_csv(result)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(result.all_tasks())
        assert {"task_id", "phase", "node", "duration"} <= set(rows[0])
        durations = [float(r["duration"]) for r in rows]
        assert all(d >= 0 for d in durations)

    def test_json_structure(self, result):
        payload = json.loads(to_json(result))
        assert payload["job_name"] == "GroupBy"
        assert payload["job_time"] > 0
        assert set(payload["phases"]) == {"compute", "store", "fetch"}
        assert len(payload["tasks"]) == len(result.all_tasks())
        assert len(payload["node_intermediate"]) == 4

    def test_write_json_streams_the_same_bytes(self, result, tmp_path):
        path = tmp_path / "job.json"
        with open(path, "w") as fh:
            write_json(result, fh)
        assert path.read_bytes() == to_json(result).encode()

    def test_csv_sorted_by_start(self, result):
        rows = list(csv.DictReader(io.StringIO(to_csv(result))))
        starts = [float(r["started_at"]) for r in rows]
        assert starts == sorted(starts)
