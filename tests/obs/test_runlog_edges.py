"""RunLog edge cases: degenerate windows, iteration-suffixed and
unclosed phases, and torn trailing lines (a run killed mid-write must
still load)."""

import json
from math import isnan

import pytest

from repro.analysis.timeline import phase_utilization
from repro.obs.runlog import RunLog, load_runlog
from repro.obs.spans import SpanRecorder


def _log_with(events=(), times=(), columns=None):
    log = RunLog()
    for e in events:
        payload = dict(e)
        log.events.append(payload.pop("t"), payload.pop("kind"), payload)
    log.times = list(times)
    log.columns = {k: list(v) for k, v in (columns or {}).items()}
    return log


def _phase(t0, t1, phase="compute", **extra):
    return [{"t": t0, "kind": "phase-start", "phase": phase, **extra},
            {"t": t1, "kind": "phase-end", "phase": phase, **extra}]


class TestWindowMean:
    """Window means as ``repro report`` takes them: over a phase span,
    both bounds inclusive, NaN samples skipped."""

    def _free_slots(self, t0, t1, times, column=None):
        columns = {} if column is None else {"sched.free_slots": column}
        log = _log_with(events=_phase(t0, t1), times=times,
                        columns=columns)
        return phase_utilization(log)["compute"]["free_slots"]

    def test_empty_window_is_nan(self):
        assert isnan(self._free_slots(5.0, 6.0, [0.0, 1.0], [1.0, 2.0]))

    def test_degenerate_window_t0_equals_t1(self):
        # A zero-width window still includes a sample landing exactly
        # on it (both bounds are inclusive).
        times, column = [0.0, 1.0, 2.0], [1.0, 4.0, 9.0]
        assert self._free_slots(1.0, 1.0, times, column) == 4.0
        assert isnan(self._free_slots(1.5, 1.5, times, column))

    def test_missing_column_is_nan(self):
        assert isnan(self._free_slots(0.0, 1.0, [0.0]))

    def test_nan_samples_skipped(self):
        assert self._free_slots(0.0, 1.0, [0.0, 1.0],
                                [float("nan"), 3.0]) == 3.0


class TestPhaseWindows:
    """A run log's phase windows are the phase spans of its span tree."""

    @staticmethod
    def _windows(log):
        return {sp.name: (sp.start, sp.end)
                for sp in SpanRecorder.from_runlog(log).phases}

    def test_iteration_rounds_do_not_collide(self):
        # Three store rounds share the phase name; the round suffix must
        # keep their windows apart (round 2's end must not close round
        # 0's start).
        events = []
        for i, (t0, t1) in enumerate([(0.0, 1.0), (2.0, 3.0),
                                      (4.0, 5.0)]):
            events += _phase(t0, t1, "store", round=i)
        windows = self._windows(_log_with(events=events))
        assert windows == {"store[0]": (0.0, 1.0), "store[1]": (2.0, 3.0),
                           "store[2]": (4.0, 5.0)}

    def test_unsuffixed_phase_unchanged(self):
        log = _log_with(events=_phase(0.0, 2.5))
        assert self._windows(log) == {"compute": (0.0, 2.5)}

    def test_unclosed_phase_ends_at_last_timestamp(self):
        log = _log_with(events=[
            {"t": 1.0, "kind": "phase-start", "phase": "store",
             "round": 2},
            {"t": 7.0, "kind": "launch", "task": 0, "node": 0}])
        assert self._windows(log) == {"store[2]": (1.0, 7.0)}

    def test_unclosed_phase_ends_at_a_last_event_the_fold_skips(self):
        # The fold reads no flow records, but the last one still ends
        # the run.
        log = _log_with(events=[
            {"t": 1.0, "kind": "phase-start", "phase": "fetch"},
            {"t": 8.0, "kind": "flow-end", "fid": 0, "src": 0, "dst": 1,
             "nbytes": 1.0}])
        assert self._windows(log) == {"fetch": (1.0, 8.0)}

    def test_unclosed_phase_ends_at_header_job_time(self):
        log = _log_with(events=[
            {"t": 1.0, "kind": "phase-start", "phase": "fetch"},
            {"t": 7.0, "kind": "launch", "task": 0, "node": 0}])
        log.meta = {"job_time_s": 9.0}
        assert self._windows(log) == {"fetch": (1.0, 9.0)}

    def test_concurrent_jobs_keep_their_own_rows(self):
        # Two serve-stream jobs run the same phase at once: each gets a
        # span, and the report labels the rows with the job tag.
        log = _log_with(events=[
            {"t": 0.0, "kind": "phase-start", "phase": "compute",
             "job": "a/0"},
            {"t": 1.0, "kind": "phase-start", "phase": "compute",
             "job": "b/0"},
            {"t": 2.0, "kind": "phase-end", "phase": "compute",
             "job": "a/0"},
            {"t": 3.0, "kind": "phase-end", "phase": "compute",
             "job": "b/0"}])
        util = phase_utilization(log)
        assert {k: (u["start"], u["end"]) for k, u in util.items()} == \
            {"a/0:compute": (0.0, 2.0), "b/0:compute": (1.0, 3.0)}


class TestLoadRunlogTornTail:
    def _write(self, tmp_path, lines):
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join(lines))
        return str(path)

    def test_truncated_final_line_salvages_the_rest(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"type": "meta", "workload": "g"}),
            json.dumps({"type": "event", "t": 1.0, "kind": "launch"}),
            '{"type": "event", "t": 2.0, "ki',  # torn mid-record
        ])
        log = load_runlog(path)
        assert log.meta["workload"] == "g"
        assert len(log.events) == 1

    def test_garbage_final_line_tolerated(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"type": "event", "t": 1.0, "kind": "launch"}),
            "not json at all",
        ])
        assert len(load_runlog(path).events) == 1

    def test_garbage_mid_file_still_raises(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"type": "meta"}),
            "not json at all",
            json.dumps({"type": "event", "t": 1.0, "kind": "launch"}),
        ])
        with pytest.raises(ValueError):
            load_runlog(path)

    def test_trailing_blank_lines_ignored(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"type": "event", "t": 1.0, "kind": "launch"}),
            "", "", ""])
        assert len(load_runlog(path).events) == 1


class TestLoadRunlogSchema:
    """Schemas 1 and 2 load; any other version fails by name."""

    def _write(self, tmp_path, meta):
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join([
            json.dumps({"type": "meta", **meta}),
            json.dumps({"type": "event", "t": 1.0, "kind": "launch"})]))
        return str(path)

    @pytest.mark.parametrize("meta", [{}, {"schema": 1}, {"schema": 2}])
    def test_known_schemas_load(self, tmp_path, meta):
        assert len(load_runlog(self._write(tmp_path, meta)).events) == 1

    @pytest.mark.parametrize("schema", [0, 3, "2"])
    def test_unknown_schema_names_version_and_path(self, tmp_path,
                                                   schema):
        path = self._write(tmp_path, {"schema": schema})
        with pytest.raises(ValueError) as exc:
            load_runlog(path)
        assert f"schema {schema!r}" in str(exc.value)
        assert path in str(exc.value)


class TestLoadRunlogMemory:
    """A loaded run log keeps its events packed: a ``flow-start`` or
    ``flow-end`` record (four numbers) retains a few dozen bytes, not
    the ~350 B of a dict with boxed values."""

    N = 20_000

    def _flow_lines(self):
        yield json.dumps({"type": "meta", "schema": 2})
        for i in range(self.N // 2):
            for kind in ("flow-start", "flow-end"):
                yield json.dumps({"type": "event", "t": i * 1e-3,
                                  "kind": kind, "fid": i, "src": i % 7,
                                  "dst": i % 5, "nbytes": 1e6 + i})

    def test_packed_records_torn_tail_and_corrupt_middle(self, tmp_path):
        import tracemalloc
        lines = list(self._flow_lines())
        path = tmp_path / "flows.jsonl"
        path.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            log = load_runlog(str(path))
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(log.events) == self.N
        assert retained / self.N <= 64, retained / self.N
        assert list(log.events)[-1] == (
            (self.N // 2 - 1) * 1e-3, "flow-end",
            {"fid": self.N // 2 - 1, "src": (self.N // 2 - 1) % 7,
             "dst": (self.N // 2 - 1) % 5,
             "nbytes": 1e6 + self.N // 2 - 1})

        torn = tmp_path / "torn.jsonl"
        torn.write_text("\n".join(lines[:-1] + [lines[-1][:25]]))
        assert len(load_runlog(str(torn)).events) == self.N - 1

        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text("\n".join(
            lines[:100] + [lines[100][:25]] + lines[101:]))
        with pytest.raises(ValueError):
            load_runlog(str(corrupt))
