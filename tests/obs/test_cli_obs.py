"""End-to-end CLI flow: run --trace-out/--metrics-out → validate → report.

Mirrors CI's trace-smoke job but at test-suite scale, so a breakage in
the exporter surface shows up here before it shows up in CI artifacts.
"""

import json

import pytest

from repro.cli import main
from repro.obs.validate import main as validate_main


def _run_traced(tmp_path, *extra):
    trace = tmp_path / "trace.json"
    runlog = tmp_path / "run.jsonl"
    rc = main(["run", "--workload", "groupby", "--data-gb", "2",
               "--nodes", "2", "--seed", "1",
               "--trace-out", str(trace), "--metrics-out", str(runlog),
               "--probe-period", "0.05", *extra])
    assert rc == 0
    return trace, runlog


class TestRunCapture:
    def test_run_writes_both_artifacts(self, tmp_path, capsys):
        trace, runlog = _run_traced(tmp_path)
        out = capsys.readouterr().out
        assert "wrote Chrome trace" in out
        assert "wrote run log" in out
        assert trace.exists() and runlog.exists()

    def test_artifacts_pass_the_validator_cli(self, tmp_path, capsys):
        trace, runlog = _run_traced(tmp_path)
        assert validate_main([str(trace), str(runlog)]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") >= 2

    def test_validator_cli_rejects_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "X"}]}')
        assert validate_main([str(bad)]) != 0

    def test_report_renders_phase_table(self, tmp_path, capsys):
        _, runlog = _run_traced(tmp_path, "--cad")
        capsys.readouterr()
        assert main(["report", str(runlog)]) == 0
        out = capsys.readouterr().out
        assert "compute" in out and "store" in out and "fetch" in out
        # Job runs get the span-sourced attribution instead of the old
        # flat counter totals (PR 10).
        assert "critical-path attribution:" in out
        assert "bottleneck:" in out
        assert "scheduler decisions:" in out

    def test_bad_probe_period_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "groupby", "--data-gb", "2",
                  "--nodes", "2", "--trace-out",
                  str(tmp_path / "t.json"), "--probe-period", "0"])

    def test_crash_run_traces_fault_instants(self, tmp_path):
        # Restart must land before the job ends or it never fires.
        trace, _ = _run_traced(tmp_path, "--crash", "1@1.0:2.0")
        doc = json.loads(trace.read_text())
        instants = {e["name"] for e in doc["traceEvents"]
                    if e["ph"] == "i"}
        assert "fault-crash" in instants
        assert "fault-restart" in instants


class TestExplainCli:
    _FLAGS = ["--workload", "groupby", "--data-gb", "2", "--nodes", "2",
              "--seed", "1", "--cad"]

    def test_run_mode_is_deterministic(self, capsys):
        assert main(["explain", *self._FLAGS]) == 0
        first = capsys.readouterr().out
        assert main(["explain", *self._FLAGS]) == 0
        assert capsys.readouterr().out == first
        assert "critical path" in first
        assert "time attribution:" in first
        assert "bottleneck device:" in first
        assert "scheduler decisions:" in first

    def test_runlog_mode_matches_run_mode(self, tmp_path, capsys):
        # Same job via --metrics-out: the post-mortem explanation must
        # equal the live one (spans survive the JSONL round-trip).
        _, runlog = _run_traced(tmp_path, "--cad")
        capsys.readouterr()
        assert main(["explain", str(runlog)]) == 0
        from_log = capsys.readouterr().out
        assert main(["explain", *self._FLAGS]) == 0
        live = capsys.readouterr().out
        assert from_log == live

    def test_json_matches_telemetry_off_run(self, tmp_path, capsys):
        off, on = tmp_path / "off.json", tmp_path / "on.json"
        assert main(["run", *self._FLAGS, "--json", str(off)]) == 0
        assert main(["explain", *self._FLAGS, "--json", str(on)]) == 0
        assert off.read_text() == on.read_text()

    def test_json_rejected_in_runlog_mode(self, tmp_path):
        _, runlog = _run_traced(tmp_path)
        with pytest.raises(SystemExit):
            main(["explain", str(runlog), "--json",
                  str(tmp_path / "x.json")])

    def test_serve_explain_appends_to_unchanged_summary(self, capsys):
        serve_flags = ["serve", "--arrival-rate", "0.2", "--jobs", "3",
                       "--nodes", "2", "--seed", "1"]
        assert main(serve_flags) == 0
        plain = capsys.readouterr().out
        assert main([*serve_flags, "--explain"]) == 0
        explained = capsys.readouterr().out
        # Telemetry observes without perturbing: the stream summary is
        # byte-identical, the explanation is purely appended.
        assert explained.startswith(plain)
        assert "tenant attribution" in explained
        assert "slowest tenant:" in explained
        assert "scheduler decisions:" in explained


class TestRejectedRunLog:
    """A run log the reader rejects ends ``repro report`` and ``repro
    explain RUNLOG`` with the reader's one-line message, not a
    traceback."""

    _EVENT = json.dumps({"type": "event", "t": 1.0, "kind": "launch"})

    @pytest.mark.parametrize("command", ["report", "explain"])
    def test_unsupported_schema(self, tmp_path, command):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps({"type": "meta", "schema": 3}) + "\n")
        with pytest.raises(SystemExit) as exc:
            main([command, str(path)])
        assert str(exc.value) == (
            f"{path}: run-log schema 3 is not supported "
            f"(this reader reads schemas 1, 2)")

    @pytest.mark.parametrize("command", ["report", "explain"])
    def test_garbage_before_the_last_line(self, tmp_path, command):
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join([json.dumps({"type": "meta"}),
                                   "not json", self._EVENT]))
        with pytest.raises(SystemExit) as exc:
            main([command, str(path)])
        message = str(exc.value)
        assert message.startswith(f"{path}:2: not a run-log record")
        assert "\n" not in message


class TestExperimentsCapture:
    def test_capture_forces_serial_uncached(self, tmp_path, capsys):
        from repro.experiments.__main__ import main as exp_main
        trace = tmp_path / "exp.json"
        runlog = tmp_path / "exp.jsonl"
        rc = exp_main(["fig07", "--scale", "small",
                       "--jobs", "4",  # should be overridden to 1
                       "--trace-out", str(trace),
                       "--metrics-out", str(runlog),
                       "--no-progress"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "forces --jobs 1" in err
        assert "forces --no-cache" in err
        # Multi-run sweeps get numbered artifact suffixes; the first
        # run keeps the plain name.
        assert list(tmp_path.glob("exp*.json"))
        assert list(tmp_path.glob("exp*.jsonl"))
