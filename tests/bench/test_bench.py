"""Fingerprint-identity check: scenarios run, every comparison holds.

Uses ``quick=True`` scenario scales throughout so the whole module stays
inside normal test-suite budgets; the full-scale check lives in
``repro bench --check`` runs.  The ``golden`` verdict compares with the
digests captured in ``repro/bench/digests.json``.
"""

import dataclasses
import json
import os

import pytest

from repro.bench import harness
from repro.bench.harness import (BenchReport, bench_scenario,
                                 fingerprint_digest, golden_digests,
                                 run_bench)
from repro.bench.scenarios import SCENARIOS, run_scenario
from repro.cli import main as cli_main
from repro.net import fastalloc
from repro.obs.critpath import critical_path
from repro.sim import fastdrain

#: Kernel modes a run must be byte-identical in: the fluid core's drain
#: (and the pipe's fair share) and the fabric's reallocation load, and
#: can be switched off, independently.
KERNEL_MODES = {
    "both": {},
    "drain-off": {(fastdrain, "RAW_DRAIN"): None,
                  (fastdrain, "RAW_FAIR"): None},
    "fabric-off": {(fastalloc, "AVAILABLE"): False},
}


def _check_cases(names):
    """(name, kernels) pairs; the both-kernels case keeps the bare
    scenario name as its id."""
    return [pytest.param(name, kernels,
                         id=name if kernels == "both" else
                         f"{name}-{kernels}")
            for kernels in KERNEL_MODES for name in names]


class TestScenarios:
    def test_registry_has_the_macro_scenarios(self):
        assert set(SCENARIOS) == {"shuffle_wave", "shuffle_wave_10x",
                                  "idle_giant", "ssd_spill",
                                  "fig08_job", "node_crash",
                                  "stream_sustained", "timer_churn",
                                  "spill_pressure"}

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_quick_scenario_runs(self, name):
        result = run_scenario(name, quick=True)
        assert result.events > 0
        assert result.sim_time > 0
        assert result.fingerprint  # non-empty outcome to check against

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError):
            run_scenario("nope", quick=True)

    def test_fingerprint_is_deterministic(self):
        a = run_scenario("timer_churn", quick=True)
        b = run_scenario("timer_churn", quick=True)
        assert a.fingerprint == b.fingerprint
        assert a.events == b.events


class TestCheck:
    @pytest.mark.parametrize("name,kernels", _check_cases(
        ["timer_churn", "ssd_spill", "shuffle_wave", "fig08_job"]))
    def test_optimized_matches_reference(self, name, kernels, monkeypatch):
        """The digest equals the captured (reference) one, in every
        kernel mode."""
        for (module, attr), value in KERNEL_MODES[kernels].items():
            monkeypatch.setattr(module, attr, value)
        report = bench_scenario(name, quick=True, check=True)
        assert report.matches["golden"] is True
        assert report.digest == golden_digests()["quick"][name]

    def test_no_baseline_means_no_reference(self):
        """Without --check there is no ``golden`` verdict."""
        report = bench_scenario("timer_churn", quick=True)
        assert "golden" not in report.matches
        assert "golden" not in report.line()

    def test_every_scenario_has_a_captured_digest_at_both_scales(self):
        digests = golden_digests()
        assert sorted(digests) == ["full", "quick"]
        for scale in digests.values():
            assert sorted(scale) == sorted(SCENARIOS)
            assert all(len(d) == 64 and int(d, 16) >= 0
                       for d in scale.values())

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_telemetry_run_matches_bare_fingerprint(self, name):
        report = bench_scenario(name, quick=True)
        assert report.matches == {"telemetry": True, "spans": True}

    def test_capture_dir_exports_trace_and_runlog(self, tmp_path):
        from repro.obs.validate import (validate_chrome_trace,
                                        validate_runlog)
        bench_scenario("fig08_job", quick=True,
                       capture_dir=str(tmp_path))
        trace = tmp_path / "TRACE_fig08_job.json"
        runlog = tmp_path / "LOG_fig08_job.jsonl"
        assert trace.exists() and runlog.exists()
        assert validate_chrome_trace(json.loads(trace.read_text())) == []
        assert validate_runlog(
            runlog.read_text().splitlines()) == []


class TestReportSchema:
    def test_report_fields(self):
        report = bench_scenario("timer_churn", quick=True, check=True)
        assert report.events > 0
        assert len(report.digest) == 64
        assert report.matches == {"golden": True, "telemetry": True,
                                  "spans": True}
        assert report.diverged == []
        assert report.n_spans > 0

    def test_fingerprint_digest_stable(self):
        fp = [("a", 1.0), ("b", 2.0)]
        assert fingerprint_digest(fp) == fingerprint_digest(list(fp))
        assert fingerprint_digest(fp) != fingerprint_digest(fp[:1])


class TestRunBench:
    def test_prints_one_line_per_scenario(self, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.chdir(tmp_path)
        reports = run_bench(scenarios=["timer_churn"], quick=True)
        assert [r.name for r in reports] == ["timer_churn"]
        assert isinstance(reports[0], BenchReport)
        assert capsys.readouterr().out == reports[0].line() + "\n"
        assert os.listdir(tmp_path) == []  # prints, writes nothing

    @pytest.mark.parametrize("kind", ["golden", "telemetry", "spans"])
    def test_divergence_exits_1_and_names_scenario(self, kind, monkeypatch,
                                                   capsys):
        if kind == "spans":
            # A critical path that lost its last segment no longer sums
            # to the job's wall-clock.
            def perturbed(spans):
                return critical_path(spans)[:-1]

            monkeypatch.setattr(harness, "critical_path", perturbed)
        elif kind == "golden":
            # A capture that disagrees with this tree's fig08_job.
            capture = golden_digests()
            capture["quick"]["fig08_job"] = "0" * 64
            monkeypatch.setattr(harness, "golden_digests", lambda: capture)
        else:
            # bench_scenario runs the bare scenario, then the telemetry
            # run.
            runs = iter(["bare", "telemetry"])

            def perturbed(name, quick=False, telemetry=None):
                result = run_scenario(name, quick=quick,
                                      telemetry=telemetry)
                if next(runs) != kind:
                    return result
                return dataclasses.replace(
                    result, fingerprint=("perturbed", result.fingerprint))

            monkeypatch.setattr(harness, "run_scenario", perturbed)
        rc = cli_main(["bench", "--quick", "--check",
                       "--scenario", "fig08_job"])
        out = capsys.readouterr().out
        assert rc == 1
        assert f"{kind} DIVERGED" in out
        assert out.count("DIVERGED") == 1
        assert out.splitlines()[-1] == (
            f"CHECK FAILED: diverged on: fig08_job ({kind})")

    def test_spans_check_runs_no_extra_simulation(self, monkeypatch):
        calls = []

        def counted(name, quick=False, telemetry=None):
            calls.append(telemetry is not None)
            return run_scenario(name, quick=quick, telemetry=telemetry)

        monkeypatch.setattr(harness, "run_scenario", counted)
        report = bench_scenario("fig08_job", quick=True, check=True)
        assert report.matches == {"golden": True, "telemetry": True,
                                  "spans": True}
        # The bare run and the telemetry run; --check reads the capture.
        assert calls == [False, True]
