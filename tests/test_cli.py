"""Tests for the top-level CLI."""

import json

import pytest

from repro.bench.harness import fingerprint_digest
from repro.bench.scenarios import run_scenario
from repro.cli import main


class TestDescribe:
    def test_describe_cluster(self, capsys):
        assert main(["describe-cluster", "--nodes", "10"]) == 0
        out = capsys.readouterr().out
        assert "10 nodes" in out
        assert "lustre" in out
        assert "ssd" in out

    def test_hyperion_numbers_shown(self, capsys):
        main(["describe-cluster"])
        out = capsys.readouterr().out
        assert "100 nodes" in out and "1600 cores" in out
        assert "507/387" in out  # SSD r/w MB/s


class TestRun:
    def test_run_groupby_prints_summary(self, capsys):
        rc = main(["run", "--workload", "groupby", "--data-gb", "4",
                   "--nodes", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GroupBy" in out
        assert "compute" in out and "store" in out and "fetch" in out

    def test_run_with_optimizations(self, capsys):
        rc = main(["run", "--workload", "groupby", "--data-gb", "4",
                   "--nodes", "2", "--elb", "--cad"])
        assert rc == 0

    def test_run_gantt(self, capsys):
        main(["run", "--workload", "grep", "--data-gb", "2",
              "--nodes", "2", "--gantt"])
        out = capsys.readouterr().out
        assert "timeline 0 .." in out
        assert "node   0" in out

    def test_run_csv_and_json_outputs(self, tmp_path, capsys):
        csv_path = tmp_path / "trace.csv"
        json_path = tmp_path / "job.json"
        main(["run", "--workload", "lr", "--data-gb", "2", "--nodes", "2",
              "--csv", str(csv_path), "--json", str(json_path)])
        assert csv_path.read_text().startswith("task_id,phase,node")
        payload = json.loads(json_path.read_text())
        assert payload["job_name"] == "LogisticRegression"

    def test_every_workload_runs(self, capsys):
        for workload in ("groupby", "grep", "lr", "wordcount", "kmeans"):
            assert main(["run", "--workload", workload, "--data-gb", "2",
                         "--nodes", "2"]) == 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "sort9000"])


class TestStoreFlag:
    def _shuffle_store(self, monkeypatch, capsys, workload, store):
        """Run the CLI and report the shuffle_store the engine was given."""
        import repro.cli as cli
        seen = {}
        real_run_job = cli.run_job

        def spy(spec, **kwargs):
            seen["store"] = spec.shuffle_store
            return real_run_job(spec, **kwargs)

        monkeypatch.setattr(cli, "run_job", spy)
        args = ["run", "--workload", workload, "--data-gb", "2",
                "--nodes", "2"]
        if store is not None:
            args += ["--store", store]
        assert main(args) == 0
        capsys.readouterr()
        return seen["store"]

    @pytest.mark.parametrize("workload", ["groupby", "grep", "wordcount"])
    def test_store_reaches_the_spec(self, monkeypatch, capsys, workload):
        # The bug: grep/wordcount lambdas silently dropped --store.
        assert self._shuffle_store(monkeypatch, capsys, workload,
                                   "ssd") == "ssd"
        assert self._shuffle_store(monkeypatch, capsys, workload,
                                   "lustre") == "lustre"

    @pytest.mark.parametrize("workload", ["groupby", "grep", "wordcount"])
    def test_default_store_is_ramdisk(self, monkeypatch, capsys, workload):
        assert self._shuffle_store(monkeypatch, capsys, workload,
                                   None) == "ramdisk"

    @pytest.mark.parametrize("workload", ["lr", "kmeans"])
    def test_store_rejected_for_no_shuffle_workloads(self, workload):
        with pytest.raises(SystemExit, match="has no effect"):
            main(["run", "--workload", workload, "--data-gb", "2",
                  "--nodes", "2", "--store", "ssd"])

    @pytest.mark.parametrize("workload", ["lr", "kmeans"])
    def test_no_store_still_fine_for_no_shuffle_workloads(
            self, capsys, workload):
        assert main(["run", "--workload", workload, "--data-gb", "2",
                     "--nodes", "2"]) == 0


class TestCrashFlag:
    BASE = ["run", "--workload", "groupby", "--data-gb", "2",
            "--nodes", "2"]

    def test_crash_and_restart_runs(self, capsys):
        assert main(self.BASE + ["--crash", "1@5:40"]) == 0

    def test_empty_restart_means_never_rejoins(self, capsys):
        # "NODE@T:" is valid: crash at T, no restart.
        assert main(self.BASE + ["--crash", "1@5:"]) == 0

    def test_malformed_spec_rejected(self):
        with pytest.raises(SystemExit, match="expected NODE@T"):
            main(self.BASE + ["--crash", "not-a-crash"])

    def test_negative_node_rejected(self):
        # "=" form: argparse would otherwise read "-1@5" as an option.
        with pytest.raises(SystemExit, match="node must be >= 0"):
            main(self.BASE + ["--crash=-1@5"])

    def test_negative_crash_time_rejected(self):
        with pytest.raises(SystemExit, match="crash time must be >= 0"):
            main(self.BASE + ["--crash", "1@-5"])

    def test_restart_before_crash_rejected(self):
        with pytest.raises(SystemExit, match="strictly after"):
            main(self.BASE + ["--crash", "1@10:5"])

    def test_restart_equal_to_crash_rejected(self):
        with pytest.raises(SystemExit, match="strictly after"):
            main(self.BASE + ["--crash", "1@10:10"])


class TestFailureRateFlag:
    BASE = ["run", "--workload", "groupby", "--data-gb", "2",
            "--nodes", "2"]

    def test_valid_rate_runs(self, capsys):
        assert main(self.BASE + ["--failure-rate", "0.1"]) == 0

    @pytest.mark.parametrize("rate", ["-0.1", "1.5"])
    def test_out_of_range_rejected(self, rate):
        with pytest.raises(SystemExit, match=r"within \[0, 1\]"):
            main(self.BASE + ["--failure-rate", rate])


class TestExperimentsPassthrough:
    def test_list_via_top_level_cli(self, capsys):
        assert main(["experiments", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out and "table1" in out


class TestArgValidation:
    """Pointed rejections for nonsense sizes (satellite of the serve PR)."""

    def test_run_rejects_nonpositive_nodes(self):
        with pytest.raises(SystemExit, match="positive node count"):
            main(["run", "--workload", "grep", "--data-gb", "2",
                  "--nodes", "0"])
        with pytest.raises(SystemExit, match="positive node count"):
            main(["run", "--workload", "grep", "--data-gb", "2",
                  "--nodes=-3"])

    def test_run_rejects_nonpositive_data_gb(self):
        with pytest.raises(SystemExit, match="positive data size"):
            main(["run", "--workload", "grep", "--data-gb", "0",
                  "--nodes", "2"])
        with pytest.raises(SystemExit, match="positive data size"):
            main(["run", "--workload", "grep", "--data-gb=-1",
                  "--nodes", "2"])

    def test_describe_rejects_nonpositive_nodes(self):
        with pytest.raises(SystemExit, match="positive node count"):
            main(["describe-cluster", "--nodes", "0"])


class TestServe:
    BASE = ["serve", "--nodes", "2", "--jobs", "4", "--base-gb", "0.5",
            "--arrival-rate", "0.5", "--tenants", "etl:2,adhoc:1:0.5"]

    def test_serve_prints_per_tenant_summary(self, capsys):
        assert main(self.BASE + ["--policy", "fair"]) == 0
        out = capsys.readouterr().out
        assert "policy=fair" in out
        assert "tenant=" in out and "latency_p90=" in out
        assert out.count("job tenant=") == 4

    def test_serve_writes_json(self, tmp_path, capsys):
        path = tmp_path / "stream.json"
        assert main(self.BASE + ["--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["n_jobs"] == 4
        assert len(payload["outcomes"]) == 4

    def test_serve_reruns_byte_identical(self, capsys):
        main(self.BASE + ["--policy", "fair"])
        first = capsys.readouterr().out
        main(self.BASE + ["--policy", "fair"])
        assert capsys.readouterr().out == first

    def test_serve_validation(self):
        with pytest.raises(SystemExit, match="--arrival-rate"):
            main(["serve", "--arrival-rate", "0"])
        with pytest.raises(SystemExit, match="--jobs"):
            main(["serve", "--jobs", "0"])
        with pytest.raises(SystemExit, match="--base-gb"):
            main(["serve", "--base-gb", "0"])
        with pytest.raises(SystemExit, match="positive node count"):
            main(["serve", "--nodes", "0"])
        with pytest.raises(SystemExit, match="--handoff-delay"):
            main(["serve", "--handoff-delay=-1"])
        with pytest.raises(SystemExit, match="bad --tenants"):
            main(["serve", "--tenants", "a,a"])


class TestBench:
    SCENARIOS = ["--scenario", "idle_giant", "--scenario", "fig08_job"]

    def test_output_independent_of_jobs(self, capsys):
        argv = ["bench", "--quick", "--check", *self.SCENARIOS]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial
        lines = serial.splitlines()
        assert [line.split()[0] for line in lines] == ["idle_giant",
                                                       "fig08_job"]
        for line in lines:
            name, *fields = line.split()
            digest = dict(zip(fields[::2], fields[1::2]))["fingerprint"]
            assert digest == fingerprint_digest(
                run_scenario(name, quick=True).fingerprint)

    @pytest.mark.parametrize("flag", ["--baseline", "--out-dir=x",
                                      "--no-telemetry", "--profile",
                                      "--compare=x"])
    def test_removed_timing_flags_rejected(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--quick", flag])
        assert exc.value.code == 2
