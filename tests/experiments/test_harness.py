"""Tests for the experiment harness plumbing (fast; shape checks of the
actual experiments live in benchmarks/)."""

import pytest

from repro.experiments.common import FULL, GB, MEDIUM, SMALL, Scale, \
    ExperimentResult
from repro.experiments.registry import EXPERIMENTS, cell_runner, get, \
    module, supports_cells
from repro.experiments.table1_config import run as run_table1


class TestScale:
    def test_data_factor(self):
        assert FULL.data_factor == 1.0
        assert Scale("x", 50).data_factor == 0.5

    def test_bytes_of(self):
        assert Scale("x", 10).bytes_of(100 * GB) == pytest.approx(10 * GB)

    def test_cluster_preserves_per_node_lustre_share(self):
        c = SMALL.cluster()
        full = FULL.cluster()
        assert c.n_nodes == SMALL.n_nodes
        assert (c.lustre_aggregate_bw / c.n_nodes ==
                pytest.approx(full.lustre_aggregate_bw / full.n_nodes))

    def test_standard_scales_ordered(self):
        assert SMALL.n_nodes < MEDIUM.n_nodes < FULL.n_nodes


class TestExperimentResult:
    def test_add_and_column(self):
        r = ExperimentResult("x", "t", headers=["a", "b"])
        r.add(1, 2)
        r.add(3, 4)
        assert r.column("b") == [2, 4]

    def test_render_contains_rows_and_notes(self):
        r = ExperimentResult("fig00", "demo", headers=["v"])
        r.add(42)
        r.note("hello")
        out = r.render()
        assert "fig00" in out and "42" in out and "hello" in out

    def test_unknown_column_raises(self):
        r = ExperimentResult("x", "t", headers=["a"])
        with pytest.raises(ValueError):
            r.column("zzz")


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {"table1", "fig05", "fig07", "fig08", "fig08d",
                    "fig09", "fig10", "fig12", "fig13", "fig14"}
        assert expected <= set(EXPERIMENTS)

    def test_extras_registered(self):
        assert "ablation-mem" in EXPERIMENTS
        assert "ablation-spill" in EXPERIMENTS

    def test_get_known(self):
        assert get("table1") is EXPERIMENTS["table1"]

    def test_get_unknown_raises_with_catalog(self):
        with pytest.raises(KeyError, match="fig05"):
            get("fig99")


class TestCellSupport:
    def test_celled_experiments_expose_full_protocol(self):
        for exp_id in EXPERIMENTS:
            if supports_cells(exp_id):
                mod = module(exp_id)
                assert callable(mod.cells)
                assert callable(mod.assemble)
                for cell in mod.cells():
                    assert callable(cell_runner(cell)), cell.label()

    def test_job_cell_experiments_do_not_run_jobs_themselves(self):
        for exp_id in ("fig05", "fig07", "fig08", "fig09", "fig13",
                       "fig14"):
            mod = module(exp_id)
            assert not hasattr(mod, "run_cell"), exp_id
            assert {cell.experiment for cell in mod.cells()} == {"job"}

    def test_table1_and_trace_are_not_celled(self):
        assert not supports_cells("table1")
        assert not supports_cells("fig08d")

    def test_most_figures_are_celled(self):
        celled = {e for e in EXPERIMENTS if supports_cells(e)}
        assert {"fig05", "fig07", "fig08", "fig09", "fig10",
                "fig12", "fig13", "fig14", "ablation-mem",
                "ablation-spill"} <= celled


class TestAblationSpillProtocol:
    """Cell/assemble round-trip for the spill ablation (no sims run)."""

    def test_cells_cover_the_grid_uniquely(self):
        from repro.experiments import ablation_spill as mod
        cells = mod.cells(seeds=(0, 1))
        assert len(cells) == (len(mod.MECHANISMS) * len(mod.FRACTIONS)
                              * 2 * 2)
        assert len(set(cells)) == len(cells)

    def test_assemble_round_trip(self):
        from repro.experiments import ablation_spill as mod
        # Synthetic results: rigid twice as slow as elastic everywhere.
        results = {}
        for cell in mod.cells(seeds=(0,)):
            elastic = cell.params_dict["elastic"]
            results[cell] = {"job_time": 5.0 if elastic else 10.0,
                             "spill_gb": 1.0 if elastic else 0.0,
                             "tasks_shrunk": 8.0 if elastic else 0.0,
                             "declines": 0.0}
        result = mod.assemble(results, seeds=(0,))
        assert len(result.rows) == len(mod.MECHANISMS) * len(mod.FRACTIONS)
        for row in result.rows:
            assert row[2] == pytest.approx(10.0)   # rigid_s
            assert row[3] == pytest.approx(5.0)    # elastic_s
            assert row[4] == pytest.approx(2.0)    # elastic_gain


class TestTable1:
    def test_table1_matches_paper(self):
        result = run_table1()
        assert all(row[-1] == "yes" for row in result.rows)
        assert len(result.rows) == 5


class TestCLI:
    def test_list(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out and "table1" in out

    def test_run_table1(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "spark.reducer.maxMbInFlight" in out
