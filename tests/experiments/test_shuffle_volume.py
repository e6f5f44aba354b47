"""Protocol + acceptance tests for the shuffle-volume sweep.

Cheap protocol checks run the cells() / run_cell() / assemble() surface;
the acceptance class actually executes the sweep at a tiny scale and
asserts the two headline properties in the assembled table: combiner
fetch volume falls monotonically with skew, and partition-stable kMeans
moves strictly fewer bytes per iteration after the first.
"""

import json
import os

import pytest

from repro.experiments import fig_shuffle_volume as fsv
from repro.experiments.common import Scale
from repro.experiments.registry import EXPERIMENTS, supports_cells

TINY = Scale("tiny", n_nodes=2)


class TestRegistration:
    def test_registered(self):
        assert "shuffle-volume" in EXPERIMENTS
        assert supports_cells("shuffle-volume")

    def test_cells_are_deterministic_and_distinct(self):
        a = fsv.cells()
        b = fsv.cells()
        assert a == b
        assert len(set(a)) == len(a)

    def test_cells_cover_the_three_panels(self):
        cells = fsv.cells()
        kinds = {c.kind for c in cells}
        assert kinds == {"groupby", "m3r"}
        groupby = [c.params_dict for c in cells if c.kind == "groupby"]
        grid = [p for p in groupby if p["skew"] == fsv.GRID_SKEW]
        assert {p["policy"] for p in grid} == set(fsv.POLICIES)
        assert {p["store"] for p in grid} == set(fsv.STORES)
        skew = [p for p in groupby
                if (p["policy"], p["store"]) == ("stock", "ssd")]
        assert {p["skew"] for p in skew} == set(fsv.SKEWS)
        m3r = [c for c in cells if c.kind == "m3r"]
        assert {c.params_dict["stable"] for c in m3r} == {False, True}

    def test_skew_panel_reuses_the_grid_jobs(self):
        # 18 grid jobs, 8 skew jobs of which the 2 uniform-key ones are
        # grid jobs, and 2 kMeans jobs.
        assert len(fsv.cells()) == 18 + 8 - 2 + 2

    def test_cell_results_are_json_serialisable(self):
        cell = fsv.cells(scale=TINY)[-1]   # an m3r cell (list payload)
        result = fsv.run_cell(cell)
        assert json.loads(json.dumps(result)) == result


class TestAcceptance:
    @pytest.fixture(scope="class")
    def table(self):
        return fsv.run(scale=TINY, seeds=(0,))

    def _rows(self, table, part):
        return [r for r in table.rows if r[0] == part]

    def test_table_shape(self, table):
        assert table.headers[:5] == ["part", "config", "stock_gb",
                                     "mech_gb", "ratio"]
        assert len(self._rows(table, "grid")) \
            == len(fsv.POLICIES) * len(fsv.STORES)
        assert len(self._rows(table, "skew")) == len(fsv.SKEWS)
        assert len(self._rows(table, "m3r")) == fsv.KMEANS_ITERATIONS

    def test_combiner_always_reduces_volume(self, table):
        for row in self._rows(table, "grid"):
            _, config, stock_gb, mech_gb, ratio = row[:5]
            assert mech_gb < stock_gb, config
            assert 0 < ratio < 1, config

    def test_skew_panel_is_monotone_decreasing(self, table):
        mech = [r[3] for r in self._rows(table, "skew")]
        assert mech == sorted(mech, reverse=True)
        assert mech[-1] < mech[0]

    def test_m3r_delta_only_after_first_iteration(self, table):
        rows = self._rows(table, "m3r")
        first = rows[0]
        assert first[3] == pytest.approx(first[2])   # iter 0: full volume
        for row in rows[1:]:
            assert row[3] < row[2]                    # later: delta only
            assert row[4] == pytest.approx(
                fsv.KMEANS_DELTA_RATIO, rel=1e-6)

    def test_stock_volumes_are_mechanism_independent(self, table):
        stock = {r[2] for r in self._rows(table, "grid")}
        assert len(stock) == 1   # same job, volume independent of policy

    def test_table_matches_the_pinned_golden(self, table):
        # The JSON text compares floats exactly and NaN equal to NaN.
        path = os.path.join(os.path.dirname(__file__), "..", "data",
                            "experiment_tables.json")
        with open(path) as fh:
            golden = json.load(fh)["shuffle-volume@tiny"]
        assert json.dumps({"title": table.title, "headers": table.headers,
                           "rows": table.rows, "notes": table.notes},
                          sort_keys=True) \
            == json.dumps(golden, sort_keys=True)
