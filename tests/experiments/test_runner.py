"""Sweep-runner guarantees: serial/parallel/cache byte-identity.

The headline acceptance test reproduces the validator's full cell batch
three ways — serially, across a 4-process pool, and from a warm cache —
and asserts the result mappings are byte-identical as canonical JSON.
The serial run also pins the batch's shape — one cell per distinct
simulation — and the assembled tables of the experiments that declare
shared job cells.  Everything else here is unit coverage of the
fingerprint and cache machinery that makes that identity hold.
"""

import io
import json
import os
import time

import pytest

from repro.experiments import jobcell, registry
from repro.experiments import runner as runner_mod
from repro.experiments.common import SMALL
from repro.experiments.runner import (
    Cell,
    ResultCache,
    SweepRunner,
    cell_fingerprint,
    cell_scale,
    make_cell,
    map_parallel,
    run_experiment,
    run_experiments,
    source_tree_hash,
)
from repro.experiments.validate import CLAIMS

SEEDS = (0,)


def validate_batch():
    """The exact cell batch ``validate()`` hands the runner."""
    needed = sorted({c.experiment for c in CLAIMS})
    batch = []
    for exp_id in needed:
        if registry.supports_cells(exp_id):
            batch.extend(registry.module(exp_id).cells(scale=SMALL,
                                                       seeds=SEEDS))
    return batch


def canonical(results):
    """Order-independent byte representation of a ``{cell: result}`` map."""
    items = sorted((json.dumps(cell.key(), sort_keys=True), result)
                   for cell, result in results.items())
    return json.dumps(items, sort_keys=True)


@pytest.fixture(scope="module")
def batch():
    return validate_batch()


def inputs_key(spec, cluster_spec, options, speed_model):
    """Hashable identity of one ``run_job`` call's inputs."""
    speed = (None if speed_model is None else
             (type(speed_model), tuple(sorted(vars(speed_model).items()))))
    return spec, cluster_spec, options, speed


@pytest.fixture(scope="module")
def serial_run(batch):
    """The serial sweep's results, and the inputs of every ``run_job``
    call it made (recorded in each module that calls ``run_job``)."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for mod in {jobcell, *registry.MODULES.values()}:
            real = getattr(mod, "run_job", None)
            if real is None:
                continue

            def recording(spec, cluster_spec=None, options=None,
                          speed_model=None, _real=real, **kw):
                calls.append(inputs_key(spec, cluster_spec, options,
                                        speed_model))
                return _real(spec, cluster_spec=cluster_spec,
                             options=options, speed_model=speed_model, **kw)

            mp.setattr(mod, "run_job", recording)
        results = SweepRunner().run_cells(batch)
    return results, calls


@pytest.fixture(scope="module")
def serial_bytes(serial_run):
    return canonical(serial_run[0])


def test_each_distinct_cell_is_one_distinct_simulation(batch, serial_run):
    _, calls = serial_run
    distinct = set(batch)
    assert len(distinct) == 62          # 75 simulations before sharing
    assert len(calls) == len(distinct)
    assert len(set(calls)) == len(calls)


def test_job_cells_round_trip_their_inputs(batch):
    for cell in set(batch):
        if cell.experiment == jobcell.EXPERIMENT:
            assert jobcell.job_cell(*jobcell.job_inputs(cell)) == cell


def _table_json(result):
    return json.dumps({"title": result.title, "headers": result.headers,
                       "rows": result.rows, "notes": result.notes},
                      sort_keys=True)


def test_assembled_tables_match_the_pinned_goldens(serial_run):
    # The JSON text compares floats exactly and NaN equal to NaN.
    path = os.path.join(os.path.dirname(__file__), "..", "data",
                        "experiment_tables.json")
    with open(path) as fh:
        golden = json.load(fh)
    results, _ = serial_run
    for exp_id in ("fig05", "fig07", "fig08", "fig09", "fig13", "fig14"):
        table = registry.module(exp_id).assemble(results, scale=SMALL,
                                                 seeds=SEEDS)
        assert _table_json(table) == json.dumps(golden[exp_id],
                                                sort_keys=True), exp_id


class TestByteIdentity:
    """The acceptance criterion: jobs=1 == jobs=4 == warm cache."""

    def test_parallel_identical_to_serial(self, batch, serial_bytes):
        parallel = SweepRunner(jobs=4).run_cells(batch)
        assert canonical(parallel) == serial_bytes

    def test_cold_and_warm_cache_identical_to_serial(
            self, batch, serial_bytes, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = SweepRunner(cache=True, cache_dir=cache_dir)
        assert canonical(cold.run_cells(batch)) == serial_bytes
        assert cold.stats.ran == len(set(batch))

        warm = SweepRunner(cache=True, cache_dir=cache_dir)
        assert canonical(warm.run_cells(batch)) == serial_bytes
        assert warm.stats.ran == 0
        assert warm.stats.cached == len(set(batch))

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="needs >= 2 cores to beat serial")
    def test_pooled_sweep_beats_serial_wall_clock(self, batch):
        jobs = min(4, os.cpu_count())
        start = time.perf_counter()
        SweepRunner().run_cells(batch)
        serial_wall = time.perf_counter() - start
        start = time.perf_counter()
        SweepRunner(jobs=jobs).run_cells(batch)
        pooled_wall = time.perf_counter() - start
        assert pooled_wall < serial_wall


class TestCell:
    def test_make_cell_sorts_params_and_normalises_scale(self):
        a = make_cell("fig09", "job", SMALL, 3, split=32.0, benchmark="grep")
        b = make_cell("fig09", "job", SMALL, 3, benchmark="grep", split=32.0)
        assert a == b
        assert a.params == (("benchmark", "grep"), ("split", 32.0))
        assert a.scale == (SMALL.name, SMALL.n_nodes)

    def test_cell_scale_round_trips(self):
        cell = make_cell("fig09", "job", SMALL, 0)
        assert cell_scale(cell).n_nodes == SMALL.n_nodes
        assert cell_scale(cell).name == SMALL.name

    def test_label_mentions_everything(self):
        cell = make_cell("fig09", "job", SMALL, 7, benchmark="grep")
        label = cell.label()
        assert "fig09" in label and "benchmark=grep" in label
        assert "seed=7" in label and SMALL.name in label

    def test_cells_are_dict_keys_and_picklable(self):
        import pickle
        cell = make_cell("fig09", "job", SMALL, 0, split=32.0)
        assert pickle.loads(pickle.dumps(cell)) == cell
        assert {cell: 1}[cell] == 1


class TestFingerprint:
    def test_deterministic(self):
        cell = make_cell("fig09", "job", SMALL, 0, split=32.0)
        assert (cell_fingerprint(cell, "tree") ==
                cell_fingerprint(cell, "tree"))

    def test_sensitive_to_every_coordinate(self):
        base = make_cell("fig09", "job", SMALL, 0, split=32.0)
        fps = {
            cell_fingerprint(base, "tree"),
            cell_fingerprint(base, "othertree"),
            cell_fingerprint(make_cell("fig09", "job", SMALL, 1,
                                       split=32.0), "tree"),
            cell_fingerprint(make_cell("fig09", "job", SMALL, 0,
                                       split=64.0), "tree"),
            cell_fingerprint(make_cell("fig10", "job", SMALL, 0,
                                       split=32.0), "tree"),
        }
        assert len(fps) == 5

    def test_source_tree_hash_is_stable_in_process(self):
        assert source_tree_hash() == source_tree_hash()
        assert len(source_tree_hash()) == 64


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cell = make_cell("fig09", "job", SMALL, 0)
        fp = cell_fingerprint(cell, "tree")
        assert cache.get(fp) is runner_mod._MISS
        cache.put(fp, cell, {"job_time": 1.5})
        assert cache.get(fp) == {"job_time": 1.5}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cell = make_cell("fig09", "job", SMALL, 0)
        fp = cell_fingerprint(cell, "tree")
        cache.put(fp, cell, {"job_time": 1.5})
        with open(cache._file(fp), "w") as fh:
            fh.write("{not json")
        assert cache.get(fp) is runner_mod._MISS

    def test_schema_bump_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cell = make_cell("fig09", "job", SMALL, 0)
        fp = cell_fingerprint(cell, "tree")
        cache.put(fp, cell, {"job_time": 1.5})
        with open(cache._file(fp)) as fh:
            payload = json.load(fh)
        payload["schema"] = -1
        with open(cache._file(fp), "w") as fh:
            json.dump(payload, fh)
        assert cache.get(fp) is runner_mod._MISS


class TestRunnerBehaviour:
    def small_batch(self):
        mod = registry.module("fig09")
        return mod.cells(scale=SMALL, seeds=(0,))[:3]

    def test_duplicates_collapsed(self):
        cells = self.small_batch()
        sweep = SweepRunner()
        results = sweep.run_cells(cells + cells)
        assert len(results) == len(cells)
        assert sweep.stats.total == len(cells)

    def test_source_edit_invalidates_cache(self, tmp_path, monkeypatch):
        cells = self.small_batch()
        cache_dir = str(tmp_path)
        first = SweepRunner(cache=True, cache_dir=cache_dir)
        first.run_cells(cells)
        assert first.stats.ran == len(cells)

        # A source edit changes the tree hash: every fingerprint moves,
        # so nothing cached before the edit can be served after it.
        monkeypatch.setattr(runner_mod, "source_tree_hash",
                            lambda: "after-the-edit")
        edited = SweepRunner(cache=True, cache_dir=cache_dir)
        edited.run_cells(cells)
        assert edited.stats.ran == len(cells)
        assert edited.stats.cached == 0

    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        sweep = SweepRunner(cache=True)
        assert sweep.cache.path == str(tmp_path / "env-cache")

    def test_progress_lines_and_summary(self, tmp_path):
        cells = self.small_batch()
        stream = io.StringIO()
        sweep = SweepRunner(progress=True, stream=stream)
        sweep.run_cells(cells)
        out = stream.getvalue()
        assert f"[{len(cells)}/{len(cells)}]" in out
        assert f"sweep summary: total={len(cells)} cached=0 " \
               f"ran={len(cells)}" in out

    def test_default_runner_is_serial_and_cacheless(self):
        sweep = SweepRunner()
        assert sweep.jobs == 1
        assert sweep.cache is None
        assert sweep.progress is False


class TestRunExperiment:
    def test_table1_runs_directly(self):
        result = run_experiment("table1")
        assert len(result.rows) == 5

    def test_celled_experiment_threads_runner(self):
        sweep = SweepRunner()
        result = run_experiment("fig09", scale=SMALL, seeds=(0,),
                                runner=sweep)
        assert sweep.stats.total > 0
        assert result.experiment_id == "fig09"

    def test_experiments_sharing_cells_run_as_one_batch(self):
        """fig09's six delay-on HDFS jobs are fig05's HDFS jobs: one
        batch runs them once, and each table equals its own run's."""
        alone = {exp_id: run_experiment(exp_id, scale=SMALL, seeds=(0,))
                 for exp_id in ("fig05", "fig09")}
        stream = io.StringIO()
        sweep = SweepRunner(progress=True, stream=stream)
        results = dict(run_experiments(["fig05", "fig09"], scale=SMALL,
                                       seeds=(0,), runner=sweep))
        assert list(results) == ["fig05", "fig09"]
        assert stream.getvalue().count("sweep summary:") == 1
        assert (sweep.stats.total, sweep.stats.ran) == (18, 18)
        for exp_id, result in results.items():
            assert result.render() == alone[exp_id].render()

    def test_each_table_is_yielded_before_the_next_is_assembled(
            self, monkeypatch):
        """A failure assembling a later experiment loses no earlier
        table: the caller already holds it."""
        from repro.experiments import registry

        def fail(*args, **kwargs):
            raise RuntimeError("assemble failed")

        monkeypatch.setattr(registry.module("fig09"), "assemble", fail)
        results = run_experiments(["fig05", "fig09"], scale=SMALL,
                                  seeds=(0,))
        exp_id, first = next(results)
        assert exp_id == "fig05" and first.experiment_id == "fig05"
        with pytest.raises(RuntimeError, match="assemble failed"):
            next(results)


class TestMapParallel:
    def test_serial_preserves_order(self):
        assert map_parallel(abs, [-3, 1, -2], jobs=1) == [3, 1, 2]

    def test_pool_preserves_order(self):
        assert map_parallel(abs, list(range(-8, 0)), jobs=2) == \
            list(range(8, 0, -1))

    def test_empty_and_single(self):
        assert map_parallel(abs, [], jobs=4) == []
        assert map_parallel(abs, [-1], jobs=4) == [1]
