"""The local RDD backend checks the simulator's workload shapes.

``SparkSim`` runs hand-written :class:`~repro.core.jobspec.JobSpec`s, not
the RDD programs they stand for.  Here each workload's ``run_*_local``
program runs on a sampled ``datagen`` input, on a backend that records
the plan of every action and the records each map partition feeds each
shuffle, and the test asserts the shape the workload's ``*_spec``
implies:

* plan: one job per iteration, input cached exactly when the spec says
  ``cache_input``, a shuffle exactly when ``intermediate_ratio > 0``
  (Grep and kMeans are the two pinned exceptions, tested on their own);
* GroupBy: every input record crosses the shuffle (ratio 1.0);
* combiner: the distinct keys among one map partition's records match
  :func:`~repro.core.combine.expected_distinct_keys`, the model the
  engine's in-node combiner sizes the shuffle with;
* kMeans: after map-side combining at most ``k`` records per map
  partition cross the shuffle the spec does not model.
"""

import math

import numpy as np
import pytest

from repro import hyperion, run_job
from repro.core.combine import expected_distinct_keys
from repro.core.dag import execution_plan
from repro.core.local import LocalBackend, LocalContext
from repro.experiments.fig_shuffle_volume import SKEWS
from repro.serve.jobgen import MECHANISMS_CATALOG
from repro.workloads import (
    generate_kv_pairs,
    generate_labelled_points,
    generate_text_corpus,
    grep_spec,
    groupby_spec,
    kmeans_spec,
    logistic_regression_spec,
    run_grep_local,
    run_groupby_local,
    run_kmeans_local,
    run_logistic_regression_local,
    run_wordcount_local,
    wordcount_spec,
)

GB = 1024.0 ** 3
MB = 1024.0 ** 2

#: Map partitions of every program run.
PARTITIONS = 4
#: Records per map partition in the combiner check, and seeds per case.
RECORDS_PER_PARTITION = 20_000
SEEDS = range(5)
WORDS_PER_LINE = 8
K = 3


class ProbeBackend(LocalBackend):
    """A local backend that records what the program ran: the execution
    plan of every action (one action is one job) and, per shuffle, the
    records each map partition feeds it."""

    def __init__(self):
        super().__init__()
        self.plans = []
        self.map_outputs = []

    def iterate(self, rdd):
        self.plans.append(execution_plan(rdd))
        return super().iterate(rdd)

    def _run_shuffle(self, rdd):
        parent = rdd.parents[0]
        self.map_outputs.append([list(parent.iterator(split, self))
                                 for split in range(parent.num_partitions)])
        return super()._run_shuffle(rdd)


def probe_context():
    ctx = LocalContext(parallelism=PARTITIONS)
    ctx.backend = ProbeBackend()
    return ctx


def kmeans_points():
    return [x for x, _ in generate_labelled_points(200, dims=3, seed=1)]


def word_lines(word_ids):
    """Text lines whose words are the given word ids."""
    return [" ".join(f"w{k}" for k in word_ids[i:i + WORDS_PER_LINE])
            for i in range(0, len(word_ids), WORDS_PER_LINE)]


#: workload -> (its spec, a program run of that spec on a context).
WORKLOADS = {
    "groupby": (groupby_spec(GB), lambda spec, ctx: run_groupby_local(
        generate_kv_pairs(2_000, n_keys=50, seed=1), ctx=ctx)),
    "grep": (grep_spec(GB), lambda spec, ctx: run_grep_local(
        generate_text_corpus(400, seed=1), "NEEDLE", ctx=ctx)),
    "logreg": (logistic_regression_spec(GB),
               lambda spec, ctx: run_logistic_regression_local(
                   generate_labelled_points(200, dims=4, seed=1),
                   iterations=spec.iterations, ctx=ctx)),
    "wordcount": (wordcount_spec(GB), lambda spec, ctx: run_wordcount_local(
        generate_text_corpus(400, seed=1), ctx=ctx)),
    "kmeans": (kmeans_spec(GB), lambda spec, ctx: run_kmeans_local(
        kmeans_points(), k=K, iterations=spec.iterations, ctx=ctx)),
}


def run_workload(name):
    spec, program = WORKLOADS[name]
    ctx = probe_context()
    program(spec, ctx)
    return spec, ctx.backend


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_job_per_iteration(name):
    spec, backend = run_workload(name)
    assert len(backend.plans) == spec.iterations


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_input_cached_exactly_when_the_spec_says_so(name):
    """A cached input is computed once, however many passes read it."""
    spec, backend = run_workload(name)
    assert backend.partitions_computed == \
        (PARTITIONS if spec.cache_input else 0)


@pytest.mark.parametrize("name", ["groupby", "logreg", "wordcount"])
def test_shuffle_exactly_when_the_spec_models_one(name):
    spec, backend = run_workload(name)
    expected = 1 if spec.intermediate_ratio > 0 else 0
    assert [plan.num_shuffles for plan in backend.plans] == \
        [expected] * spec.iterations
    assert backend.shuffles_run == expected * spec.iterations


def test_grep_is_one_stage_while_its_spec_models_a_shuffle():
    """``run_grep_local`` is a single filter stage; ``grep_spec`` models
    the paper's measured 1-200 MB intermediate volume, not a shape the
    program implies.  Pinned so a change to either side shows."""
    spec, backend = run_workload("grep")
    assert [plan.num_stages for plan in backend.plans] == [1]
    assert backend.shuffles_run == 0
    assert spec.intermediate_bytes == pytest.approx(64 * MB)


def test_kmeans_combined_shuffle_is_at_most_k_records_per_map_partition():
    """The spec models no shuffle ("a few kilobytes per task"), but the
    program shuffles every iteration: after map-side combining each map
    partition sends one partial sum per cluster, at most ``k``."""
    spec, backend = run_workload("kmeans")
    assert spec.intermediate_ratio == 0
    assert [plan.num_shuffles for plan in backend.plans] == \
        [1] * spec.iterations
    assert len(backend.map_outputs) == spec.iterations
    for shuffle in backend.map_outputs:
        assert len(shuffle) == PARTITIONS
        for records in shuffle:
            assert 1 <= len({key for key, _ in records}) <= K


def test_groupby_every_record_crosses_the_shuffle():
    spec, backend = run_workload("groupby")
    assert spec.intermediate_ratio == 1.0
    [shuffle] = backend.map_outputs
    assert sum(len(records) for records in shuffle) == 2_000


class TestBothBackendsAgreeOnSemantics:
    def test_local_groupby_result_is_what_the_sim_models(self):
        """The local backend's shuffle volume equals the sim's notion of
        intermediate data: every input record crosses the shuffle."""
        pairs = generate_kv_pairs(1000, n_keys=13, seed=5)
        grouped = run_groupby_local(pairs)
        assert sum(len(v) for v in grouped.values()) == len(pairs)
        spec = groupby_spec(1 * GB)
        assert spec.intermediate_bytes == pytest.approx(1 * GB)

    def test_local_context_independent_of_sim(self):
        ctx = LocalContext(parallelism=2)
        res = run_job(groupby_spec(1 * GB), cluster_spec=hyperion(2))
        assert ctx.parallelize([1, 2, 3]).collect() == [1, 2, 3]
        assert res.job_time > 0


# -- the combiner model ------------------------------------------------------

def _catalog_spec(name):
    [factory] = [f for n, _, f in MECHANISMS_CATALOG if n == name]
    return factory(GB)


def _run_groupby(spec, seed, ctx):
    pairs = generate_kv_pairs(PARTITIONS * RECORDS_PER_PARTITION,
                              n_keys=spec.n_keys, skew=spec.key_skew,
                              seed=seed)
    run_groupby_local(pairs, ctx=ctx)


def _run_wordcount(spec, seed, ctx):
    word_ids = [k for k, _ in generate_kv_pairs(
        PARTITIONS * RECORDS_PER_PARTITION, n_keys=spec.n_keys,
        skew=spec.key_skew, seed=seed)]
    run_wordcount_local(word_lines(word_ids), ctx=ctx)


COMBINER_CASES = (
    [pytest.param(groupby_spec(GB, combiner=True, key_skew=skew),
                  _run_groupby, id=f"groupby-skew{skew}")
     for skew in SKEWS]
    + [pytest.param(_catalog_spec("join"), _run_groupby,
                    id="serve-join"),
       pytest.param(_catalog_spec("agg"), _run_wordcount,
                    id="serve-agg-wordcount")])


@pytest.mark.parametrize("spec, program", COMBINER_CASES)
def test_distinct_keys_per_map_partition_match_the_combiner_model(
        spec, program):
    """A perfect in-node combiner leaves one record per distinct key.

    Each map partition's distinct-key count is one draw of ``D(m)``; the
    mean over ``len(SEEDS) * PARTITIONS`` partitions must lie within 3
    standard errors (the sample standard deviation over the square root
    of the partition count) of the model's ``E[D(m)]``.
    """
    assert spec.combiner
    counts = []
    for seed in SEEDS:
        ctx = probe_context()
        program(spec, seed, ctx)
        [shuffle] = ctx.backend.map_outputs
        for records in shuffle:
            assert len(records) == RECORDS_PER_PARTITION
            counts.append(len({key for key, _ in records}))
    expected = expected_distinct_keys(RECORDS_PER_PARTITION, spec.n_keys,
                                      spec.key_skew)
    stderr = np.std(counts, ddof=1) / math.sqrt(len(counts))
    assert abs(np.mean(counts) - expected) <= 3 * stderr, \
        (np.mean(counts), expected, stderr)
