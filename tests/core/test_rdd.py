"""Tests for the RDD API on the local backend."""

import pytest

from repro.core.local import LocalContext
from repro.core.dag import execution_plan


@pytest.fixture
def ctx():
    return LocalContext(parallelism=4)


class TestBasics:
    def test_parallelize_collect_roundtrip(self, ctx):
        assert ctx.parallelize([3, 1, 2]).collect() == [3, 1, 2]

    def test_partitioning(self, ctx):
        rdd = ctx.parallelize(range(10), num_partitions=3)
        assert rdd.num_partitions == 3
        assert sorted(rdd.collect()) == list(range(10))

    def test_empty_rdd(self, ctx):
        rdd = ctx.parallelize([])
        assert rdd.collect() == []
        assert rdd.num_partitions == 1

    def test_map(self, ctx):
        assert ctx.parallelize([1, 2, 3]).map(lambda x: x * 2).collect() == \
            [2, 4, 6]

    def test_filter(self, ctx):
        evens = ctx.parallelize(range(10)).filter(lambda x: x % 2 == 0)
        assert evens.collect() == [0, 2, 4, 6, 8]

    def test_flat_map(self, ctx):
        out = ctx.parallelize(["a b", "c"]).flat_map(str.split).collect()
        assert out == ["a", "b", "c"]


class TestActions:
    def test_reduce(self, ctx):
        assert ctx.parallelize(range(5)).reduce(lambda a, b: a + b) == 10

    def test_reduce_empty_raises(self, ctx):
        with pytest.raises(ValueError):
            ctx.parallelize([]).reduce(lambda a, b: a + b)


class TestKeyValue:
    def test_group_by_key(self, ctx):
        pairs = [(1, "a"), (2, "b"), (1, "c")]
        grouped = dict(ctx.parallelize(pairs).group_by_key().collect())
        assert sorted(grouped[1]) == ["a", "c"]
        assert grouped[2] == ["b"]

    def test_reduce_by_key(self, ctx):
        pairs = [(i % 3, 1) for i in range(30)]
        out = dict(ctx.parallelize(pairs).reduce_by_key(
            lambda a, b: a + b).collect())
        assert out == {0: 10, 1: 10, 2: 10}

    def test_shuffle_partition_count(self, ctx):
        rdd = ctx.parallelize([(i, i) for i in range(20)]).group_by_key(
            num_partitions=7)
        assert rdd.num_partitions == 7
        assert len(rdd.collect()) == 20

    def test_wordcount_end_to_end(self, ctx):
        lines = ["the cat sat", "the cat", "the"]
        counts = dict(ctx.parallelize(lines)
                      .flat_map(str.split)
                      .map(lambda w: (w, 1))
                      .reduce_by_key(lambda a, b: a + b)
                      .collect())
        assert counts == {"the": 3, "cat": 2, "sat": 1}


class TestCaching:
    def test_cache_avoids_recompute(self, ctx):
        calls = []

        def probe(x):
            calls.append(x)
            return x

        rdd = ctx.parallelize(range(10)).map(probe).cache()
        rdd.collect()
        rdd.collect()
        assert len(calls) == 10  # second collect served from cache

    def test_shuffle_memoised(self, ctx):
        rdd = ctx.parallelize([(1, 1)] * 10).group_by_key()
        rdd.collect()
        rdd.collect()
        assert ctx.backend.shuffles_run == 1


class TestExecutionPlan:
    def test_narrow_only_is_one_stage(self, ctx):
        plan = execution_plan(ctx.parallelize(range(10)).map(lambda x: x)
                              .filter(bool))
        assert plan.num_stages == 1
        assert plan.num_shuffles == 0

    def test_groupby_is_two_stages_like_fig4a(self, ctx):
        """GroupBy's plan: a compute stage feeding a shuffle, then the
        result stage — the paper's Fig 4(a) pipeline."""
        rdd = (ctx.parallelize([(1, 1)]).map(lambda kv: kv)
               .group_by_key().map(lambda kv: kv))
        plan = execution_plan(rdd)
        assert plan.num_stages == 2
        assert plan.num_shuffles == 1
        assert plan.stages[0].is_shuffle_map_stage
        assert not plan.stages[-1].is_shuffle_map_stage

    def test_two_shuffles_three_stages(self, ctx):
        rdd = (ctx.parallelize([(1, 1)]).group_by_key()
               .map(lambda kv: (kv[0], len(kv[1]))).group_by_key())
        plan = execution_plan(rdd)
        assert plan.num_stages == 3
        assert plan.num_shuffles == 2

    def test_describe_mentions_stages(self, ctx):
        plan = execution_plan(ctx.parallelize([(1, 1)]).group_by_key())
        text = plan.describe()
        assert "stage 0" in text and "stage 1" in text
