"""Tests for SparkConf / Table I."""

import pytest

from repro.config import GB, MB, TABLE_I, SparkConf


class TestTableI:
    def test_default_conf_reproduces_table_i(self):
        assert SparkConf().table_i() == TABLE_I

    def test_table_i_values_match_paper_exactly(self):
        assert TABLE_I["spark.reducer.maxMbInFlight"] == "1GB"
        assert TABLE_I["spark.rdd.compress"] == "false"
        assert TABLE_I["spark.shuffle.compress"] == "true"
        assert TABLE_I["spark.buffer.size"] == "8MB"
        assert TABLE_I["spark.default.parallelism"] == \
            "application dependent"

    def test_explicit_parallelism_rendered(self):
        conf = SparkConf(default_parallelism=4096)
        assert conf.table_i()["spark.default.parallelism"] == "4096"


class TestWith:
    def test_with_returns_modified_copy(self):
        base = SparkConf()
        small = base.with_(fetch_request_bytes=128 * 1024)
        assert small.fetch_request_bytes == 128 * 1024
        assert base.fetch_request_bytes == 1 * GB  # original untouched

    def test_defaults(self):
        conf = SparkConf()
        assert conf.buffer_size == 8 * MB
        assert conf.max_concurrent_fetches >= 1
        assert conf.locality_wait == 3.0
        assert conf.task_overhead > 0


class TestValidation:
    """Bad values fail when the conf is built, with a message naming
    the field, instead of deep inside a running simulation."""

    @pytest.mark.parametrize("window", [0, -1, 2.0, True, None])
    def test_fetch_window_must_be_positive_int(self, window):
        with pytest.raises(ValueError,
                           match="max_concurrent_fetches must be an int"):
            SparkConf(max_concurrent_fetches=window)

    @pytest.mark.parametrize("size", [0, 0.0, -1.0, float("nan")])
    def test_fetch_request_bytes_must_be_positive(self, size):
        with pytest.raises(ValueError,
                           match="fetch_request_bytes must be > 0"):
            SparkConf(fetch_request_bytes=size)

    @pytest.mark.parametrize("name", ["fetch_request_overhead",
                                      "task_overhead", "locality_wait"])
    @pytest.mark.parametrize("value", [-1e-6, float("inf"), float("nan")])
    def test_times_must_be_finite_and_non_negative(self, name, value):
        with pytest.raises(ValueError,
                           match=f"{name} must be finite and >= 0"):
            SparkConf(**{name: value})

    @pytest.mark.parametrize("name", ["fetch_request_overhead",
                                      "task_overhead", "locality_wait"])
    def test_zero_times_are_allowed(self, name):
        assert getattr(SparkConf(**{name: 0.0}), name) == 0.0

    def test_with_validates_too(self):
        with pytest.raises(ValueError, match="max_concurrent_fetches"):
            SparkConf().with_(max_concurrent_fetches=0)
        with pytest.raises(ValueError, match="fetch_request_bytes"):
            SparkConf().with_(fetch_request_bytes=0)

    def test_numpy_integer_window_accepted(self):
        np = pytest.importorskip("numpy")
        assert SparkConf(max_concurrent_fetches=np.int64(2)) \
            .max_concurrent_fetches == 2
