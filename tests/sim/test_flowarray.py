"""FlowTable: amortized growth + order-preserving compaction.

Property-tests the columnar flow store against a naive list-of-rows
model under random arrive/finish interleavings — the exact workload the
fluid core puts on it — plus direct checks of the amortized-doubling
capacity policy and the order-preserving removal contract that the
byte-identical ``repro bench --check`` guarantee relies on.  Rows are
written the way the fluid core writes them: :meth:`FlowTable.add`, then
one element store per column (``remaining`` and ``rate`` first).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.flowarray import _MIN_CAPACITY, FlowTable


def make_table():
    return FlowTable(src=np.int64, dst=np.int64, size=np.float64)


def append(tab, src, dst, size):
    """Add one row (remaining = size, rate 0); returns its index."""
    n = tab.add()
    remaining, rate, s, d, z = tab.cols
    remaining[n] = size
    rate[n] = 0.0
    s[n] = src
    d[n] = dst
    z[n] = size
    return n


class TestBasics:
    def test_empty(self):
        tab = make_table()
        assert tab.n == 0
        assert tab.col("src").shape == (0,)

    def test_append_and_views(self):
        tab = make_table()
        append(tab, 1, 2, 10.0)
        append(tab, 3, 4, 20.0)
        assert tab.n == 2
        assert tab.col("src").tolist() == [1, 3]
        assert tab.col("size").tolist() == [10.0, 20.0]

    def test_views_are_live(self):
        tab = make_table()
        append(tab, 1, 2, 10.0)
        view = tab.col("size")
        view[0] = 99.0
        assert tab.col("size")[0] == 99.0

    def test_clear(self):
        """Removing every row leaves empty views."""
        tab = make_table()
        append(tab, 1, 2, 3.0)
        tab.remove(np.array([0]))
        assert tab.n == 0
        assert tab.col("src").shape == (0,)

    def test_remaining_and_rate_come_first(self):
        tab = make_table()
        assert len(tab.cols) == 5
        assert tab.col("remaining").dtype == np.float64
        assert tab.col("rate").dtype == np.float64
        with pytest.raises(ValueError, match="first two columns"):
            FlowTable(rate=np.float64)

    def test_columns_must_be_words(self):
        # The drain kernel moves extra columns as 8-byte words.
        with pytest.raises(ValueError, match="8 bytes"):
            FlowTable(flag=np.bool_)

    def test_unknown_column_raises(self):
        tab = make_table()
        with pytest.raises(KeyError):
            tab.col("nope")


class TestRemoval:
    def test_remove_preserves_order(self):
        tab = make_table()
        for i in range(6):
            append(tab, i, i, float(i))
        tab.remove(np.array([1, 4]))
        # Survivors keep their relative order — swap-removal would not.
        assert tab.col("src").tolist() == [0, 2, 3, 5]

    def test_remove_all(self):
        tab = make_table()
        for i in range(3):
            append(tab, i, i, float(i))
        tab.remove(np.array([0, 1, 2]))
        assert tab.n == 0

    def test_remove_then_append_reuses_capacity(self):
        tab = make_table()
        for i in range(5):
            append(tab, i, i, float(i))
        cap_before = tab.capacity
        tab.remove(np.array([0]))
        append(tab, 9, 9, 9.0)
        assert tab.capacity == cap_before
        assert tab.col("src").tolist() == [1, 2, 3, 4, 9]


class TestAmortizedGrowth:
    def test_capacity_doubles(self):
        tab = make_table()
        caps = set()
        for i in range(200):
            append(tab, i, i, float(i))
            caps.add(tab.capacity)
        # Doubling from the minimum: a handful of distinct capacities,
        # not one per append.
        assert len(caps) <= 6
        for c in caps:
            assert c & (c - 1) == 0 or c == _MIN_CAPACITY

    def test_growth_keeps_data(self):
        tab = make_table()
        for i in range(100):
            append(tab, i, 2 * i, float(i))
        assert tab.col("dst").tolist() == [2 * i for i in range(100)]


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 9), st.integers(0, 9),
                  st.floats(0.0, 1e9, allow_nan=False)),
        st.tuples(st.just("remove"), st.integers(0, 2 ** 30))),
    max_size=60))
def test_matches_naive_list_model(ops):
    """Random arrive/finish interleavings match a list-of-rows model."""
    import random

    tab = make_table()
    model = []
    for op in ops:
        if op[0] == "append":
            _, s, d, z = op
            append(tab, s, d, z)
            model.append((s, d, z))
        else:
            if not model:
                continue
            rng = random.Random(op[1])
            k = rng.randint(1, len(model))
            drop = sorted(rng.sample(range(len(model)), k))
            tab.remove(np.array(drop, dtype=np.int64))
            dropped = set(drop)
            model = [r for i, r in enumerate(model) if i not in dropped]
        assert tab.n == len(model)
        assert tab.col("src").tolist() == [r[0] for r in model]
        assert tab.col("dst").tolist() == [r[1] for r in model]
        assert tab.col("size").tolist() == [r[2] for r in model]
        assert tab.col("remaining").tolist() == [r[2] for r in model]
