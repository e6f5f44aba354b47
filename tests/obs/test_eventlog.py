"""The columnar event store gives back exactly what was appended.

:class:`~repro.obs.eventlog.EventLog` packs each payload's numbers into
its shape's table and rebuilds a payload dict per event on iteration,
so the property checked here is exactness: the same keys in the same
order, each value of the same type and equal (``-0.0`` keeps its sign,
``True`` stays a bool, an int beyond int64 survives), and the same
``json.dumps`` bytes, whatever mix of shapes and types the stream has.
"""

import json
import math
from array import array
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.eventlog import EventLog

KINDS = ("flow-start", "launch", "fault-crash", "fault-x", "offer", "b")
KEYS = ("node", "n", "times", "reason", "x")

values = st.one_of(
    st.floats(allow_nan=True),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324]),
    st.integers(min_value=-2**80, max_value=2**80),
    st.sampled_from([2**63 - 1, -2**63, 2**63, -2**63 - 1]),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
    st.lists(st.floats(allow_nan=False), max_size=3).map(
        lambda xs: array("d", xs)),
)
payloads = st.lists(st.tuples(st.sampled_from(KEYS), values),
                    max_size=len(KEYS)).map(dict)
records = st.lists(st.tuples(st.floats(allow_nan=False),
                             st.sampled_from(KINDS), payloads),
                   max_size=40)


def _same(a, b):
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return (a == b or (math.isnan(a) and math.isnan(b))) and \
            math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def _assert_exact(appended, got):
    assert len(got) == len(appended)
    for (t, kind, d), (t2, kind2, d2) in zip(appended, got):
        assert _same(float(t), t2) and kind2 == kind
        assert list(d2) == list(d)
        for k in d:
            assert _same(d[k], d2[k]), (k, d[k], d2[k])
        assert json.dumps(d2, default=list) == json.dumps(d, default=list)


def _filled(recs):
    log = EventLog()
    for t, kind, d in recs:
        log.append(t, kind, d)
    return log


@settings(max_examples=200, deadline=None)
@given(records)
def test_iteration_returns_what_was_appended(recs):
    log = _filled(recs)
    assert len(log) == len(recs)
    _assert_exact(recs, list(log))
    _assert_exact(recs, list(log))  # the store iterates again


@settings(max_examples=100, deadline=None)
@given(records, st.sets(st.sampled_from(KINDS)),
       st.sampled_from([(), ("fault-",), ("f", "b")]))
def test_select_equals_filtering_the_full_iteration(recs, kinds, prefixes):
    log = _filled(recs)
    expected = [r for r in log
                if r[1] in kinds or r[1].startswith(prefixes)]
    _assert_exact(expected, list(log.select(kinds, prefixes)))
    for kind in KINDS:
        assert log.count(kind) == sum(1 for r in recs if r[1] == kind)


@settings(max_examples=100, deadline=None)
@given(records, st.sampled_from(KEYS))
def test_field_values_are_every_records_field(recs, key):
    """Table by table, but the same values as reading each payload."""
    def census(vals):
        return Counter((type(v).__name__, repr(v)) for v in vals)

    log = _filled(recs)
    assert census(log.field_values(key)) == \
        census(d[key] for _, _, d in recs if key in d)


def test_a_field_keeps_each_values_own_type():
    recs = [(0.0, "e", {"x": 1, "s": True}),
            (1.0, "e", {"x": 1.5, "s": 1}),
            (2.0, "e", {"x": 2**64, "s": False}),
            (3.0, "e", {"s": None, "x": -0.0}),
            (4.0, "e", {}),
            (5.0, "e", {"x": 3, "s": True})]
    _assert_exact(recs, list(_filled(recs)))


def test_payloads_are_fresh_dicts():
    log = _filled([(0.0, "a", {"x": 1, "y": "s"})])
    (_, _, d), = log
    d["x"] = 2
    assert list(log) == [(0.0, "a", {"x": 1, "y": "s"})]


def test_appending_during_an_iteration_keeps_both_consistent():
    recs = [(float(i), "flow-start", {"fid": i, "nbytes": 1.0 * i})
            for i in range(4)]
    log = _filled(recs)
    it = iter(log)
    first = next(it)
    log.append(9.0, "flow-start", {"fid": 9, "nbytes": 9.0})
    _assert_exact(recs, [first, *it])
    _assert_exact(recs + [(9.0, "flow-start", {"fid": 9, "nbytes": 9.0})],
                  list(log))
