"""The metrics registry: counters, gauges, histograms.

Design constraints, in priority order:

1. **Disabled is free.**  Every component asks for its instruments
   unconditionally; when the registry is disabled it hands back the
   shared :data:`NULL_INSTRUMENT` whose ``inc``/``observe`` are
   allocation-free no-ops.  Hot paths therefore carry no ``if metrics``
   branches and no per-event allocations (test-asserted with
   ``sys.getallocatedblocks``).
2. **Enabled is perturbation-free.**  Instruments only *record*; gauges
   are pure-read callbacks sampled by probes on the sim clock via
   daemon timers.  Nothing in this module touches RNG state, schedules
   simulation work, or mutates simulated state, so result fingerprints
   are byte-identical with telemetry on or off.
3. **Names are structured.**  An instrument is identified by a metric
   name plus a label set, serialized as ``name{k=v,...}`` with labels
   sorted by key — the same convention Prometheus exposition uses, so
   keys are stable, greppable, and parse back losslessly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "NULL_INSTRUMENT", "NULL_REGISTRY", "instrument_key", "parse_key",
]


def instrument_key(name: str, labels: Optional[Dict[str, Any]] = None) -> str:
    """Canonical instrument identity: ``name`` or ``name{k=v,...}``.

    Labels are sorted by key so the same (name, labels) pair always
    produces the same string regardless of construction order.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`instrument_key` (label values come back as str)."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels: Dict[str, str] = {}
    for part in inner[:-1].split(","):
        if part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


class Counter:
    """A monotonically increasing count (launches, bytes, evictions)."""

    __slots__ = ("key", "value")

    def __init__(self, key: str) -> None:
        self.key = key
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A point-in-time reading supplied by a pure-read callback.

    The callback must only *read* state (queue depths, free slots,
    fabric utilization); probes invoke it on the sim clock.
    Re-registering the same key replaces the callback — components that
    are rebuilt mid-run (e.g. a stage runner per phase) simply point
    the gauge at their current instance.
    """

    __slots__ = ("key", "fn")

    def __init__(self, key: str, fn: Callable[[], float]) -> None:
        self.key = key
        self.fn = fn

    def read(self) -> float:
        return float(self.fn())


class Histogram:
    """A stream of observations kept verbatim (durations, sizes).

    Runs are small enough (tens of thousands of tasks) that storing
    raw observations beats maintaining bucket boundaries, and exporters
    can derive any percentile exactly.
    """

    __slots__ = ("key", "values")

    def __init__(self, key: str) -> None:
        self.key = key
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    def summary(self) -> Dict[str, float]:
        vals = sorted(self.values)
        n = len(vals)
        if n == 0:
            return {"count": 0}
        def pct(q: float) -> float:
            return vals[min(n - 1, int(q * n))]
        return {
            "count": n,
            "sum": float(sum(vals)),
            "min": vals[0],
            "p50": pct(0.50),
            "p95": pct(0.95),
            "max": vals[-1],
        }


class _NullInstrument:
    """Shared do-nothing stand-in handed out by a disabled registry.

    One instance serves as counter, gauge, and histogram: all mutating
    methods are no-ops, all reads return zero.  Being a singleton, the
    disabled path allocates nothing per instrument request either.
    """

    __slots__ = ()

    key = ""

    def inc(self, amount: float = 1.0) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def read(self) -> float:
        return 0.0

    @property
    def value(self) -> float:
        return 0.0

    @property
    def values(self) -> list:
        return []

    def summary(self) -> Dict[str, float]:
        return {"count": 0}


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Instrument factory and store.

    Components call ``registry.counter(...)`` / ``gauge`` / ``histogram``
    unconditionally; a disabled registry returns :data:`NULL_INSTRUMENT`
    so instrumentation sites never branch.  Requesting an existing key
    returns the existing instrument (counters/histograms accumulate
    across requesters; gauges replace their callback, see :class:`Gauge`).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str,
                labels: Optional[Dict[str, Any]] = None) -> Counter:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        key = instrument_key(name, labels)
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter(key)
        return inst

    def gauge(self, name: str, fn: Callable[[], float],
              labels: Optional[Dict[str, Any]] = None) -> Gauge:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        key = instrument_key(name, labels)
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge(key, fn)
        else:
            inst.fn = fn
        return inst

    def histogram(self, name: str,
                  labels: Optional[Dict[str, Any]] = None) -> Histogram:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        key = instrument_key(name, labels)
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(key)
        return inst

    def freeze_gauges(self) -> None:
        """Pin every gauge to its current reading.

        Drops the callbacks, and with them the live components they
        reach (engine, cluster, devices), once the readings are final.
        """
        for gauge in self._gauges.values():
            value = gauge.read()
            gauge.fn = lambda value=value: value

    # -- read side (exporters, probes, reports) ---------------------------
    @property
    def counters(self) -> Dict[str, Counter]:
        return self._counters

    @property
    def gauges(self) -> Dict[str, Gauge]:
        return self._gauges

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return self._histograms

    def snapshot(self) -> Dict[str, Any]:
        """Endpoint values of every instrument (for the run-log footer)."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.read() for k, g in sorted(self._gauges.items())},
            "histograms": {k: h.summary()
                           for k, h in sorted(self._histograms.items())},
        }


#: The shared disabled registry: components that are handed no registry
#: default to this one, keeping every instrumentation site unconditional.
NULL_REGISTRY = MetricsRegistry(enabled=False)
