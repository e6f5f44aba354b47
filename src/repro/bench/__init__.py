"""Fingerprint-identity check for the simulation engine.

``repro bench`` runs macro scenarios over the engine's optimized hot
paths (fabric shuffle waves, FluidPipe spill storms, an end-to-end
Fig-8-style job, event-loop timer churn, ...) and asserts that each
fingerprint equals the digest captured for it (under ``--check``),
that a telemetry-instrumented run reproduces it byte for byte, and
that the instrumented run's critical-path attribution sums to its
wall-clock.
It prints no timing; the performance trajectory is ``perfbench/``
(``BENCHMARK.json``).

See :mod:`repro.bench.scenarios` for the workloads,
:mod:`repro.bench.harness` for the output line, and
``benchmarks/perf/README.md`` for usage documentation.
"""

from repro.bench.harness import (BenchReport, bench_scenario, main,
                                 run_bench)
from repro.bench.scenarios import SCENARIOS, ScenarioResult, run_scenario

__all__ = [
    "SCENARIOS",
    "BenchReport",
    "ScenarioResult",
    "bench_scenario",
    "main",
    "run_bench",
    "run_scenario",
]
