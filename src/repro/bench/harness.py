"""Fingerprint-identity check over the macro scenarios.

Every scenario in :mod:`repro.bench.scenarios` runs once under the
optimized engine, and then again in each way that must not change the
simulation:

* ``reference`` (only with ``--check``) — under the retained
  pre-optimization paths (:mod:`repro.sim.perfmode`): the C kernels,
  flow arrays and timer heap must reproduce them byte for byte;
* ``telemetry`` — with a full observation bundle attached (gauges,
  run-log sink, probe sampling), whose trace and run log ``--capture-dir``
  exports;
* ``spans`` — the same bundle folded into the span tree and critical
  path, as ``repro explain`` does.

Each comparison is ``==`` on the scenario fingerprints.  One line per
scenario carries the event count, the fingerprint digest, one
``OK``/``DIVERGED`` verdict per comparison and the span count, and no
timing, so the output is byte-deterministic across reruns, ``--jobs``
and kernel modes.  Timing is ``perfbench/``'s job (``BENCHMARK.json``).
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.bench.scenarios import SCENARIOS, run_scenario
from repro.experiments.runner import map_parallel
from repro.sim import perfmode

__all__ = ["BenchReport", "bench_scenario", "fingerprint_digest",
           "run_bench", "main"]

#: Probe sampling period of the instrumented runs (simulated seconds).
PROBE_PERIOD = 0.25


def fingerprint_digest(fingerprint: Any) -> str:
    """SHA-256 hex digest of a scenario fingerprint's ``repr``."""
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()


@dataclass
class BenchReport:
    """One scenario's optimized outcome and its identity verdicts."""

    name: str
    events: int
    digest: str
    #: Comparison name -> whether that run's fingerprint equals the
    #: optimized run's, in run order; ``reference`` only under --check.
    matches: Dict[str, bool]
    n_spans: int

    @property
    def diverged(self) -> List[str]:
        """The comparisons whose fingerprint differs."""
        return [kind for kind, ok in self.matches.items() if not ok]

    def line(self) -> str:
        verdicts = " ".join(f"{kind} {'OK' if ok else 'DIVERGED'}"
                            for kind, ok in self.matches.items())
        return (f"{self.name:16s} events {self.events:>9d} "
                f"fingerprint {self.digest} {verdicts} "
                f"n_spans {self.n_spans}")


def _capture(name: str, telemetry, capture_dir: str) -> None:
    """Write the instrumented run's Chrome trace and run log."""
    from repro.obs.export import write_chrome_trace, write_runlog
    os.makedirs(capture_dir, exist_ok=True)
    telemetry.meta.setdefault("job_name", f"bench:{name}")
    write_chrome_trace(os.path.join(capture_dir, f"TRACE_{name}.json"),
                       telemetry)
    write_runlog(os.path.join(capture_dir, f"LOG_{name}.jsonl"), telemetry)


def bench_scenario(name: str, quick: bool = False, check: bool = False,
                   capture_dir: Optional[str] = None) -> BenchReport:
    """Run one scenario every way and compare the fingerprints.

    With ``capture_dir``, the telemetry run's trace and run log are
    written there as ``TRACE_<name>.json`` / ``LOG_<name>.jsonl``.
    """
    from repro.obs.critpath import critical_path
    from repro.obs.spans import SpanRecorder
    from repro.obs.telemetry import Telemetry
    optimized = run_scenario(name, quick=quick)
    matches: Dict[str, bool] = {}
    if check:
        with perfmode.reference_mode():
            reference = run_scenario(name, quick=quick)
        matches["reference"] = reference.fingerprint == optimized.fingerprint
    telemetry = Telemetry(probe_period=PROBE_PERIOD)
    result = run_scenario(name, quick=quick, telemetry=telemetry)
    matches["telemetry"] = result.fingerprint == optimized.fingerprint
    if capture_dir is not None:
        _capture(name, telemetry, capture_dir)
    telemetry = Telemetry(probe_period=PROBE_PERIOD)
    result = run_scenario(name, quick=quick, telemetry=telemetry)
    matches["spans"] = result.fingerprint == optimized.fingerprint
    spans = SpanRecorder.from_telemetry(telemetry)
    critical_path(spans)
    return BenchReport(name=name, events=optimized.events,
                       digest=fingerprint_digest(optimized.fingerprint),
                       matches=matches, n_spans=len(spans.spans))


def run_bench(scenarios: Optional[List[str]] = None, quick: bool = False,
              check: bool = False, jobs: int = 1,
              capture_dir: Optional[str] = None) -> List[BenchReport]:
    """Check the selected scenarios (default: all) and print one line each.

    ``jobs > 1`` fans scenarios out across a process pool; the printed
    lines keep scenario order, so the output does not depend on it.
    """
    names = scenarios if scenarios else list(SCENARIOS)
    worker = functools.partial(bench_scenario, quick=quick, check=check,
                               capture_dir=capture_dir)
    reports = map_parallel(worker, names, jobs=jobs)
    for report in reports:
        print(report.line())
    return reports


def main(args) -> int:
    """Entry point for ``repro bench`` (argparse namespace from the CLI).

    Exits 1 and names each scenario where any run diverged.
    """
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}")
        return 2
    reports = run_bench(scenarios=args.scenario or None, quick=args.quick,
                        check=args.check, jobs=args.jobs,
                        capture_dir=args.capture_dir)
    failed = [f"{r.name} ({', '.join(r.diverged)})"
              for r in reports if r.diverged]
    if failed:
        print(f"CHECK FAILED: fingerprints diverged on: {', '.join(failed)}")
        return 1
    return 0
