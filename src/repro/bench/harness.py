"""Fingerprint-identity check over the macro scenarios.

Every scenario in :mod:`repro.bench.scenarios` runs once bare, and its
fingerprint is checked in each way that must not change the simulation:

* ``golden`` (only with ``--check``) — its digest equals the one
  captured for that scenario and scale in :data:`GOLDEN_PATH`
  (``tools/capture_fingerprints.py bench``); no extra run;
* ``telemetry`` — a second run with a full observation bundle attached
  (gauges, run-log sink, probe sampling), whose trace and run log
  ``--capture-dir`` exports, must reproduce the fingerprint with ``==``.

The ``spans`` verdict checks the telemetry run's span tree instead: folded
into the critical path as ``repro explain`` does, its attribution must
sum to the job span's wall-clock (DESIGN.md §15).  One line per
scenario carries the event count, the fingerprint digest, one
``OK``/``DIVERGED`` verdict per check and the span count, and no
timing, so the output is byte-deterministic across reruns, ``--jobs``
and kernel modes.  Timing is ``perfbench/``'s job (``BENCHMARK.json``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.bench.scenarios import SCENARIOS, run_scenario
from repro.experiments.runner import map_parallel
from repro.obs.critpath import attribution, critical_path
from repro.obs.spans import SpanRecorder
from repro.obs.telemetry import Telemetry

__all__ = ["BenchReport", "bench_scenario", "fingerprint_digest",
           "golden_digests", "run_bench", "main"]

#: Captured fingerprint digests: ``{"quick"|"full": {scenario: digest}}``.
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "digests.json")

#: Probe sampling period of the instrumented runs (simulated seconds).
PROBE_PERIOD = 0.25

#: How far the critical path's attribution may miss the job span's
#: wall-clock (seconds) before the ``spans`` check fails.
ATTRIBUTION_TOLERANCE = 1e-6


def fingerprint_digest(fingerprint: Any) -> str:
    """SHA-256 hex digest of a scenario fingerprint's ``repr``."""
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()


def golden_digests() -> Dict[str, Dict[str, str]]:
    """The captured digests in :data:`GOLDEN_PATH`, by scale then name."""
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@dataclass
class BenchReport:
    """One scenario's outcome and its identity verdicts."""

    name: str
    events: int
    digest: str
    #: Check name -> whether it held, in order: ``golden`` (only under
    #: --check) compares the digest with the captured one, ``telemetry``
    #: the instrumented run's fingerprint with the bare run's, and
    #: ``spans`` checks the attribution sum.
    matches: Dict[str, bool]
    n_spans: int

    @property
    def diverged(self) -> List[str]:
        """The checks that failed."""
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


def _attribution_sums(spans: SpanRecorder) -> bool:
    """Whether the critical path's attribution sums to the job span's
    wall-clock within :data:`ATTRIBUTION_TOLERANCE`."""
    job = spans.job
    wall = job.end - job.start
    return abs(sum(attribution(critical_path(spans)).values()) - wall) \
        <= ATTRIBUTION_TOLERANCE


def bench_scenario(name: str, quick: bool = False, check: bool = False,
                   capture_dir: Optional[str] = None) -> BenchReport:
    """Run one scenario every way and check every verdict.

    With ``capture_dir``, the telemetry run's trace and run log are
    written there as ``TRACE_<name>.json`` / ``LOG_<name>.jsonl``.
    """
    bare = run_scenario(name, quick=quick)
    digest = fingerprint_digest(bare.fingerprint)
    matches: Dict[str, bool] = {}
    if check:
        scale = "quick" if quick else "full"
        matches["golden"] = golden_digests()[scale].get(name) == digest
    telemetry = Telemetry(probe_period=PROBE_PERIOD)
    result = run_scenario(name, quick=quick, telemetry=telemetry)
    matches["telemetry"] = result.fingerprint == bare.fingerprint
    if capture_dir is not None:
        _capture(name, telemetry, capture_dir)
    spans = SpanRecorder.from_telemetry(telemetry)
    matches["spans"] = _attribution_sums(spans)
    return BenchReport(name=name, events=bare.events, digest=digest,
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

    Exits 1 and names each scenario where any check failed, 2 on bad
    arguments.
    """
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}")
        return 2
    unknown = [name for name in args.scenario if name not in SCENARIOS]
    if unknown:
        print(f"unknown --scenario {', '.join(unknown)}; "
              f"choose from {', '.join(SCENARIOS)}")
        return 2
    reports = run_bench(scenarios=args.scenario or None, quick=args.quick,
                        check=args.check, jobs=args.jobs,
                        capture_dir=args.capture_dir)
    failed = [f"{r.name} ({', '.join(r.diverged)})"
              for r in reports if r.diverged]
    if failed:
        print(f"CHECK FAILED: diverged on: {', '.join(failed)}")
        return 1
    return 0
