"""Compare two results files written by suite.py.

    python3 perfbench/compare.py A B

For every workload and end-to-end metric it prints both medians with
their quartiles and one verdict on B against A, using the metric's
bound from BENCHMARK.json:

* ``unresolved``: either side's quartile spread is wider than the
  bound, unless every run of B beats every run of A;
* ``WORSE``: B's median is worse than A's by more than the bound;
* ``better``: B's median is better than A's by more than the bound;
* ``within bound``: anything else.

``failed_frac`` has an absolute bound of 0.  The exact per-layer counts
(``calls_in``, events, transfers, stages, jobs) are diffed too.  Results
from different kernel modes, Python versions or ``nproc`` are refused.
Exit code: 2 if refused, 1 if anything is WORSE, else 0.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
#: Results that differ in any of these do not compare.
MUST_MATCH = ("kernel_mode", "python", "nproc")


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    """B's verdict against A for one metric (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    spread = max((x["q3"] - x["q1"]) / x["value"] for x in (a, b))
    if spread > bound:
        beats = (max(b["values"]) < min(a["values"]) if sign > 0
                 else min(b["values"]) > max(a["values"]))
        return "better" if beats else "unresolved"
    if worse_by > bound:
        return "WORSE"
    return "better" if -worse_by > bound else "within bound"


def exact_counts(workload: dict) -> Dict[str, int]:
    return {name: m["value"]
            for name, m in workload.get("layer_metrics", {}).items()
            if m["unit"] == "count"}


def compare(a: dict, b: dict, spec: dict) -> List[str]:
    """The report lines; a line containing ``WORSE`` marks a regression."""
    lines = []
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            lines.append(f"{name}: only in {'B' if wa is None else 'A'}")
            continue
        for metric in spec["end_to_end"]:
            ma = wa["metrics"].get(metric["name"])
            mb = wb["metrics"].get(metric["name"])
            if ma is None or mb is None:
                lines.append(f"{name:<16s} {metric['name']:<12s} missing")
                continue
            lines.append(
                f"{name:<16s} {metric['name']:<12s} "
                f"A {ma['value']:10.4f} [{ma['q1']:.4f}, {ma['q3']:.4f}]  "
                f"B {mb['value']:10.4f} [{mb['q1']:.4f}, {mb['q3']:.4f}] "
                f"{metric['unit']:<3s} {mb['value'] / ma['value'] - 1:+7.1%}"
                f"  {verdict(ma, mb, metric['bound'], metric['better'])}")
        fa, fb = wa["failed_frac"], wb["failed_frac"]
        lines.append(f"{name:<16s} {'failed_frac':<12s} A {fa:.4f}  "
                     f"B {fb:.4f}  "
                     f"{'WORSE' if fb > fa else 'within bound'}")
        ca, cb = exact_counts(wa), exact_counts(wb)
        if not ca or not cb:
            lines.append(f"{name:<16s} counts: not traced in both")
            continue
        diffs = [f"{k} {ca.get(k)} -> {cb.get(k)}"
                 for k in sorted(set(ca) | set(cb)) if ca.get(k) != cb.get(k)]
        lines.append(f"{name:<16s} counts: " + ("identical" if not diffs
                                                else "; ".join(diffs)))
    return lines


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print("usage: python3 perfbench/compare.py A B", file=sys.stderr)
        return 2
    a, b, spec = (_load(path) for path in (*args, SPEC))
    differ = [k for k in MUST_MATCH if a["env"].get(k) != b["env"].get(k)]
    if differ:
        for k in differ:
            print(f"refusing to compare: {k} differs "
                  f"({a['env'].get(k)} vs {b['env'].get(k)})",
                  file=sys.stderr)
        return 2
    lines = compare(a, b, spec)
    print("\n".join(lines))
    return 1 if any("WORSE" in line for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
