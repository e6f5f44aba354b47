"""Programmatic validation of every reproduced paper claim.

``python -m repro.experiments validate`` runs each experiment at the
given scale and checks the paper's qualitative claims against the
measured rows, printing a PASS/FAIL report — the same predicates the
benchmark suite asserts, reusable outside pytest (and the source of the
paper-vs-measured table in EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.common import GB, Scale, SMALL, ExperimentResult
from repro.experiments.runner import SweepRunner, run_experiments

__all__ = ["Claim", "CLAIMS", "validate", "render_report"]


@dataclass
class Claim:
    """One paper claim with a measurable predicate."""

    claim_id: str
    experiment: str
    paper: str
    check: Callable[[ExperimentResult], bool]
    measure: Callable[[ExperimentResult], str]


def _rows_by(result: ExperimentResult, *key_cols):
    return {tuple(r[c] for c in key_cols): r for r in result.rows}


# -- predicate helpers over experiment rows ---------------------------------

def _fig05_grep_ratio(res):
    rows = _rows_by(res, 0, 1)
    return rows[("grep", 32.0)][4]


def _fig05_lr_ratio(res):
    rows = _rows_by(res, 0, 1)
    return rows[("lr", 32.0)][4]


def _fig07_ratios(res):
    return res.column("local/hdfs"), res.column("shared/local")


def _fig08_small_big(res):
    rows = _rows_by(res, 0)
    return rows[(100.0,)], rows[(1536.0,)]


def _fig09_degs(res):
    rows = _rows_by(res, 0, 1)
    return rows[("grep", 32.0)][4], rows[("lr", 32.0)][4]


CLAIMS: List[Claim] = [
    Claim("table1", "table1", "Table I parameters match verbatim",
          lambda r: all(row[-1] == "yes" for row in r.rows),
          lambda r: f"{sum(row[-1] == 'yes' for row in r.rows)}/5 match"),
    Claim("fig05-grep", "fig05",
          "Grep: Lustre up to 5.7x slower than HDFS at 32MB splits",
          lambda r: 2.0 < _fig05_grep_ratio(r) < 12.0,
          lambda r: f"{_fig05_grep_ratio(r):.2f}x"),
    Claim("fig05-lr", "fig05",
          "LR: storage architecture ~neutral (Lustre ~12.7% faster)",
          lambda r: _fig05_lr_ratio(r) < 1.1,
          lambda r: f"lustre/hdfs={_fig05_lr_ratio(r):.2f}"),
    Claim("fig07-local", "fig07",
          "HDFS beats Lustre-local, growing with size (up to 6.5x)",
          lambda r: _fig07_ratios(r)[0][-1] > max(
              2.5, _fig07_ratios(r)[0][0]),
          lambda r: f"{_fig07_ratios(r)[0][-1]:.2f}x at the largest size"),
    Claim("fig07-shared", "fig07",
          "Lustre-shared up to 3.8x worse than Lustre-local",
          lambda r: max(x for x in _fig07_ratios(r)[1]
                        if not math.isnan(x)) > 1.5,
          lambda r: f"up to {max(x for x in _fig07_ratios(r)[1] if not math.isnan(x)):.2f}x"),
    Claim("fig08-cache", "fig08",
          "SSD ~= RAMDisk at 100GB (page cache)",
          lambda r: _fig08_small_big(r)[0][3] < 1.35,
          lambda r: f"ssd/ramdisk={_fig08_small_big(r)[0][3]:.2f}"),
    Claim("fig08-capacity", "fig08",
          "RAMDisk curve ends by 1.5TB; SSD continues",
          lambda r: math.isnan(_fig08_small_big(r)[1][1])
          and not math.isnan(_fig08_small_big(r)[1][2]),
          lambda r: "ramdisk=n/a, ssd runs"),
    Claim("fig08-spread", "fig08",
          "ShuffleMapTask spread explodes at 1.5TB (paper: 18x)",
          lambda r: _fig08_small_big(r)[1][7] > 6.0,
          lambda r: f"{_fig08_small_big(r)[1][7]:.1f}x"),
    Claim("fig09-grep", "fig09",
          "Delay scheduling degrades Grep severely (paper: 42.7%)",
          lambda r: _fig09_degs(r)[0] > 15.0,
          lambda r: f"+{_fig09_degs(r)[0]:.1f}%"),
    Claim("fig09-order", "fig09",
          "Grep hurt more than LR (paper: 42.7% vs 9.9%)",
          lambda r: _fig09_degs(r)[0] > _fig09_degs(r)[1],
          lambda r: f"grep +{_fig09_degs(r)[0]:.1f}% vs "
                    f"lr +{_fig09_degs(r)[1]:.1f}%"),
    Claim("fig12-spread", "fig12",
          "Tail nodes host ~2x the head nodes' intermediate data",
          lambda r: r.rows[-1][5] > 1.3,
          lambda r: f"tail/head={r.rows[-1][5]:.2f}"),
    Claim("fig13-storage", "fig13",
          "ELB ~26% job gain under the storage bottleneck (1-1.5TB)",
          lambda r: max(row[4] for row in r.rows
                        if row[0] == "storage") > 8.0,
          lambda r: f"{max(row[4] for row in r.rows if row[0] == 'storage'):.1f}%"),
    Claim("fig13-network", "fig13",
          "ELB shuffle ~29% faster under the network bottleneck",
          lambda r: any(row[8] < row[7] * 0.95 for row in r.rows
                        if row[0] == "network"),
          lambda r: "; ".join(
              f"{(1 - row[8] / row[7]) * 100:.1f}%" for row in r.rows
              if row[0] == "network")),
    Claim("fig14-quiet", "fig14",
          "CAD: no effect at small data sizes",
          lambda r: abs(r.rows[0][3]) < 12.0,
          lambda r: f"{r.rows[0][3]:+.1f}% at {r.rows[0][0]:.0f}GB"),
    Claim("fig14-gain", "fig14",
          "CAD storing-phase gain in the GC regime (paper: 41.2%)",
          lambda r: r.rows[-1][6] > 10.0,
          lambda r: f"-{r.rows[-1][6]:.1f}% storing at "
                    f"{r.rows[-1][0]:.0f}GB"),
]


def validate(scale: Scale = SMALL,
             seeds: Sequence[int] = (0, 1, 2),
             runner: Optional[SweepRunner] = None) -> List[Dict]:
    """Run all experiments once, as one sweep batch (see
    :func:`~repro.experiments.runner.run_experiments`), and evaluate
    every claim.  Passing no runner keeps the historical serial,
    side-effect-free behaviour."""
    results = dict(run_experiments(sorted({c.experiment for c in CLAIMS}),
                                   scale=scale, seeds=seeds, runner=runner))
    report = []
    for claim in CLAIMS:
        res = results[claim.experiment]
        try:
            ok = bool(claim.check(res))
            measured = claim.measure(res)
        except Exception as exc:  # surface, don't hide, broken claims
            ok = False
            measured = f"error: {exc!r}"
        report.append({"id": claim.claim_id, "paper": claim.paper,
                       "measured": measured, "pass": ok})
    return report


def render_report(report: List[Dict]) -> str:
    lines = ["claim validation report", "=" * 60]
    for row in report:
        status = "PASS" if row["pass"] else "FAIL"
        lines.append(f"[{status}] {row['id']}: {row['paper']}")
        lines.append(f"        measured: {row['measured']}")
    n_pass = sum(r["pass"] for r in report)
    lines.append(f"{n_pass}/{len(report)} claims reproduced")
    return "\n".join(lines)
