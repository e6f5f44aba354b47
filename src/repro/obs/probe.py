"""Sim-clock probes: periodic gauge sampling into columnar series.

A :class:`Probe` samples every gauge in a registry on a fixed sim-time
period, storing readings column-per-gauge (``array('d')``).  It rides
the simulator's *daemon* timers (:meth:`Simulator.schedule_daemon`), so

* sampling cannot keep ``run(until=None)`` alive or mask a deadlock;
* ``events_dispatched`` — the numerator of perfbench's
  ``sim.core.events_per_s`` — is untouched;
* the simulation's own heap ordering is unchanged for real entries
  (daemons consume sequence numbers but relative FIFO order of
  non-daemon entries is preserved).

Gauges registered *after* the probe started (e.g. per-phase runner
gauges) are back-filled with NaN for the samples they missed, so all
columns stay aligned with the shared time axis.
"""

from __future__ import annotations

from array import array
from math import nan
from typing import TYPE_CHECKING, Dict, List

from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["Probe"]


class Probe:
    """Periodic sampler of a registry's gauges on a simulator's clock."""

    def __init__(self, sim: "Simulator", registry: MetricsRegistry,
                 period: float = 0.25) -> None:
        if period <= 0:
            raise ValueError(f"probe period must be positive, got {period}")
        self.sim = sim
        self.registry = registry
        self.period = float(period)
        self.times: array = array("d")
        self.columns: Dict[str, array] = {}
        self.samples_taken = 0
        self._token = 0
        self._running = False

    def start(self) -> None:
        """Take a t=now sample and arm the periodic daemon timer."""
        if self._running:
            return
        self._running = True
        self._token += 1
        self.sample()
        self.sim.schedule_daemon(self.period, self._tick, self._token)

    def stop(self, final: bool = True) -> None:
        """Stop sampling; by default take one closing sample so the
        series always covers the run's endpoint."""
        if not self._running:
            return
        self._running = False
        self._token += 1  # stale-token the armed daemon
        if final and (len(self.times) == 0 or self.times[-1] != self.sim.now):
            self.sample()

    def sample(self) -> None:
        """Read every gauge once, appending one row to the series."""
        n_prev = len(self.times)
        self.times.append(self.sim.now)
        cols = self.columns
        for key, gauge in self.registry.gauges.items():
            col = cols.get(key)
            if col is None:
                # Late-registered gauge: align with rows it missed.
                col = cols[key] = array("d", [nan] * n_prev)
            col.append(gauge.read())
        self.samples_taken += 1

    def _tick(self, token: int) -> None:
        if token != self._token:
            return  # stopped (or restarted) since this timer was armed
        self.sample()
        self.sim.schedule_daemon(self.period, self._tick, token)

    # -- read side --------------------------------------------------------
    def series(self) -> Dict[str, List[float]]:
        """The sampled series as plain lists (time axis + one list per
        gauge, NaN-padded to equal length)."""
        n = len(self.times)
        out: Dict[str, List[float]] = {"time": list(self.times)}
        for key, col in sorted(self.columns.items()):
            padded = list(col)
            if len(padded) < n:
                padded.extend([nan] * (n - len(padded)))
            out[key] = padded
        return out
