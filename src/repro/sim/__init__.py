"""Discrete-event simulation kernel.

A small, from-scratch, generator-based DES in the style of SimPy,
providing the substrate for every simulated subsystem in this package:

* :class:`~repro.sim.core.Simulator` — the event loop.
* :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AllOf` — waitable events with
  success/failure propagation.
* :class:`~repro.sim.process.Process` — a generator that yields events.
* :class:`~repro.sim.resources.Resource` — a classic queueing
  primitive (FIFO slots).
* :class:`~repro.sim.fluid.FluidPipe` — a shared-bandwidth fluid channel
  used to model NICs, block devices, and parallel-filesystem pools, on
  the :class:`~repro.sim.fluid.FluidCore` loop it shares with the
  network fabric.
* :class:`~repro.sim.rng.RandomStreams` — named deterministic RNG streams.
* :mod:`~repro.sim.simtime` — epsilon-consistent deadline comparisons
  shared by every timer-driven scheduler feedback loop.
* :class:`~repro.sim.trace.TraceEvent` /
  :class:`~repro.sim.core.SimulationDeadlock` — opt-in structured
  tracing and deadlock forensics.
"""

from repro.sim.core import SimulationDeadlock, Simulator
from repro.sim.events import AllOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.resources import Resource
from repro.sim.fluid import FluidPipe, Flow
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceEvent

__all__ = [
    "AllOf",
    "Event",
    "Flow",
    "FluidPipe",
    "Process",
    "RandomStreams",
    "Resource",
    "SimulationDeadlock",
    "Simulator",
    "Timeout",
    "TraceEvent",
]
