"""Memory as a first-class elastic resource (DESIGN.md §13).

The paper's framework is memory-resident by construction: every job fits
its working set in the executor heap, so memory never appears in the
scheduler.  This module models what happens when it no longer fits —
following "Don't cry over spilled records" (arXiv:1702.04323), which
shows that tasks launched with a *fraction* of their ideal heap pay a
modest, predictable spill-I/O penalty that a scheduler can trade against
queueing delay.

Four pieces:

* :class:`MemoryConfig` — the frozen, hashable knob bundle carried on
  :class:`~repro.core.engine.EngineOptions` (``memory=None``, the
  default, keeps the whole subsystem inert and every historical
  fingerprint byte-identical).
* :class:`SpillCurve` — spilled bytes as a function of the granted heap
  fraction: zero at fraction 1.0, monotone non-increasing in the
  fraction (property-tested).
* :class:`ClusterMemory` — per-node executor-heap accounting with
  separate execution and cache (storage) regions, M3R/Spark-style.  The
  serve layer shares ONE instance across concurrent jobs, so tenants
  genuinely contend for heap the way they contend for cores.
* :class:`MemoryGate` — the per-stage admission gate, the same
  :class:`~repro.core.scheduler.AdmissionGate` protocol as CAD's
  throttle: the stage runner consults it per free node, and it either
  declines the offer (rigid mode: queueing delay instead of spill) or
  shrinks the launch (elastic mode: more concurrency, some spill I/O).

Stall-freedom (the PR 1 lost-wakeup discipline): a memory decline is
always re-offered — completions on the same runner re-offer as usual,
:meth:`ClusterMemory.release` notifies every attached gate, which wakes
its runner, so *other* jobs' stages re-offer when heap frees, and a node
with zero outstanding execution reservations always admits one task
(shrunk to the floor if need be), so the cluster can never deadlock on
memory alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.scheduler import AdmissionGate

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.task import SimTask
    from repro.sim.core import Simulator

__all__ = ["MemoryConfig", "SpillCurve", "ClusterMemory", "MemoryGate"]

#: Tolerance for float drift in reserve/release round trips: a node whose
#: free heap is within this of the request is considered to fit it.
_EPS = 1e-6


@dataclass(frozen=True)
class MemoryConfig:
    """Memory-elasticity knobs for one run (frozen: hashed into
    experiment-cache fingerprints like every other EngineOptions field).

    ``mem_frac`` scales each node's *available* executor heap — the
    scarcity knob: at 0.5 only half the configured Spark memory exists.
    Each task's ideal heap stays ``spark_mem_bytes / cores`` (or the
    JobSpec's explicit ``task_heap_bytes``), so at ``mem_frac=1.0``
    exactly one ideal heap per core fits and nothing ever declines or
    spills — the inert operating point.
    """

    #: Fraction of the node's configured Spark memory actually available.
    mem_frac: float = 1.0
    #: Elastic mode: shrink launches instead of declining offers.
    elastic: bool = False
    #: Smallest heap fraction a shrunk task may be launched with.
    min_task_frac: float = 0.25
    #: Volume spill traffic is routed through ("ssd" | "ramdisk").
    spill_store: str = "ssd"
    #: Working-set multiplier: spillable bytes per task as a fraction of
    #: the task's input bytes.
    spill_ratio: float = 1.0
    #: Curve shape: spilled = working_set * ratio * (1 - frac)**gamma.
    spill_gamma: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.mem_frac <= 1.0:
            raise ValueError(
                f"mem_frac must be in (0, 1], got {self.mem_frac}")
        if not 0.0 < self.min_task_frac <= 1.0:
            raise ValueError(
                f"min_task_frac must be in (0, 1], got {self.min_task_frac}")
        if self.spill_store not in ("ssd", "ramdisk"):
            raise ValueError(
                f"spill_store must be 'ssd' or 'ramdisk', "
                f"got {self.spill_store!r}")
        if self.spill_ratio < 0:
            raise ValueError(
                f"spill_ratio must be >= 0, got {self.spill_ratio}")
        if self.spill_gamma <= 0:
            raise ValueError(
                f"spill_gamma must be > 0, got {self.spill_gamma}")

    def with_(self, **kw) -> "MemoryConfig":
        return replace(self, **kw)


class SpillCurve:
    """Spilled bytes as a function of the granted heap fraction.

    The arXiv:1702.04323 observation: a task granted fraction ``f`` of
    its ideal heap spills roughly in proportion to the missing memory.
    Invariants (property-tested in tests/core/test_memory.py): exactly
    0.0 at ``f >= 1``, monotone non-increasing in ``f``, never exceeds
    ``working_set * ratio``.
    """

    __slots__ = ("working_set", "ratio", "gamma")

    def __init__(self, working_set: float, ratio: float = 1.0,
                 gamma: float = 1.0) -> None:
        if working_set < 0:
            raise ValueError(f"working_set must be >= 0, got {working_set}")
        self.working_set = float(working_set)
        self.ratio = float(ratio)
        self.gamma = float(gamma)

    def spilled_bytes(self, frac: float) -> float:
        if frac <= 0:
            raise ValueError(f"heap fraction must be > 0, got {frac}")
        if frac >= 1.0:
            return 0.0
        return self.working_set * self.ratio * (1.0 - frac) ** self.gamma


class ClusterMemory:
    """Per-node executor-heap accounting, shared across concurrent jobs.

    Two regions per node, M3R/Spark unified-memory style:

    * **execution** — reserved at task launch, released at task exit;
      this is what admission gates on.
    * **cache** (storage) — memory-resident RDD partitions.  Execution
      may evict storage under pressure in Spark's unified model, so
      cache occupancy is *tracked and reported* (telemetry, the serve
      layer's placement hint) but never blocks a launch — gating
      execution on evictable bytes would deadlock a cache-heavy node.

    Pure bookkeeping: reserving and releasing consume no simulated time
    and schedule no events, so with nothing ever declined (mem_frac 1.0)
    an accounted run is event-for-event identical to an unaccounted one.
    """

    def __init__(self, n_nodes: int, heap_bytes: float) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        if heap_bytes <= 0:
            raise ValueError(f"heap_bytes must be > 0, got {heap_bytes}")
        self.n_nodes = n_nodes
        #: Available executor heap per node (already scaled by mem_frac).
        self.heap_bytes = float(heap_bytes)
        self.exec_used: List[float] = [0.0] * n_nodes
        self.cache_used: List[float] = [0.0] * n_nodes
        #: Outstanding execution reservations per node (count, not bytes)
        #: — the progress guarantee keys off this.
        self.exec_count: List[int] = [0] * n_nodes
        self._outstanding = 0
        #: Gates (or any callable taking a node id) notified when an
        #: execution reservation on that node is released.
        self._listeners: List[Callable[[int], None]] = []

    # -- queries ---------------------------------------------------------------
    def free(self, node: int) -> float:
        """Heap available for a new execution reservation on ``node``."""
        return max(0.0, self.heap_bytes - self.exec_used[node])

    def has_outstanding(self) -> bool:
        """Any execution reservation held anywhere in the cluster (its
        release will notify listeners — the stall-freedom witness)."""
        return self._outstanding > 0

    # -- execution region -------------------------------------------------------
    def reserve(self, node: int, nbytes: float) -> None:
        self.exec_used[node] += nbytes
        self.exec_count[node] += 1
        self._outstanding += 1

    def release(self, node: int, nbytes: float) -> None:
        self.exec_used[node] = max(0.0, self.exec_used[node] - nbytes)
        self.exec_count[node] -= 1
        self._outstanding -= 1
        # Snapshot: a listener may attach/detach a gate re-entrantly.
        for fn in list(self._listeners):
            fn(node)

    # -- cache (storage) region -------------------------------------------------
    def reserve_cache(self, node: int, nbytes: float) -> None:
        self.cache_used[node] += nbytes

    def release_cache(self, node: int, nbytes: float) -> None:
        self.cache_used[node] = max(0.0, self.cache_used[node] - nbytes)

    # -- wakeup plumbing --------------------------------------------------------
    def add_listener(self, fn: Callable[[int], None]) -> None:
        self._listeners.append(fn)

    def remove_listener(self, fn: Callable[[int], None]) -> None:
        if fn in self._listeners:
            self._listeners.remove(fn)


class MemoryGate(AdmissionGate):
    """Per-stage memory admission: decline offers or shrink launches.

    The :class:`~repro.core.scheduler.StageRunner` consults
    :meth:`check` per free node in its offer sweep (after CAD, before
    the policy), calls :meth:`on_launch` when a task starts and
    :meth:`on_release` when its attempt is booked out.  A decline waits
    for a heap release: the gate listens to the shared
    :class:`ClusterMemory` while attached and wakes its runner on every
    release, its own runner's included.

    Grant rule per launch attempt:

    * **rigid** (``elastic=False``): grant the full ideal heap; decline
      the node while it cannot fit one — scarcity becomes queueing.
    * **elastic**: grant ``clamp(free, min_frac*ideal, ideal)``; a task
      granted fraction ``f < 1`` spills per its
      :class:`SpillCurve` — scarcity becomes (cheap) spill I/O.

    Progress guarantee (both modes): a node with zero outstanding
    execution reservations always admits one task, over-committing if
    the floor exceeds what is free — otherwise cache residency or float
    drift could wedge an empty node forever.
    """

    kind = "mem-decline"
    counter = "sched.mem_declines"

    def __init__(self, memory: ClusterMemory, ideal_task_heap: float,
                 elastic: bool = False, min_task_frac: float = 0.25) -> None:
        if ideal_task_heap <= 0:
            raise ValueError(
                f"ideal_task_heap must be > 0, got {ideal_task_heap}")
        self.memory = memory
        self.ideal = float(ideal_task_heap)
        self.elastic = elastic
        self.min_frac = float(min_task_frac)
        #: (task_id, node) -> [(granted bytes, granted fraction)] per
        #: live attempt (a list: a speculative twin may land on the same
        #: node as the original).
        self._grants: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
        self._wake: Optional[Callable[[], None]] = None
        # Counters (read by obs wiring / the engine's MemoryMetrics).
        self.declines = 0
        self.tasks_shrunk = 0
        self.min_granted_frac = 1.0

    # -- scheduler-facing -------------------------------------------------------
    def check(self, node: int, now: float) -> Optional[float]:
        free = self.memory.free(node)
        if free + _EPS >= self.ideal:
            return None
        if self.memory.exec_count[node] == 0:
            return None  # progress guarantee: an empty node always admits
        if self.elastic and free + _EPS >= self.min_frac * self.ideal:
            return None
        self.declines += 1
        return inf  # a heap release wakes the runner

    def why(self, node: int, now: float) -> Dict[str, object]:
        return {"free": self.memory.free(node), "demand": self.ideal,
                "elastic": self.elastic,
                "floor": (self.min_frac * self.ideal if self.elastic
                          else self.ideal)}

    def grant_for(self, node: int, ideal: Optional[float] = None) -> float:
        """Heap the next launch on ``node`` would be granted."""
        ideal = self.ideal if ideal is None else ideal
        if not self.elastic:
            return ideal
        free = self.memory.free(node)
        if free + _EPS >= ideal:
            return ideal
        return max(self.min_frac * ideal, free)

    def on_launch(self, task: "SimTask", node: int, now: float) -> None:
        ideal = task.heap_bytes if task.heap_bytes else self.ideal
        grant = self.grant_for(node, ideal)
        self.memory.reserve(node, grant)
        frac = min(1.0, grant / ideal)
        task.mem_frac = frac
        if frac < 1.0 - _EPS:
            self.tasks_shrunk += 1
            if frac < self.min_granted_frac:
                self.min_granted_frac = frac
        self._grants.setdefault((task.task_id, node), []).append(
            (grant, frac))

    def on_release(self, task: "SimTask", node: int) -> None:
        grants = self._grants.get((task.task_id, node))
        if not grants:  # pragma: no cover - launch/release are paired
            return
        grant, _frac = grants.pop()
        if not grants:
            del self._grants[(task.task_id, node)]
        self.memory.release(node, grant)

    def frac_of(self, task_id: int, node: int) -> float:
        """Granted heap fraction of the live attempt of ``task_id`` on
        ``node`` (1.0 when untracked — e.g. a recovery re-execution)."""
        grants = self._grants.get((task_id, node))
        if not grants:
            return 1.0
        return grants[-1][1]

    def wake_pending(self) -> bool:
        """Some task holds heap, so its release will wake this stage.
        (With nothing outstanding anywhere the progress guarantee
        admits, so a memory decline is never the last word.)"""
        return self.memory.has_outstanding()

    def diagnostics(self) -> Dict[str, object]:
        mem = self.memory
        return {"memory": {"heap_bytes": mem.heap_bytes,
                           "exec_used": list(mem.exec_used),
                           "exec_count": list(mem.exec_count),
                           "declines": self.declines}}

    # -- cross-runner wakeup ----------------------------------------------------
    def attach(self, sim: "Simulator", wake: Callable[[], None]) -> None:
        """Subscribe to cluster-wide releases, so heap freed by any task,
        another job's included, re-offers this stage."""
        self._wake = wake
        self.memory.add_listener(self._on_release_anywhere)

    def detach(self) -> None:
        self.memory.remove_listener(self._on_release_anywhere)
        self._wake = None

    def _on_release_anywhere(self, node: int) -> None:
        if self._wake is not None:
            self._wake()
