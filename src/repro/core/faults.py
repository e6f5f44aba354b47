"""Deterministic fault injection and node liveness (DESIGN.md §9).

The paper's optimizations (ELB, CAD) are motivated against *symptom-level*
recovery schemes like speculative re-execution, and the related work (M3R,
"Don't cry over spilled records") stresses that memory-resident frameworks
are exactly the ones whose state is fragile: a node crash takes its
RAMDisk-hosted map outputs with it.  This module supplies the fault model
that makes such scenarios runnable:

* a :class:`FaultPlan` — an immutable, seeded schedule of fault events,
  injected via the simulator clock so two runs with the same plan are
  byte-identical;
* :class:`NodeLiveness` — the shared alive/dead view consulted by the
  stage runner's offer loop and by ELB's cluster-average computation;
* :class:`ShuffleAvailability` — per-source gates that block dependent
  fetch tasks until lineage recovery has re-materialised lost shuffle
  output, plus the redirect describing where the recovered bytes live;
* :class:`FaultInjector` — schedules the plan's events on the simulator
  and dispatches them to registered listeners (the engine), applying
  storage degradation directly to the affected device pipes.

* :class:`LineageRecovery` — one job's lineage recovery: which lost
  partitions to recompute (or only re-store) and where, run as a
  ``recovery`` process.  Its rule cuts re-execution at materialised
  data: only the map tasks that produced lost outputs rerun (mode
  ``"full"``), an output whose in-memory copy survives is only
  re-stored (mode ``"store"``), and nothing upstream reruns.

A node crash loses the memory-resident map outputs (and any node-local
shuffle files) of every partition cached there; a shuffle-output loss
loses only the stored copy.  The lineage record — which partition
produced how many intermediate bytes, and which logical shuffle source
it belongs to — drives partial re-execution of exactly the producing
map tasks, while per-source availability gates park dependent fetch
tasks until the output is back.  Invariant: all partitions of a logical
source recover onto ONE host, so a single redirect per source suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple,
                    Union)

import numpy as np

from repro.core.metrics import PhaseMetrics, TaskRecord
from repro.sim.events import AllOf, Event
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import ComputeNode
    from repro.core.engine import SparkSim
    from repro.sim.core import Simulator
    from repro.sim.fluid import FluidPipe

__all__ = ["NodeCrash", "ExecutorLoss", "StorageDegradation",
           "ShuffleOutputLoss", "FaultPlan", "NodeLiveness",
           "ShuffleAvailability", "FaultInjector", "LineageRecovery"]


@dataclass(frozen=True)
class NodeCrash:
    """The node dies at ``at``: in-flight attempts on it are abandoned,
    its memory-resident map outputs and node-local shuffle files are
    lost, and — if ``restart_at`` is given — it rejoins *empty*."""

    at: float
    node: int
    restart_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")
        if self.restart_at is not None and self.restart_at <= self.at:
            raise ValueError(
                f"restart_at {self.restart_at} must follow the crash "
                f"at {self.at}")


@dataclass(frozen=True)
class ExecutorLoss:
    """The executor process on ``node`` dies mid-task: every in-flight
    attempt there is abandoned and re-queued, but the node (and the data
    it hosts) survives — Spark's 'executor lost' without node loss."""

    at: float
    node: int

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")


@dataclass(frozen=True)
class StorageDegradation:
    """One of the node's storage devices slows to ``factor`` of its
    bandwidth from ``at`` (until ``until``, if given) — a failing SSD or
    a RAMDisk squeezed by memory pressure."""

    at: float
    node: int
    volume: str = "ssd"
    factor: float = 0.5
    until: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")
        if not 0 < self.factor <= 1.0:
            raise ValueError(f"factor must be in (0, 1], got {self.factor}")
        if self.until is not None and self.until <= self.at:
            raise ValueError(
                f"until {self.until} must follow onset at {self.at}")


@dataclass(frozen=True)
class ShuffleOutputLoss:
    """The node's *stored* shuffle output is lost (disk corruption,
    evicted RAMDisk) while its memory-resident intermediates survive —
    recovery only re-stores, demonstrating lineage granularity."""

    at: float
    node: int

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")


FaultEvent = Union[NodeCrash, ExecutorLoss, StorageDegradation,
                   ShuffleOutputLoss]

_KIND_ORDER = {NodeCrash: 0, ExecutorLoss: 1, StorageDegradation: 2,
               ShuffleOutputLoss: 3}


def _event_key(ev: FaultEvent) -> Tuple[float, int, int]:
    return (ev.at, _KIND_ORDER[type(ev)], ev.node)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of fault events, sorted by injection time.

    Hashable (so it can live inside the frozen ``EngineOptions``) and
    deterministic: the same plan against the same seed yields the same
    simulation, event for event.
    """

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events",
                           tuple(sorted(self.events, key=_event_key)))

    def __bool__(self) -> bool:
        return bool(self.events)

    @classmethod
    def empty(cls) -> "FaultPlan":
        return cls(())

    @classmethod
    def single_crash(cls, node: int, at: float,
                     restart_at: Optional[float] = None) -> "FaultPlan":
        return cls((NodeCrash(at=at, node=node, restart_at=restart_at),))

    @classmethod
    def random(cls, seed: int, n_nodes: int, horizon: float,
               crash_rate: float = 0.0,
               restart_delay: Optional[float] = None,
               executor_loss_rate: float = 0.0,
               degradation_rate: float = 0.0,
               degradation_factor: float = 0.5) -> "FaultPlan":
        """Poisson fault schedule; rates are per-node-second.

        Seeded through :class:`numpy.random.SeedSequence`, so the plan is
        a pure function of its arguments — independent of everything else
        drawn in the run.
        """
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        gen = np.random.default_rng(np.random.SeedSequence(
            [seed & 0xFFFFFFFF] + list(b"fault-plan")))
        events: List[FaultEvent] = []
        exposure = horizon * n_nodes
        for _ in range(int(gen.poisson(crash_rate * exposure))):
            at = float(gen.uniform(0.0, horizon))
            node = int(gen.integers(n_nodes))
            restart = at + restart_delay if restart_delay is not None \
                else None
            events.append(NodeCrash(at=at, node=node, restart_at=restart))
        for _ in range(int(gen.poisson(executor_loss_rate * exposure))):
            events.append(ExecutorLoss(at=float(gen.uniform(0.0, horizon)),
                                       node=int(gen.integers(n_nodes))))
        for _ in range(int(gen.poisson(degradation_rate * exposure))):
            events.append(StorageDegradation(
                at=float(gen.uniform(0.0, horizon)),
                node=int(gen.integers(n_nodes)),
                factor=degradation_factor))
        return cls(tuple(events))


class NodeLiveness:
    """Shared alive/dead view of the cluster.

    One instance is shared by the injector, the engine, every stage
    runner, and ELB, so a crash is visible everywhere the moment it is
    injected.
    """

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self.mask = np.ones(n_nodes, dtype=bool)
        #: Bumped on every state change; consumers (ELB's cached cluster
        #: average, the scheduler frontier) key caches on it so liveness
        #: flips invalidate exactly once instead of forcing full rescans.
        self.version = 0
        #: Dead-node count, maintained incrementally: hot paths test
        #: ``n_dead == 0`` to skip per-node mask reads entirely.
        self.n_dead = 0

    def alive(self, node: int) -> bool:
        return bool(self.mask[node])

    def any_alive(self) -> bool:
        return self.n_dead < self.n_nodes

    def live_nodes(self) -> List[int]:
        return [n for n in range(self.n_nodes) if self.mask[n]]

    def dead_nodes(self) -> List[int]:
        return [n for n in range(self.n_nodes) if not self.mask[n]]

    def mark_dead(self, node: int) -> None:
        if self.mask[node]:
            self.mask[node] = False
            self.n_dead += 1
            self.version += 1

    def mark_alive(self, node: int) -> None:
        if not self.mask[node]:
            self.mask[node] = True
            self.n_dead -= 1
            self.version += 1


class ShuffleAvailability:
    """Per-source gates and redirects for shuffle output.

    A fetch task reading logical source ``s`` first waits on ``s``'s gate
    (closed while ``s``'s output is being re-materialised), then asks
    :meth:`physical` where the bytes actually live — the crashed node's
    output is recovered onto a healthy host and all of a logical source's
    partitions recover to *one* host, so a single redirect suffices.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._redirect: Dict[int, int] = {}
        self._gate: Dict[int, Event] = {}

    def physical(self, src: int) -> int:
        """Node currently holding logical source ``src``'s output."""
        return self._redirect.get(src, src)

    def available(self, src: int) -> Optional[Event]:
        """The gate to wait on, or ``None`` when ``src`` is readable."""
        gate = self._gate.get(src)
        if gate is None or gate.triggered:
            return None
        return gate

    def is_closed(self, src: int) -> bool:
        return self.available(src) is not None

    def close(self, src: int) -> None:
        """Block fetches of ``src`` until :meth:`open` re-admits them.
        The stale redirect is kept so crash handling can still see where
        the source's bytes were hosted."""
        gate = self._gate.get(src)
        if gate is None or gate.triggered:
            self._gate[src] = Event(self.sim, name=f"shuffle-avail:{src}")

    def open(self, src: int, physical: int) -> None:
        """Re-admit fetches of ``src``, now served from ``physical``."""
        if physical != src:
            self._redirect[src] = physical
        else:
            self._redirect.pop(src, None)
        gate = self._gate.pop(src, None)
        if gate is not None and not gate.triggered:
            gate.succeed()


class FaultInjector:
    """Schedules a :class:`FaultPlan` on the simulator clock.

    Listeners (the engine) register dictionaries of duck-typed handlers:
    ``on_node_crash(node)``, ``on_node_restart(node)``,
    ``on_executor_loss(node)``, ``on_shuffle_output_loss(node)``,
    ``on_storage_degradation(event)``.  Liveness is updated *before*
    listeners run, so any scheduling triggered by a handler already sees
    the node as dead.  Storage degradation is applied here directly, by
    scaling the device's fluid pipes.
    """

    def __init__(self, sim: "Simulator", plan: FaultPlan,
                 n_nodes: int,
                 nodes: Optional[List["ComputeNode"]] = None) -> None:
        for ev in plan.events:
            if not 0 <= ev.node < n_nodes:
                raise ValueError(
                    f"fault event {ev} targets node {ev.node} outside "
                    f"cluster of {n_nodes} nodes")
        self.sim = sim
        self.plan = plan
        self.nodes = nodes
        self.liveness = NodeLiveness(n_nodes)
        self._listeners: List[object] = []
        #: (pipe, token) -> saved state for reverting degradations.
        self._degraded: Dict[int, List[Tuple["FluidPipe", str, object]]] = {}
        self._degrade_token = 0
        for ev in plan.events:
            sim.schedule_callback(max(0.0, ev.at - sim.now), self._fire, ev)

    def add_listener(self, listener: object) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: object) -> None:
        """Detach a listener (no-op if absent).  On a shared injector —
        one fault schedule over many concurrent jobs — each engine must
        deregister when its job completes, or dead engines would keep
        receiving (and double-counting) fault notifications."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _notify(self, method: str, *args) -> None:
        for listener in list(self._listeners):
            fn = getattr(listener, method, None)
            if fn is not None:
                fn(*args)

    # -- dispatch ---------------------------------------------------------
    def _fire(self, ev: FaultEvent) -> None:
        if isinstance(ev, NodeCrash):
            if not self.liveness.alive(ev.node):
                return  # already dead; a second crash is a no-op
            if self.sim._tracing:
                self.sim.trace("fault-crash", node=ev.node)
            self.liveness.mark_dead(ev.node)
            self._notify("on_node_crash", ev.node)
            if ev.restart_at is not None:
                self.sim.schedule_callback(
                    max(0.0, ev.restart_at - self.sim.now),
                    self._restart, ev.node)
        elif isinstance(ev, ExecutorLoss):
            if not self.liveness.alive(ev.node):
                return
            if self.sim._tracing:
                self.sim.trace("fault-executor-loss", node=ev.node)
            self._notify("on_executor_loss", ev.node)
        elif isinstance(ev, StorageDegradation):
            self._apply_degradation(ev)
        elif isinstance(ev, ShuffleOutputLoss):
            if not self.liveness.alive(ev.node):
                return  # the crash already lost everything stored there
            if self.sim._tracing:
                self.sim.trace("fault-shuffle-loss", node=ev.node)
            self._notify("on_shuffle_output_loss", ev.node)

    def _restart(self, node: int) -> None:
        if self.liveness.alive(node):
            return
        if self.sim._tracing:
            self.sim.trace("fault-restart", node=node)
        self.liveness.mark_alive(node)
        self._notify("on_node_restart", node)

    # -- storage degradation ----------------------------------------------
    def _apply_degradation(self, ev: StorageDegradation) -> None:
        if self.nodes is None:
            return
        if self.sim._tracing:
            self.sim.trace("fault-degrade", node=ev.node, volume=ev.volume,
                           factor=ev.factor)
        device = self.nodes[ev.node].volume(ev.volume).device
        saved: List[Tuple["FluidPipe", str, object]] = []
        for pipe in (device.read_pipe, device.write_pipe):
            saved.append(self._scale_pipe(pipe, ev.factor))
        self._degrade_token += 1
        token = self._degrade_token
        self._degraded[token] = saved
        self._notify("on_storage_degradation", ev)
        if ev.until is not None:
            self.sim.schedule_callback(max(0.0, ev.until - self.sim.now),
                                       self._revert_degradation, token)

    @staticmethod
    def _scale_pipe(pipe: "FluidPipe",
                    factor: float) -> Tuple["FluidPipe", str, object]:
        if pipe.capacity_fn is not None:
            inner = pipe.capacity_fn
            pipe.capacity_fn = lambda n, _f=inner: _f(n) * factor
            pipe.poke()
            return (pipe, "fn", inner)
        old = pipe._capacity
        pipe.set_capacity(old * factor)
        return (pipe, "cap", old)

    def _revert_degradation(self, token: int) -> None:
        for pipe, kind, saved in self._degraded.pop(token, []):
            if kind == "fn":
                pipe.capacity_fn = saved
                pipe.poke()
            else:
                pipe.set_capacity(saved)

    def restore_all(self) -> None:
        """Revert every still-open storage degradation.

        End-of-job teardown on a warm cluster: an open-ended degradation
        (``until=None``) belongs to the run that injected it and must not
        leak slowed-down device pipes into the next job.
        """
        for token in list(self._degraded):
            self._revert_degradation(token)


class LineageRecovery:
    """One job's recovery state: the lineage map, what is pending per
    logical source, the recovery process, and the records of the
    synthetic recovery phase.

    Exists only when fault machinery is on.  The engine reports
    :meth:`produced` outputs and sets :attr:`storing`, and drives
    :meth:`lose`, :meth:`ensure`, :meth:`restarted`, :meth:`barrier` and
    :meth:`phase`; recovery re-runs work through the engine's
    ``_compute_body`` and ``_write_shuffle``."""

    def __init__(self, engine: "SparkSim") -> None:
        self.engine = engine
        self.sim = engine.sim
        self.metrics = engine.recovery
        #: Per-source fetch gates and redirects (read by the fetch plan).
        self.availability = ShuffleAvailability(engine.sim)
        #: logical source -> partitions awaiting lineage recovery.
        self.pending: Dict[int, Set[int]] = {}
        #: logical source -> "full" (recompute + re-store) | "store".
        self.mode: Dict[int, str] = {}
        #: partition -> logical shuffle source it belongs to.
        self.logical_of: Dict[int, int] = {}
        #: Set when the first store stage starts: from then on a lost
        #: output is addressed data that must be re-stored and gated.
        self.storing = False
        self.records: List[TaskRecord] = []
        self._proc = None
        self._idle: Optional[Event] = None
        self._awaiting_restart: Optional[Event] = None
        self._started_at = 0.0

    # -- engine-facing --------------------------------------------------------
    def produced(self, i: int, node: int) -> None:
        """Partition ``i``'s map output was first computed on ``node``."""
        self.logical_of[i] = node

    def lose(self, node: int, parts, mode: str) -> None:
        """Mark partitions ``parts`` (computed on ``node``) pending under
        ``mode`` — a "full" loss upgrades a source, a "store" loss never
        downgrades one — and, once storing has started, gate their
        sources' fetches until recovery re-opens them."""
        closed = set()
        for i in parts:
            s = self.logical_of.get(i, node)
            self.pending.setdefault(s, set()).add(i)
            if mode == "full" or self.mode.get(s) != "full":
                self.mode[s] = mode
            if self.storing and s not in closed:
                self.availability.close(s)
                closed.add(s)

    def ensure(self) -> None:
        """Start the recovery process if work is pending and none runs."""
        if not self.pending:
            return
        if self._proc is not None and self._proc.is_alive:
            return
        if self._idle is None or self._idle.triggered:
            self._idle = Event(self.sim, name="recovery-idle")
        self._started_at = self.sim.now
        self._proc = self.sim.process(self._loop(), name="recovery")

    def restarted(self) -> None:
        """A node rejoined: wake a loop that found every node dead."""
        waiter, self._awaiting_restart = self._awaiting_restart, None
        if waiter is not None and not waiter.triggered:
            waiter.succeed()

    def barrier(self):
        """Wait out any in-flight recovery (no-op when idle)."""
        while True:
            idle = self._idle
            if idle is None or idle.triggered:
                return
            yield idle

    def phase(self) -> Optional[PhaseMetrics]:
        """The synthetic ``recovery`` phase over every recovered
        partition, or ``None`` when nothing was recovered."""
        recs = self.records
        if not recs:
            return None
        return PhaseMetrics("recovery", min(t.queued_at for t in recs),
                            max(t.finished_at for t in recs), list(recs))

    # -- the recovery process -------------------------------------------------
    def _pick_host(self, prefer: Optional[int] = None) -> Optional[int]:
        eng = self.engine
        live = eng._liveness.live_nodes()
        if not live:
            return None
        if prefer is not None and eng._liveness.alive(prefer):
            return prefer
        return min(live, key=lambda n: (float(eng.node_intermediate[n]
                                              + eng.node_store_bytes[n]), n))

    def _loop(self):
        """Recover lost sources one at a time, all partitions of a source
        onto one host, bounded by that host's core count."""
        eng = self.engine
        while self.pending:
            source = min(self.pending)
            parts = sorted(self.pending[source])
            mode = self.mode.get(source, "full")
            prefer = None
            if mode == "store":
                # Store-only recovery must run where the surviving map
                # outputs live; if that node has since died, a crash
                # handler upgraded the mode — but guard anyway.
                prefer = eng._cache_locations.get(parts[0])
                if prefer is None or not eng._liveness.alive(prefer):
                    mode = self.mode[source] = "full"
                    prefer = None
            host = self._pick_host(prefer=prefer)
            if host is None:
                # Every node is dead: only a restart can unblock us (a
                # plan with no restart surfaces as SimulationDeadlock
                # with this process in the forensics).
                self._awaiting_restart = Event(self.sim,
                                               name="awaiting-restart")
                yield self._awaiting_restart
                continue
            sem = Resource(self.sim, capacity=eng.cluster.spec.node.cores,
                           name="recovery-slots")
            procs = [self.sim.process(
                        self._recover_partition(source, i, mode, host, sem),
                        name=f"recover:{source}/{i}")
                     for i in parts]
            yield AllOf(self.sim, procs)
            if not self.pending.get(source):
                # The whole source is re-materialised (a mid-recovery
                # crash of the host leaves partitions pending and loops).
                self.pending.pop(source, None)
                self.mode.pop(source, None)
                if self.storing:
                    eng.source_store_bytes[source] = sum(
                        eng._partition_intermediate.get(i, 0.0)
                        for i, s in self.logical_of.items() if s == source)
                    self.availability.open(source, host)
        self.metrics.recovery_time += self.sim.now - self._started_at
        idle, self._idle = self._idle, None
        self._proc = None
        if idle is not None and not idle.triggered:
            idle.succeed()

    def _recover_partition(self, source: int, i: int, mode: str, host: int,
                           sem: Resource):
        """Re-execute (and, post-store, re-store) one lost partition.

        Commits nothing if ``host`` dies underneath us: the partition
        stays pending and the loop re-picks a host."""
        eng = self.engine
        spec = eng.spec
        rec = self.metrics
        queued = self.sim.now
        with sem.request() as req:
            yield req
            size = eng._split_size(i)
            inter = eng._partition_intermediate.get(
                i, size * spec.intermediate_ratio)
            if mode == "full":
                body = eng._compute_body(i, size, self._noise(i), iteration=0)
                yield from body(host)
                if not eng._liveness.alive(host):
                    return
                eng._cache_locations[i] = host
                self.logical_of[i] = source if self.storing else host
                eng.node_intermediate[host] += inter
                eng.node_task_counts[host] += 1
                rec.tasks_recomputed += 1
                rec.bytes_recomputed += inter
            if self.storing and spec.shuffle_store is not None \
                    and inter > 0:
                # Round-aware: under per-iteration shuffling the re-store
                # must land in the active round's bundle, or pinned
                # reducers would fetch from a file that never existed.
                yield eng._write_shuffle(host, inter, eng._current_round)
                if not eng._liveness.alive(host):
                    return
                eng.node_store_bytes[host] += inter
                rec.bytes_restored += inter
            self.pending[source].discard(i)
            self.records.append(TaskRecord(
                task_id=i, phase="recovery", node=host, queued_at=queued,
                started_at=queued, finished_at=self.sim.now, bytes=inter))

    def _noise(self, i: int) -> float:
        sigma = self.engine.spec.compute_noise_sigma
        if sigma <= 0:
            return 1.0
        gen = np.random.default_rng(np.random.SeedSequence(
            [self.engine.options.seed & 0xFFFFFFFF, i]
            + list(b"recovery-noise")))
        return float(gen.lognormal(mean=0.0, sigma=sigma))
