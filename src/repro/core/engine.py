"""The simulated Spark engine: runs a JobSpec on a Cluster.

Execution follows the paper's pipeline (Fig 3/4): per iteration a
computation stage, then — if the job shuffles — a storing stage of
ShuffleMapTasks pinned where the map outputs live, then a fetching stage
of reducers pulling their partitions.  Stages are serialized, as Spark
serializes stages within the DAG.

Every stage runs through one builder (:meth:`SparkSim._stage`) and every
phase through one recorder (:meth:`SparkSim._phase`); lineage recovery
after faults is :class:`~repro.core.faults.LineageRecovery`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro.config import SparkConf
from repro.cluster.cluster import Cluster
from repro.cluster.spec import ClusterSpec
from repro.cluster.variability import SpeedModel
from repro.core.cad import CongestionAwareDispatcher
from repro.core.combine import reduction_factors, reducer_key_shares
from repro.core.elb import EnhancedLoadBalancer
from repro.core.faults import FaultInjector, FaultPlan, LineageRecovery
from repro.core.jobspec import JobSpec
from repro.core.memory import (ClusterMemory, MemoryConfig, MemoryGate,
                               SpillCurve)
from repro.core.metrics import (FailureRecord, JobResult, MemoryMetrics,
                                PhaseMetrics, RecoveryMetrics,
                                ShuffleMetrics, TaskRecord)
from repro.core.policies import (DelayScheduling, LocalityFirstPolicy,
                                 SchedulingPolicy)
from repro.core.scheduler import StageRunner
from repro.core.shuffle import FetchPlan, fetch_body
from repro.core.speculation import SpeculativeExecution, TaskAttemptFailure
from repro.core.task import SimTask
from repro.core.volumes import NodeVolumes
from repro.obs import capture as obs_capture
from repro.obs import wiring as obs_wiring
from repro.obs.registry import NULL_REGISTRY
from repro.obs.spans import phase_key
from repro.obs.telemetry import Telemetry
from repro.sim.events import AllOf, Event

__all__ = ["EngineOptions", "SparkSim", "run_job"]


@dataclass(frozen=True)
class EngineOptions:
    """Scheduler and optimization switches for one run."""

    conf: SparkConf = field(default_factory=SparkConf)
    #: Use delay scheduling for the computation stage (Spark's default on
    #: HDFS); False = launch immediately with locality preference.
    delay_scheduling: bool = False
    #: Enable the Enhanced Load Balancer (§VI-A).
    elb: bool = False
    elb_threshold: float = 0.25
    #: Enable Congestion-Aware Dispatching for the storing stage (§VI-B).
    cad: bool = False
    #: LATE-style speculative execution (related-work baseline, §VIII).
    speculation: bool = False
    #: Probability that any task attempt fails (executor lost, I/O
    #: error); failed attempts are re-queued Spark-style.
    task_failure_rate: float = 0.0
    seed: int = 0
    #: Deterministic schedule of node crashes / executor losses / storage
    #: degradations (DESIGN.md §9); ``None`` disables fault machinery.
    fault_plan: Optional[FaultPlan] = None
    #: Memory-elasticity configuration (DESIGN.md §13); ``None`` leaves
    #: memory unmanaged — no gates, no spill, and (being the default)
    #: every historical fingerprint byte-identical.
    memory: Optional[MemoryConfig] = None

    def with_(self, **kw) -> "EngineOptions":
        return replace(self, **kw)


class SparkSim:
    """Drives one job through the simulated stack."""

    def __init__(self, cluster: Cluster, spec: JobSpec,
                 options: Optional[EngineOptions] = None,
                 telemetry: Optional[Telemetry] = None,
                 job_tag: str = "",
                 lease: Optional[object] = None,
                 injector: Optional[FaultInjector] = None,
                 memory: Optional[ClusterMemory] = None) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.spec = spec
        self.options = options if options is not None else EngineOptions()
        self.conf = self.options.conf
        self.rng = cluster.rng
        #: Namespace for this job's file ids on a shared cluster.  Empty
        #: (the single-job default) keeps every historical file id — and
        #: therefore every existing fingerprint — byte-identical.  NOT
        #: part of EngineOptions: identity of *what* runs must not depend
        #: on how the serve layer labels it.
        self.job_tag = job_tag
        #: Slot lease from the inter-job scheduler (serve layer); ``None``
        #: means this job owns every core of the cluster.
        self.lease = lease
        #: Job start time on the (possibly warm) simulator clock.
        self._t0 = self.sim.now
        self._done: Optional[Event] = None
        # -- per-job artifacts for warm-cluster teardown (cleanup()) --
        #: (node, store, file_id) -> bytes allocated on that local volume.
        self._vol_files: Dict[tuple, float] = {}
        #: Lustre file ids written by this job (dict used as ordered set).
        self._lustre_files: Dict[object, None] = {}
        self._input_file = None
        # Telemetry is deliberately NOT part of EngineOptions: options are
        # frozen, hashed into experiment-cache fingerprints, and pickled
        # across workers — observation must never change run identity.
        # With no explicit Telemetry, an ambient capture session (the
        # experiments CLI's hook) may supply one.
        self._capture = None
        if telemetry is None:
            session = obs_capture.active()
            if session is not None:
                telemetry = session.new_telemetry()
                self._capture = session
        self.telemetry = telemetry
        self.metrics = telemetry.registry if telemetry is not None \
            else NULL_REGISTRY
        n = cluster.n_nodes
        #: Live per-node intermediate bytes (updated as map tasks
        #: finish); versioned so ELB's cluster-average cache knows when
        #: to recompute (DESIGN.md §12).
        self.node_intermediate = NodeVolumes(n)
        self.node_task_counts = np.zeros(n, dtype=int)
        #: Per-node bytes actually materialised by the storing stage.
        self.node_store_bytes = np.zeros(n)
        self._blocks = None  # HDFS blocks when input_source == 'hdfs'
        #: Where each partition was computed (and, for cached RDDs, where
        #: it is memory-resident): partition index -> node id.
        self._cache_locations: Dict[int, int] = {}
        self._phases: Dict[str, PhaseMetrics] = {}
        #: Stored shuffle bytes by *logical* source (== the physical array
        #: until a crash re-homes a source's recovered output elsewhere).
        self.source_store_bytes = np.zeros(n)
        # -- fault machinery (inert unless a fault plan or injector) --
        self._failure_log: List[FailureRecord] = []
        self.recovery: Optional[RecoveryMetrics] = None
        self._injector: Optional[FaultInjector] = None
        self._liveness = None
        self._lineage: Optional[LineageRecovery] = None
        self._active_runner: Optional[StageRunner] = None
        #: Intermediate bytes produced by each partition (lineage record).
        self._partition_intermediate: Dict[int, float] = {}
        self._owns_injector = False
        # -- shuffle-volume mechanisms (DESIGN.md §14) --
        #: Raw / post-combine intermediate totals (equal without the
        #: combiner); filled once the map outputs are final.
        self._pre_combine_bytes = 0.0
        self._post_combine_bytes = 0.0
        #: (stored, fetched) bytes per shuffle round; one entry for the
        #: classic single shuffle, one per iteration under M3R mode.
        self._shuffle_rounds: List[tuple] = []
        #: reducer id -> node pinned by the partition-stable mapping
        #: (recorded from the first round's placements).
        self._reducer_homes: Dict[int, int] = {}
        #: Active shuffle round for file ids; ``None`` = classic ids.
        self._current_round: Optional[int] = None
        # -- memory elasticity (inert unless options.memory is set) --
        if memory is not None and self.options.memory is None:
            raise ValueError(
                "SparkSim: memory= (a shared ClusterMemory) requires "
                "options.memory to be set — a managed heap with no "
                "MemoryConfig has no spill curve or admission mode")
        self._mem_cfg: Optional[MemoryConfig] = self.options.memory
        self._memory: Optional[ClusterMemory] = None
        self._ideal_heap = 0.0
        self._gates: List[MemoryGate] = []
        #: partition -> (node, bytes) reserved in the cache region.
        self._cache_mem: Dict[int, tuple] = {}
        self._spill_written = 0.0
        self._spill_read = 0.0
        self._spill_events = 0
        if self._mem_cfg is not None:
            node_spec = cluster.spec.node
            self._memory = memory if memory is not None else ClusterMemory(
                n, self._mem_cfg.mem_frac * node_spec.spark_mem_bytes)
            self._ideal_heap = spec.task_heap_bytes if \
                spec.task_heap_bytes is not None else \
                node_spec.spark_mem_bytes / node_spec.cores
        if injector is None and self.options.fault_plan:
            injector = FaultInjector(self.sim, self.options.fault_plan, n,
                                     nodes=cluster.nodes)
            self._owns_injector = True
        if injector is not None:
            # A shared injector is one cluster-level fault schedule
            # hitting every concurrent job (the serve layer): its
            # liveness is shared, availability gates stay per-job.
            self.recovery = RecoveryMetrics()
            self._injector = injector
            self._liveness = injector.liveness
            self._lineage = LineageRecovery(self)
            injector.add_listener(self)
        self._prepare_input()
        if self.telemetry is not None:
            self.telemetry.meta.setdefault("workload", spec.name)
            self.telemetry.meta.setdefault("nodes", cluster.n_nodes)
            self.telemetry.meta.setdefault("seed", self.options.seed)
            self.telemetry.meta.setdefault("shuffle_store",
                                           spec.shuffle_store)
            obs_wiring.register_engine(self.metrics, self)
            obs_wiring.register_cluster(self.metrics, cluster)
            if self._memory is not None:
                obs_wiring.register_memory(self.metrics, self._memory)
            self.telemetry.bind(self.sim)

    # -- setup -------------------------------------------------------------------
    def _prepare_input(self) -> None:
        spec = self.spec
        if spec.input_source == "hdfs":
            file_id = ("input", spec.name,
                       self.job_tag if self.job_tag else id(self))
            self._blocks = self.cluster.hdfs.ingest(
                file_id, spec.input_bytes,
                rng=self.rng(f"hdfs-placement:{self.options.seed}"),
                placement=spec.hdfs_placement,
                block_size=spec.split_bytes)
            self._input_file = file_id

    # -- file-id namespace -------------------------------------------------------
    def _shuffle_id(self, node: int, iteration: Optional[int] = None):
        """Id of ``node``'s shuffle bundle, namespaced by job tag and —
        under per-iteration shuffling — by round, so a pinned reducer
        never reads a stale round's bundle and concurrent tagged jobs
        stay collision-free (``iteration=None`` keeps the historical
        ids byte-for-byte)."""
        parts = ["shuffle"]
        if self.job_tag:
            parts.append(self.job_tag)
        if iteration is not None:
            parts.append(iteration)
        parts.append(node)
        return tuple(parts)

    def _shuffle_part_id(self, node: int, r: int,
                         iteration: Optional[int] = None):
        return self._shuffle_id(node, iteration) + (r,)

    def _policy(self) -> SchedulingPolicy:
        base: SchedulingPolicy
        if self.options.delay_scheduling:
            base = DelayScheduling(wait=self.conf.locality_wait)
        else:
            base = LocalityFirstPolicy()
        if self.options.elb:
            base = EnhancedLoadBalancer(base, self.node_intermediate,
                                        threshold=self.options.elb_threshold,
                                        liveness=self._liveness,
                                        metrics=self.metrics)
            if self.metrics.enabled:
                obs_wiring.register_elb(self.metrics, base)
        return base

    def _speculation(self) -> Optional[SpeculativeExecution]:
        return SpeculativeExecution() if self.options.speculation else None

    # -- main entry ----------------------------------------------------------------
    def run(self) -> JobResult:
        """Execute the job to completion and collect metrics.

        Drives the simulator itself — the single-job entry point.  The
        serve layer instead calls :meth:`start` (many concurrent jobs on
        one simulator), :meth:`collect` when the job's process completes,
        and :meth:`cleanup` to release the job's artifacts from the warm
        cluster.
        """
        done = self.start()
        self.sim.run(until=done)
        return self.collect()

    def start(self) -> Event:
        """Spawn the job process on the shared simulator; returns its
        completion event.  Does not drive the simulator."""
        if self._done is not None:
            raise RuntimeError("job already started")
        self._done = self.sim.process(
            self._job(), name=f"job:{self.job_tag or self.spec.name}")
        return self._done

    def collect(self) -> JobResult:
        """Assemble the :class:`JobResult` (call once the job's process
        has completed).  ``job_time`` is measured from the engine's
        construction on the simulator clock, so a job admitted at t=500
        on a warm cluster reports its own duration, not the cluster's
        age; at t=0 this is byte-identical to the historical value."""
        job_time = self.sim.now - self._t0
        recovered = self._lineage.phase() if self._lineage else None
        if recovered is not None:
            self._phases["recovery"] = recovered
        memory = None
        if self._memory is not None:
            memory = MemoryMetrics(
                heap_bytes=self._memory.heap_bytes,
                ideal_task_heap=self._ideal_heap,
                elastic=self._mem_cfg.elastic,
                tasks_shrunk=sum(g.tasks_shrunk for g in self._gates),
                grants_declined=sum(g.declines for g in self._gates),
                min_granted_frac=min(
                    (g.min_granted_frac for g in self._gates), default=1.0),
                spill_events=self._spill_events,
                spill_bytes_written=self._spill_written,
                spill_bytes_read=self._spill_read)
        shuffle = None
        if self._shuffle_rounds:
            stored = [s for s, _ in self._shuffle_rounds]
            fetched = [f for _, f in self._shuffle_rounds]
            shuffle = ShuffleMetrics(
                combiner=self.spec.combiner,
                partition_stable=self.spec.partition_stable,
                pre_combine_bytes=self._pre_combine_bytes,
                post_combine_bytes=self._post_combine_bytes,
                fetched_bytes=float(sum(fetched)),
                per_iteration_stored=stored,
                per_iteration_fetched=fetched)
        result = JobResult(job_name=self.spec.name, job_time=job_time,
                           phases=self._phases,
                           node_intermediate=np.array(self.node_intermediate),
                           node_task_counts=self.node_task_counts.copy(),
                           seed=self.options.seed,
                           failures=list(self._failure_log),
                           recovery=self.recovery,
                           memory=memory,
                           shuffle=shuffle)
        if self.telemetry is not None:
            self.telemetry.finish(result)
            if self._capture is not None:
                self._capture.finish_run(self.telemetry, result)
        return result

    def cleanup(self) -> None:
        """Release this job's artifacts from a warm (shared) cluster.

        Deletes the job's shuffle files from node-local volumes (space,
        TRIM, page-cache residency) and from Lustre (locks, sizes, client
        caches), drops the HDFS input from the NameNode, reverts any
        still-open storage degradations this job's own fault plan
        injected, and detaches from a shared injector.  Without this,
        back-to-back jobs leak: devices fill up (``DeviceFullError``),
        SSD GC pressure compounds, recycled file ids collide with stale
        page-cache entries (phantom hits), and metadata tables grow per
        job forever.

        Deliberately NOT called by :meth:`run`: warm-cluster wear across
        jobs is modelled physics (see the end-to-end warm-cluster test);
        cleanup models *deleting the finished job's files*, which the
        serve layer does after every job.  Pure bookkeeping — no
        simulated time passes.
        """
        for (node, store, fid), nbytes in self._vol_files.items():
            self.cluster.nodes[node].volume(store).delete(nbytes, fid)
        self._vol_files.clear()
        if self._memory is not None:
            # Drop the finished job's cached partitions from the shared
            # pool's storage region (the executor released them).
            for node, nbytes in self._cache_mem.values():
                self._memory.release_cache(node, nbytes)
            self._cache_mem.clear()
        for fid in self._lustre_files:
            self.cluster.lustre.unlink(fid)
        self._lustre_files.clear()
        if self._input_file is not None:
            self.cluster.hdfs.delete(self._input_file)
            self._input_file = None
        if self._injector is not None:
            if self._owns_injector:
                self._injector.restore_all()
            self._injector.remove_listener(self)

    # -- the phase pipeline ---------------------------------------------------
    def _shuffling(self) -> bool:
        return (self.spec.shuffle_store is not None
                and self.spec.intermediate_bytes > 0)

    def _per_iteration_shuffle(self) -> bool:
        """Iterative shuffle-bearing jobs shuffle every iteration (the
        M3R scenario); classic jobs shuffle once after the compute loop.
        No historical spec combines ``iterations > 1`` with a shuffle,
        so the classic path is untouched byte-for-byte."""
        return self._shuffling() and self.spec.iterations > 1

    def _phase(self, name: str, round_: Optional[int], work):
        """Run ``work`` (a generator returning its task records) as one
        recorded phase: ``phase-start``, the work, :class:`PhaseMetrics`
        under ``phase_key(name, round_)``, ``phase-end``.

        The only engine code that writes either; under the serve layer
        the ``job_tag`` rides along so interleaved phases of concurrent
        warm-cluster jobs stay attributable."""
        data = {"phase": name}
        if round_ is not None:
            data["round"] = round_
        if self.job_tag:
            data["job"] = self.job_tag
        start = self.sim.now
        if self.sim._tracing:
            self.sim.trace("phase-start", **data)
        records = yield from work
        key = phase_key(name, round_)
        self._phases[key] = PhaseMetrics(key, start, self.sim.now, records)
        if self.sim._tracing:
            self.sim.trace("phase-end", **data)

    def _barrier(self):
        """Wait out in-flight lineage recovery (nothing without faults):
        map outputs lost to crashes must be re-materialised before a
        store stage snapshots per-node intermediates, and shuffle files
        before reducers build their fetch plans."""
        if self._lineage is not None:
            yield from self._lineage.barrier()

    def _job(self):
        per_iter = self._per_iteration_shuffle()
        yield from self._phase("compute", None, self._compute_rounds(per_iter))
        if per_iter:
            return
        yield from self._barrier()
        if self._shuffling():
            yield from self._maybe_combine()
            yield from self._shuffle_round(None)

    def _compute_rounds(self, per_iter: bool):
        """Every compute stage; under per-iteration shuffling each one's
        store/fetch round runs nested inside the compute phase."""
        records: List[TaskRecord] = []
        for iteration in range(self.spec.iterations):
            records.extend((yield from self._compute_stage(iteration)))
            if per_iter:
                yield from self._barrier()
                if iteration == 0:
                    yield from self._maybe_combine()
                yield from self._shuffle_round(iteration)
        return records

    def _shuffle_round(self, iteration: Optional[int]):
        """One store + fetch round: the classic single shuffle
        (``iteration=None``) or one round of a per-iteration shuffle."""
        spec = self.spec
        self._current_round = iteration
        # Iteration 0 moves the full intermediate volume; with the
        # partition map pinned, later iterations ship only the delta.
        scale = spec.delta_ratio if iteration and spec.partition_stable \
            else 1.0
        self.node_store_bytes[:] = 0.0
        self.source_store_bytes[:] = 0.0
        yield from self._phase("store", iteration,
                               self._store_stage(iteration, scale))
        yield from self._barrier()
        if spec.fetch_mode == "lustre-shared":
            self._split_lustre_shuffle_files(iteration=iteration)
        yield from self._phase("fetch", iteration,
                               self._fetch_stage(iteration))
        stored = float(self.node_store_bytes.sum())
        self._shuffle_rounds.append((stored, stored))
        self._current_round = None

    # -- the stage builder ----------------------------------------------------
    def _stage(self, phase: str, stream: str, items, policy,
               spill: bool = False,
               cad: Optional[CongestionAwareDispatcher] = None,
               **runner_kw):
        """Build, run and finish one stage; returns its task records.

        ``items`` holds one ``(task_id, body, nbytes, preferred, pinned)``
        per task.  The stage's memory gate is created before any body is
        wrapped (spill wrappers close over it) and checked after ``cad``;
        ``runner_kw`` carries the stage's own runner arguments
        (speculation, ``on_complete``), the job-wide ones are added
        here."""
        gate = self._memory_gate()
        tasks = [self._task(phase, stream, gate, spill, *item)
                 for item in items]
        lease = self.lease
        runner = StageRunner(
            self.sim, self.cluster.n_nodes, self.cluster.spec.node.cores,
            tasks, policy=policy, task_overhead=self.conf.task_overhead,
            liveness=self._liveness, failure_log=self._failure_log,
            metrics=self.metrics,
            gates=tuple(g for g in (cad, gate) if g is not None),
            slots=lease.slots if lease is not None else None,
            slot_listener=lease.slot_freed if lease is not None else None,
            **runner_kw)
        self._active_runner = runner
        if lease is not None:
            lease.attach(runner)
        records = yield runner.run()
        self._active_runner = None
        if lease is not None:
            lease.detach(runner)
        if self.recovery is not None:
            self.recovery.crash_requeues += runner.crash_requeues
            self.recovery.tasks_lost += len(runner.tasks_lost)
        return records

    def _memory_gate(self) -> Optional[MemoryGate]:
        """A fresh per-stage MemoryGate (``None`` when memory is
        unmanaged)."""
        if self._memory is None:
            return None
        cfg = self._mem_cfg
        gate = MemoryGate(self._memory, self._ideal_heap,
                          elastic=cfg.elastic,
                          min_task_frac=cfg.min_task_frac)
        self._gates.append(gate)
        return gate

    def _task(self, phase: str, stream: str, gate: Optional[MemoryGate],
              spill: bool, task_id: int, body, nbytes: float,
              preferred: tuple, pinned: Optional[int]) -> SimTask:
        """One task: ``body`` wrapped with spill I/O over a working set of
        ``nbytes`` (when ``spill``) inside failure injection."""
        if spill:
            body = self._with_spill(body, phase, task_id, nbytes, gate)
        return SimTask(task_id=task_id, phase=phase,
                       body=self._with_failures(body, stream, task_id),
                       preferred=preferred, pinned=pinned, nbytes=nbytes)

    def _map_outputs(self, scale: float = 1.0) -> List[tuple]:
        """One ``(node, bytes)`` per map output, in node order: the tasks
        of the stages pinned where the outputs live."""
        outputs = []
        for node in range(self.cluster.n_nodes):
            count = int(self.node_task_counts[node])
            if count == 0:
                continue
            per = self.node_intermediate[node] / count * scale
            outputs.extend((node, per) for _ in range(count))
        return outputs

    # -- computation stage -----------------------------------------------------
    def _compute_stage(self, iteration: int):
        spec = self.spec
        noise = self._noise_factors(f"compute-noise-{iteration}",
                                    spec.n_map_tasks,
                                    spec.compute_noise_sigma)
        cached = iteration > 0 and spec.cache_input
        items = []
        for i in range(spec.n_map_tasks):
            size = self._split_size(i)
            preferred = ()
            if cached:
                # The partition is memory-resident where it was computed
                # (PROCESS_LOCAL in Spark terms): later iterations of an
                # iterative job are immune to input-locality pressure.
                loc = self._cache_locations.get(i)
                preferred = (loc,) if loc is not None else ()
            elif spec.input_source == "hdfs":
                preferred = tuple(self._blocks[i].locations)
            body = self._compute_body(i, size, noise[i], iteration)
            items.append((i, body, size, preferred, None))

        first_iteration = iteration == 0

        def on_complete(task: SimTask, node: int, rec: TaskRecord) -> None:
            if first_iteration:
                inter = task.bytes * spec.intermediate_ratio
                self.node_intermediate[node] += inter
                self.node_task_counts[node] += 1
                self._cache_locations[task.task_id] = node
                self._partition_intermediate[task.task_id] = inter
                if self._lineage is not None:
                    self._lineage.produced(task.task_id, node)
                if self._memory is not None and spec.cache_input:
                    # The cached RDD partition occupies the node's storage
                    # region (Spark unified memory: evictable, so it never
                    # gates execution admission — tracked for telemetry
                    # and serve-layer placement only).
                    self._memory.reserve_cache(node, task.bytes)
                    self._cache_mem[task.task_id] = (node, task.bytes)

        return (yield from self._stage(
            "compute", f"compute-{iteration}", items, self._policy(),
            spill=True, speculation=self._speculation(),
            on_complete=on_complete))

    def _split_size(self, i: int) -> float:
        spec = self.spec
        if spec.input_source == "hdfs":
            return self._blocks[i].size
        full = spec.split_bytes
        last = spec.input_bytes - full * (spec.n_map_tasks - 1)
        return full if i < spec.n_map_tasks - 1 else last

    def _compute_body(self, i: int, size: float, noise: float,
                      iteration: int):
        spec = self.spec
        cluster = self.cluster

        def body(node: int):
            node_obj = cluster.nodes[node]
            nominal = size / spec.map_compute_rate * noise
            compute_ev = node_obj.compute(nominal)
            # A cached partition is free to read only on the node holding
            # it; anywhere else the input must be re-fetched (cache miss).
            cached = (iteration > 0 and spec.cache_input
                      and self._cache_locations.get(i) == node)
            read_ev = None
            if not cached:
                if spec.input_source == "hdfs":
                    read_ev = cluster.hdfs.read_block(node, self._blocks[i])
                elif spec.input_source == "lustre":
                    read_ev = cluster.lustre.read(
                        node, size, ("input", spec.name, i))
            if read_ev is not None:
                # Spark pipelines computation with data input (§V-A):
                # the task finishes when both streams complete.
                yield AllOf(self.sim, [read_ev, compute_ev])
            else:
                yield compute_ev

        return body

    # -- combine stage -------------------------------------------------------------
    def _maybe_combine(self):
        """Run the in-node combiner over the final map outputs.

        A no-op (not even a phase entry) when ``spec.combiner`` is off,
        keeping mechanisms-off fingerprints byte-identical.  Records the
        pre-combine total either way so ShuffleMetrics is honest."""
        self._pre_combine_bytes = float(
            np.asarray(self.node_intermediate).sum())
        if not self.spec.combiner:
            self._post_combine_bytes = self._pre_combine_bytes
            return
        yield from self._phase("combine", None, self._combine_stage())

    def _combine_stage(self):
        """One combine task per map output, pinned where it lives (the
        merge never crosses the network — that is the whole point).  The
        reduction applies inside the phase, so its ``combine`` trace
        event lands in the open span."""
        spec = self.spec
        outputs = self._map_outputs()
        noise = self._noise_factors("combine-noise", len(outputs),
                                    spec.store_noise_sigma)
        items = [(k, self._combine_body(node, nbytes, noise[k]), nbytes,
                  (), node) for k, (node, nbytes) in enumerate(outputs)]
        records = yield from self._stage("combine", "combine", items,
                                         LocalityFirstPolicy())
        self._apply_combine()
        return records

    def _combine_body(self, node: int, nbytes: float, noise: float):
        spec = self.spec
        cluster = self.cluster

        def body(assigned: int):
            # An in-memory hash merge: pure compute, no I/O — the saved
            # store/fetch bytes are where the mechanism pays off.
            nominal = nbytes / spec.combine_compute_rate * noise
            yield cluster.nodes[node].compute(nominal)

        return body

    def _apply_combine(self) -> None:
        """Shrink the per-node intermediates by the skew-derived
        reduction factors (and the per-partition lineage records with
        them, so crash recovery re-materialises post-combine sizes)."""
        spec = self.spec
        raw = np.asarray(self.node_intermediate, dtype=float).copy()
        factors = reduction_factors(raw, spec.pair_bytes, spec.n_keys,
                                    spec.key_skew)
        for node in range(self.cluster.n_nodes):
            if raw[node] > 0:
                self.node_intermediate[node] = raw[node] * factors[node]
        for i, node in self._cache_locations.items():
            if i in self._partition_intermediate:
                self._partition_intermediate[i] *= factors[node]
        self._post_combine_bytes = float(
            np.asarray(self.node_intermediate).sum())
        if self.metrics.enabled:
            self.metrics.counter("shuffle.combined_away_bytes").inc(
                self._pre_combine_bytes - self._post_combine_bytes)
        if self.sim._tracing:
            self.sim.trace("combine", pre=self._pre_combine_bytes,
                           post=self._post_combine_bytes)

    # -- storing stage ------------------------------------------------------------
    def _store_stage(self, iteration: Optional[int], scale: float):
        spec = self.spec
        if self._lineage is not None:
            self._lineage.storing = True
        # One ShuffleMapTask per map output, pinned to the node holding
        # it.  Storing tasks hold heap (the gate applies) but stream
        # straight from memory-resident intermediates — no spill curve.
        outputs = self._map_outputs(scale)
        stream = "store-noise" if iteration is None \
            else f"store-noise-{iteration}"
        noise = self._noise_factors(stream, len(outputs),
                                    spec.store_noise_sigma)
        items = [(k, self._store_body(node, nbytes, noise[k], iteration),
                  nbytes, (), node)
                 for k, (node, nbytes) in enumerate(outputs)]

        def on_complete(task: SimTask, node: int, rec: TaskRecord) -> None:
            self.node_store_bytes[node] += task.bytes
            self.source_store_bytes[node] += task.bytes

        cad = None
        if self.options.cad:
            cad = CongestionAwareDispatcher(metrics=self.metrics)
            self.cad_controller = cad
            if self.metrics.enabled:
                obs_wiring.register_cad(self.metrics, cad)
        return (yield from self._stage(
            "store", "store", items, LocalityFirstPolicy(), cad=cad,
            on_complete=on_complete))

    def _store_body(self, node: int, nbytes: float, noise: float,
                    iteration: Optional[int]):
        def body(assigned: int):
            start = self.sim.now
            yield self._write_shuffle(node, nbytes, iteration)
            if noise > 1.0:
                # Service-time straggle (partitioning, small-write skew)
                # without perturbing byte accounting.
                yield self.sim.timeout((self.sim.now - start) * (noise - 1.0))

        return body

    def _write_shuffle(self, node: int, nbytes: float,
                       iteration: Optional[int]) -> Event:
        """Write ``nbytes`` into ``node``'s shuffle bundle for round
        ``iteration`` and record the file for :meth:`cleanup`."""
        store = self.spec.shuffle_store
        file_id = self._shuffle_id(node, iteration)
        if store == "lustre":
            self._lustre_files[file_id] = None
            return self.cluster.lustre.write(node, nbytes, file_id)
        # Record at issue time: allocation happens synchronously in
        # write(), even for attempts later abandoned.
        key = (node, store, file_id)
        self._vol_files[key] = self._vol_files.get(key, 0.0) + nbytes
        return self.cluster.nodes[node].volume(store).write(nbytes, file_id)

    def _split_lustre_shuffle_files(self,
                                    iteration: Optional[int] = None) -> None:
        n_reducers = self.spec.reducers(self.cluster.total_cores)
        for node in range(self.cluster.n_nodes):
            if self.node_store_bytes[node] <= 0:
                continue
            bundle = self._shuffle_id(node, iteration)
            parts = [self._shuffle_part_id(node, r, iteration)
                     for r in range(n_reducers)]
            self.cluster.lustre.split_file(bundle, parts)
            if bundle in self._lustre_files:
                del self._lustre_files[bundle]
                for p in parts:
                    self._lustre_files[p] = None

    # -- fetching stage ------------------------------------------------------------
    def _fetch_stage(self, iteration: Optional[int]):
        spec = self.spec
        n_reducers = spec.reducers(self.cluster.total_cores)
        stream = "fetch-noise" if iteration is None \
            else f"fetch-noise-{iteration}"
        noise = self._noise_factors(stream, n_reducers,
                                    spec.compute_noise_sigma)
        # Under the combiner, hash partitioning deals out *distinct keys*,
        # not raw pairs: each reducer's slice is sized by its key share.
        shares = reducer_key_shares(spec.n_keys, n_reducers) \
            if spec.combiner else None
        availability = self._lineage.availability if self._lineage else None
        plan = FetchPlan(cluster=self.cluster, spec=spec, conf=self.conf,
                         node_store_bytes=self.node_store_bytes,
                         n_reducers=n_reducers,
                         availability=availability,
                         source_bytes=self.source_store_bytes
                         if availability is not None else None,
                         file_tag=self.job_tag,
                         reducer_share=shares,
                         iteration=iteration)
        total = float(self.node_store_bytes.sum())

        def reducer_bytes(r: int) -> float:
            if shares is not None:
                return total * float(shares[r])
            return total / n_reducers

        # M3R partition-stable mode: the first round's reducer placements
        # become the fixed partition map — later rounds pin each reducer
        # to its home so the iteration's delta lands on warm state.
        pin_round = iteration is not None and spec.partition_stable
        on_complete = None
        if pin_round and iteration == 0:
            def on_complete(task: SimTask, node: int,
                            rec: TaskRecord) -> None:
                self._reducer_homes[task.task_id] = node
        homes = self._reducer_homes if pin_round and iteration else {}

        def pin_for(r: int) -> Optional[int]:
            home = homes.get(r)
            if home is not None and self._liveness is not None \
                    and not self._liveness.alive(home):
                # The home died: fall back to free placement (the
                # partition map is rebuilt for this reducer only).
                return None
            return home

        items = [(r, fetch_body(plan, r, noise[r]), reducer_bytes(r), (),
                  pin_for(r)) for r in range(n_reducers)]
        return (yield from self._stage(
            "fetch", "fetch", items, LocalityFirstPolicy(), spill=True,
            speculation=self._speculation(), on_complete=on_complete))

    # -- fault listener (DESIGN.md §9) ----------------------------------------
    def on_node_crash(self, node: int) -> None:
        rec = self.recovery
        rec.node_crashes += 1
        lost = sorted(i for i, loc in self._cache_locations.items()
                      if loc == node)
        for i in lost:
            del self._cache_locations[i]
            held = self._cache_mem.pop(i, None)
            if held is not None:
                self._memory.release_cache(held[0], held[1])
        self.node_intermediate[node] = 0.0
        self.node_task_counts[node] = 0
        if self.node_store_bytes[node] > 0:
            rec.stored_bytes_lost += float(self.node_store_bytes[node])
            self.node_store_bytes[node] = 0.0
        if self._shuffling() and lost:
            # Before the store stage the output is not yet addressed
            # data — nothing to gate; recovered partitions re-home.
            self._lineage.lose(node, lost, "full")
        if self._active_runner is not None:
            self._active_runner.on_node_crash(node)
        self._lineage.ensure()

    def on_executor_loss(self, node: int) -> None:
        self.recovery.executor_losses += 1
        if self._active_runner is not None:
            self._active_runner.on_executor_loss(node)

    def on_node_restart(self, node: int) -> None:
        self.recovery.node_restarts += 1
        self._lineage.restarted()
        if self._active_runner is not None:
            self._active_runner.on_node_restart(node)

    def on_shuffle_output_loss(self, node: int) -> None:
        rec = self.recovery
        if not self._shuffling() or self.node_store_bytes[node] <= 0:
            return
        rec.shuffle_losses += 1
        rec.stored_bytes_lost += float(self.node_store_bytes[node])
        self.node_store_bytes[node] = 0.0
        # The map outputs survive in memory: re-store only — unless a
        # crash already demanded full recomputation of a source.
        self._lineage.lose(node, sorted(
            i for i, loc in self._cache_locations.items() if loc == node),
            "store")
        self._lineage.ensure()

    def on_storage_degradation(self, ev) -> None:
        self.recovery.storage_degradations += 1

    # -- helpers ----------------------------------------------------------------------
    def _with_spill(self, body_factory, phase: str, task_id: int,
                    working_set: float, gate: Optional[MemoryGate]):
        """Wrap a task body with spill I/O when launched below its ideal
        heap (DESIGN.md §13).

        A shrunk attempt spills ``SpillCurve(working_set)`` bytes: it
        writes them to the node-local spill store and reads them back
        (the external-merge pass), through the same PageCache / device
        paths as shuffle traffic — spill honestly contends for bandwidth,
        dirties the page cache, and wears the SSD.  The spill file is
        deleted when the attempt finishes, so spills cost bandwidth and
        GC pressure, not permanent capacity.  Applied *inside*
        ``_with_failures`` so failing attempts (which die at launch)
        never spill.  Identity when memory is unmanaged (no ``gate``),
        and a no-op for full-heap attempts — at ``mem_frac=1.0`` nothing
        ever shrinks, keeping fingerprints byte-identical.
        """
        if gate is None or working_set <= 0:
            return body_factory
        cfg = self._mem_cfg
        curve = SpillCurve(working_set, ratio=cfg.spill_ratio,
                           gamma=cfg.spill_gamma)
        cluster = self.cluster

        def body(node: int):
            inner = body_factory(node)
            frac = gate.frac_of(task_id, node)
            spilled = curve.spilled_bytes(frac)
            if spilled <= 0:
                # Full heap: delegate untouched (identical event trace).
                yield from inner
                return
            vol = cluster.nodes[node].volume(cfg.spill_store)
            # Node in the id: a speculative twin must not share (or
            # delete) the original attempt's spill file.
            fid = ("spill", self.job_tag, phase, task_id, node)
            self._spill_events += 1
            self._spill_written += spilled
            self._spill_read += spilled
            if self.metrics.enabled:
                self.metrics.counter("mem.spill_bytes_written").inc(spilled)
                self.metrics.counter("mem.spill_bytes_read").inc(spilled)
            if self.sim._tracing:
                self.sim.trace("spill", phase=phase, task=task_id,
                               node=node, bytes=spilled, frac=frac)
            # Run the base attempt, then pay the overflow: write it out
            # and read it back for the external-merge pass.  The claim
            # in _vol_files covers attempts abandoned mid-spill (node
            # crash): cleanup() reclaims what the happy path deletes.
            yield from inner
            key = (node, cfg.spill_store, fid)
            self._vol_files[key] = self._vol_files.get(key, 0.0) + spilled
            spill_t0 = self.sim.now
            yield vol.write(spilled, fid)
            yield vol.read(spilled, fid)
            vol.delete(spilled, fid)
            if self.sim._tracing:
                # Measured write + read-back seconds: lets the critical
                # path carve the spill I/O out of the attempt's work.
                self.sim.trace("spill-done", phase=phase, task=task_id,
                               node=node,
                               elapsed=self.sim.now - spill_t0)
            left = self._vol_files.get(key, 0.0) - spilled
            if left > 1e-9:
                self._vol_files[key] = left
            else:
                self._vol_files.pop(key, None)

        return body

    def _with_failures(self, body_factory, stream: str, task_id: int):
        """Wrap a task body factory with attempt-failure injection.

        The draw is keyed by (seed, stream, task id) rather than by a
        shared stream consumed in launch order: launch order depends on
        the scheduling policy, so a shared stream would reshuffle *which*
        tasks fail whenever ELB / CAD / speculation / delay scheduling
        are toggled.  One canonical uniform per task fixes its count of
        consecutive failing attempts (``P(>= k failures) = rate**k``,
        the same marginals as independent per-attempt draws), making the
        failed-task set a pure function of (seed, job) — and a
        speculative twin of a healthy attempt runs the real body, never
        a fresh draw.
        """
        rate = self.options.task_failure_rate
        if rate <= 0:
            return body_factory
        seed = self.options.seed & 0xFFFFFFFF
        gen = np.random.default_rng(np.random.SeedSequence(
            [seed, task_id] + list(f"failures:{stream}".encode())))
        u = float(gen.random())
        fails = 0
        threshold = rate
        while u < threshold and fails < 8:  # cap guards against u == 0.0
            fails += 1
            threshold *= rate
        if fails == 0:
            return body_factory
        state = {"done": 0}

        def factory(node: int):
            if state["done"] < fails:
                state["done"] += 1

                def failing():
                    # The attempt dies early (executor lost at launch).
                    yield self.sim.timeout(0.05)
                    raise TaskAttemptFailure()
                return failing()
            return body_factory(node)

        return factory

    def _noise_factors(self, stream: str, count: int,
                       sigma: float) -> np.ndarray:
        if sigma <= 0 or count == 0:
            # Length must equal ``count`` exactly: a zero-task stage used
            # to get a spurious length-1 array, and any caller zipping
            # factors against its task list would mis-pair them.
            return np.ones(count)
        gen = self.rng(f"{stream}:{self.options.seed}")
        return gen.lognormal(mean=0.0, sigma=sigma, size=count)


def run_job(spec: JobSpec,
            cluster_spec: Optional[ClusterSpec] = None,
            options: Optional[EngineOptions] = None,
            speed_model: Optional[SpeedModel] = None,
            cluster: Optional[Cluster] = None,
            telemetry: Optional[Telemetry] = None,
            cleanup: bool = False) -> JobResult:
    """Convenience one-shot: build a fresh cluster, run the job.

    A fresh cluster per run keeps device history (SSD wear, caches) from
    leaking between experiments; pass ``cluster`` explicitly to model
    consecutive jobs on a warm system.  ``cluster`` is mutually exclusive
    with ``cluster_spec``/``speed_model``: an existing cluster already
    fixed both, and silently ignoring the others would run the job on a
    different machine than the caller asked for.

    ``cleanup=True`` deletes the job's files (shuffle output, staged
    input) after it finishes — the warm-but-tidy mode the serve layer
    uses between jobs.  Device wear survives cleanup by design.
    """
    if cluster is not None:
        if cluster_spec is not None:
            raise ValueError(
                "run_job: pass either cluster= or cluster_spec=, not both "
                "(an existing cluster already fixes its spec)")
        if speed_model is not None:
            raise ValueError(
                "run_job: speed_model is ignored when cluster= is given; "
                "build the cluster with the speed model instead")
    options = options if options is not None else EngineOptions()
    if cluster is None:
        cluster = Cluster(cluster_spec, speed_model=speed_model,
                          seed=options.seed)
    engine = SparkSim(cluster, spec, options, telemetry=telemetry)
    result = engine.run()
    if cleanup:
        engine.cleanup()
    return result
