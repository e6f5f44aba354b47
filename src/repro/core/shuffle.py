"""The fetch (shuffle) stage: reducers pulling intermediate data.

Three retrieval modes, matching the paper's configurations:

* ``network`` — intermediate data lives on node-local storage (RAMDisk or
  SSD); each reducer sends FetchRequests to the source nodes, which read
  their shuffle files and stream them over the fabric.  Reads and network
  transfer are pipelined (the slower of the two paces the fetch).
* ``lustre-local`` (Fig 6, left) — shuffle files live on Lustre, but the
  *writer* serves FetchRequests from its own client cache, avoiding lock
  traffic; data still crosses the network.
* ``lustre-shared`` (Fig 6, right) — fetchers read the shuffle files
  directly from Lustre.  Every file's write lock must be revoked, forcing
  the holder to flush dirty data to the OSSes before the read — the
  cascading lock-contention pathology of §IV-B.

Request framing: the per-flow rate is capped by the fetch request size
(Table I's ``spark.reducer.maxMbInFlight``), and per-request overhead
inflates the effective bytes on the wire — shrinking requests to 128 KB
reproduces the paper's network-bottleneck scenario (Fig 13(b)).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.net.request import request_rate_cap
from repro.sim.events import URGENT, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.config import SparkConf
    from repro.core.faults import ShuffleAvailability
    from repro.core.jobspec import JobSpec

__all__ = ["FetchPlan", "fetch_body"]


@dataclass
class FetchPlan:
    """Everything a fetch task needs to locate its partition slices.

    With fault injection active, ``src`` in the fetch path is a *logical*
    source id: ``availability`` gates reads of sources whose output is
    being re-materialised and maps them to the physical node that hosts
    the recovered bytes, while ``source_bytes`` sizes slices by logical
    source (the physical ``node_store_bytes`` is zeroed by a crash, which
    must not silently shrink a late reducer's fetch)."""

    cluster: "Cluster"
    spec: "JobSpec"
    conf: "SparkConf"
    node_store_bytes: np.ndarray
    n_reducers: int
    availability: Optional["ShuffleAvailability"] = None
    source_bytes: Optional[np.ndarray] = None
    #: Shuffle-file namespace: the multi-job serve layer sets a unique
    #: per-job tag so concurrent jobs' shuffle files never collide (an
    #: untagged single job keeps the historical ids byte-for-byte).
    file_tag: str = ""
    #: Per-reducer share of each source's output.  ``None`` keeps the
    #: historical uniform ``1 / n_reducers`` hash split; the in-node
    #: combiner supplies the exact post-combine key split instead
    #: (``combine.reducer_key_shares`` — distinct keys, not bytes, are
    #: what hash partitioning deals out after merging).
    reducer_share: Optional[np.ndarray] = None
    #: Shuffle round under per-iteration shuffling (M3R partition-stable
    #: jobs); ``None`` keeps the historical single-shuffle file ids.
    iteration: Optional[int] = None

    def bundle_id(self, phys: int):
        """File id of ``phys``'s shuffle bundle (this round's)."""
        parts = ["shuffle"]
        if self.file_tag:
            parts.append(self.file_tag)
        if self.iteration is not None:
            parts.append(self.iteration)
        parts.append(phys)
        return tuple(parts)

    def part_id(self, phys: int, reducer: int):
        """File id of one reducer's slice of ``phys``'s output."""
        return self.bundle_id(phys) + (reducer,)

    def slice_bytes(self, src: int, reducer: Optional[int] = None) -> float:
        """Bytes of ``reducer``'s partition on ``src``.

        Uniform hash partitioning by default; under the combiner the
        per-reducer key shares size each slice (``reducer=None`` keeps
        the historical uniform average for callers that only need a
        per-source mean)."""
        total = self.bundle_total(src)
        if self.reducer_share is not None and reducer is not None:
            return total * float(self.reducer_share[reducer])
        return total / self.n_reducers

    def bundle_total(self, src: int) -> float:
        """Total stored bytes of logical source ``src``.

        Sized from the *logical* ``source_bytes`` exactly like
        ``slice_bytes``: the physical ``node_store_bytes`` entry is
        zeroed by a crash (and inflated on a host that recovered someone
        else's output), which must not skew a late reducer's partial-read
        pipelining."""
        data = self.source_bytes if self.source_bytes is not None \
            else self.node_store_bytes
        return float(data[src])

    def flow_cap(self) -> float:
        return request_rate_cap(self.conf.fetch_request_bytes,
                                self.cluster.fabric.nic_bw,
                                self.conf.fetch_request_overhead)

    def wire_inflation(self) -> float:
        """Effective-bytes multiplier from per-request handling overhead."""
        overhead_bytes = (self.conf.fetch_request_overhead
                          * self.cluster.fabric.nic_bw)
        return 1.0 + overhead_bytes / self.conf.fetch_request_bytes


def fetch_body(plan: FetchPlan, reducer: int, noise: float):
    """Build the task-body factory for one reducer."""

    def factory(node: int):
        return _run(plan, reducer, node, noise)

    return factory


def _run(plan: FetchPlan, reducer: int, node: int, noise: float):
    pump = _FetchPump(plan, reducer, node)
    if pump.done is not None:
        yield pump.done
    total = pump.total
    if total > 0:
        # Reduce-side computation (grouping / aggregation).
        nominal = total / plan.spec.reduce_compute_rate * noise
        yield plan.cluster.nodes[node].compute(nominal)


class _FetchPump:
    """One reducer's fetch loop, driven by completion callbacks.

    At most ``conf.max_concurrent_fetches`` slices are outstanding; each
    finished slice issues the next one, and ``done`` succeeds once every
    slice has arrived.  Equal-timestamp dispatch order is part of the
    fingerprinted contract, so every hop is its own heap entry with a
    fixed key (DESIGN.md §8, "Shuffle fetch pump"): one URGENT start
    entry, one URGENT entry per grant (the first window as one batch),
    and a NORMAL entry before ``done``.  Per-slice state lives in
    :class:`_Slice` records, never in closures, and the sources and
    sizes in flat arrays, one machine word per slice.
    """

    __slots__ = ("plan", "reducer", "node", "srcs", "sizes", "total",
                 "done", "_granted", "_left", "_cap", "_inflation")

    def __init__(self, plan: FetchPlan, reducer: int, node: int) -> None:
        self.plan = plan
        self.reducer = reducer
        self.node = node
        srcs = array("l")
        sizes = array("d")
        total = 0.0
        n = plan.cluster.n_nodes
        # Rotate source order per reducer so sources aren't hit in lockstep.
        for k in range(n):
            src = (node + 1 + k + reducer) % n
            nbytes = plan.slice_bytes(src, reducer)
            if nbytes <= 0:
                continue
            total += nbytes
            srcs.append(src)
            sizes.append(nbytes)
        self.srcs = srcs
        self.sizes = sizes
        self.total = total
        self._granted = 0
        self._left = len(srcs)
        self.done = None
        if not srcs:
            return
        if plan.spec.fetch_mode != "lustre-shared":
            self._cap = plan.flow_cap()
            self._inflation = plan.wire_inflation()
        sim = plan.cluster.sim
        self.done = Event(sim, name=f"fetch:{reducer}")
        sim.schedule_now(self._start, (), URGENT)

    def _start(self) -> None:
        window = min(self.plan.conf.max_concurrent_fetches, len(self.srcs))
        self._granted = window
        self.plan.cluster.sim.schedule_now(self._issue, (0, window), URGENT)

    def _issue(self, lo: int, hi: int) -> None:
        availability = self.plan.availability
        for i in range(lo, hi):
            src = self.srcs[i]
            rec = _Slice(self, src, self.sizes[i])
            if availability is not None:
                # Gate on the logical source: if its output is
                # mid-recovery, park until the redirect to the
                # recovered copy is published.
                gate = availability.available(src)
                if gate is not None:
                    gate.callbacks.append(rec.go)
                    continue
            rec.go()

    def slice_done(self, _ev: Optional[Event] = None) -> None:
        """One slice has fully arrived: issue the next, or finish."""
        self._left -= 1
        granted = self._granted
        sim = self.plan.cluster.sim
        if granted < len(self.srcs):
            self._granted = granted + 1
            sim.schedule_now(self._issue, (granted, granted + 1), URGENT)
        elif self._left == 0:
            sim.schedule_now(self.done.succeed)


class _Slice:
    """One in-flight (reducer, source) slice of a :class:`_FetchPump`."""

    __slots__ = ("pump", "src", "nbytes", "_wait")

    def __init__(self, pump: _FetchPump, src: int, nbytes: float) -> None:
        self.pump = pump
        self.src = src
        self.nbytes = nbytes
        self._wait = 0

    def go(self, _gate: Optional[Event] = None) -> None:
        """Start the slice's reads (and transfer) at its physical source.

        The volume read and the fabric transfer complete through
        ``then`` callbacks, so neither makes an event."""
        pump = self.pump
        plan = pump.plan
        cluster = plan.cluster
        spec = plan.spec
        src = self.src
        dst = pump.node
        nbytes = self.nbytes
        phys = src
        if plan.availability is not None:
            phys = plan.availability.physical(src)
        mode = spec.fetch_mode
        if mode == "lustre-shared":
            # Direct Lustre read: MDS op + lock revocation + OSS traffic.
            # ``of_total`` sizes the slice like the other two modes do,
            # so holder-cache partial reads pipeline consistently.
            cluster.lustre.read(dst, nbytes,
                                plan.part_id(phys, pump.reducer),
                                of_total=nbytes).callbacks.append(
                                    pump.slice_done)
            return
        bundle = plan.bundle_id(phys)
        bundle_total = plan.bundle_total(src)
        # A local slice is done with its read.  Otherwise reads and the
        # transfer are pipelined: the slice is done once both are, one
        # NORMAL entry after the later of the two.
        local = phys == dst
        then = pump.slice_done if local else self._part
        if mode == "network":
            cluster.nodes[phys].volume(spec.shuffle_store).read(
                nbytes, bundle, of_total=bundle_total, then=then)
        elif mode == "lustre-local":
            cluster.lustre.read_local(phys, nbytes, bundle,
                                      of_total=bundle_total
                                      ).callbacks.append(then)
        else:  # pragma: no cover - JobSpec validates
            raise ValueError(f"unknown fetch mode {mode!r}")
        if local:
            return
        self._wait = 2
        cluster.fabric.transfer(phys, dst, nbytes * pump._inflation,
                                cap=pump._cap, then=self._part)

    def _part(self, _ev: Optional[Event] = None) -> None:
        self._wait -= 1
        if self._wait == 0:
            pump = self.pump
            pump.plan.cluster.sim.schedule_now(pump.slice_done)
