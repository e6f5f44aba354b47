"""Slot leasing: cores moving between concurrent jobs on one cluster.

The :class:`SlotPool` owns every core of the cluster.  Each admitted job
holds a :class:`SlotLease` — a per-node core entitlement that the pool
grows and shrinks as the inter-job policy dictates.  Three facts shape
the protocol:

* **Executor handoff is not free.**  A core granted to a job becomes
  usable only after ``moving_delay`` simulated seconds (executor start /
  container handoff).  In-flight grants are *moving*: no longer free,
  not yet held.
* **A busy core cannot be preempted.**  Shrinking a lease first cancels
  moving grants (the core returns to the pool when the in-flight
  delivery lands), then revokes idle entitlement immediately; cores
  running a task become *owed* and return through the stage runner's
  ``slot_listener`` when the task exits (tasks are never killed).
* **Conservation.**  At every quiescent point
  ``total == free + moving + Σ held + owed`` — checked by
  :meth:`SlotPool.assert_consistent`, which tests and the stream server
  call liberally; a leak here silently starves later jobs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.memory import ClusterMemory
    from repro.core.scheduler import StageRunner
    from repro.serve.policy import InterJobPolicy
    from repro.sim.core import Simulator

__all__ = ["SlotLease", "SlotPool"]


class _Grant:
    """One core in flight from the pool to a lease."""

    __slots__ = ("lease", "node", "cancelled")

    def __init__(self, lease: "SlotLease", node: int) -> None:
        self.lease = lease
        self.node = node
        self.cancelled = False


class SlotLease:
    """A job's current core entitlement, node by node.

    The engine hands the lease to each :class:`StageRunner` it builds
    (``slots=lease.slots`` snapshot at stage start) and attaches it so
    that mid-stage grants and revocations reach the running stage via
    ``add_capacity`` / ``remove_capacity``.
    """

    def __init__(self, pool: "SlotPool", lease_id: int, tenant: str,
                 demand: int) -> None:
        self.pool = pool
        self.lease_id = lease_id
        self.tenant = tenant
        #: Max cores this job can use at once (caps its fair share).
        self.demand = demand
        #: Delivered entitlement per node.
        self.slots: List[int] = [0] * pool.n_nodes
        #: Uncancelled in-flight grants.
        self.pending: List[_Grant] = []
        #: When the first core landed (service time starts here).
        self.first_grant_at: Optional[float] = None
        self.released = False
        self._runner: Optional["StageRunner"] = None

    @property
    def held(self) -> int:
        return sum(self.slots)

    @property
    def committed(self) -> int:
        """Cores the pool has already dedicated to this lease."""
        return self.held + len(self.pending)

    # -- engine-facing hooks -----------------------------------------------------
    def attach(self, runner: "StageRunner") -> None:
        self._runner = runner

    def detach(self, runner: "StageRunner") -> None:
        if self._runner is runner:
            self._runner = None

    def slot_freed(self, node: int) -> None:
        """A revoked-but-busy core physically freed (task exited)."""
        self.pool._owed_repaid(node)

    # -- pool internals ----------------------------------------------------------
    def _deliver(self, grant: _Grant) -> None:
        self.pending.remove(grant)
        self.slots[grant.node] += 1
        if self.first_grant_at is None:
            self.first_grant_at = self.pool.sim.now
        if self._runner is not None:
            self._runner.add_capacity(grant.node)

    def _revoke_one(self) -> None:
        """Drop one delivered core (largest per-node holding, tie lowest
        node id); idle cores return to the pool now, busy ones become
        owed and return at task exit."""
        node = max(range(len(self.slots)),
                   key=lambda n: (self.slots[n], -n))
        if self.slots[node] <= 0:  # pragma: no cover - caller checks held
            raise RuntimeError("revoking from an empty lease")
        self.slots[node] -= 1
        if self._runner is not None:
            reclaimed = self._runner.remove_capacity(node, 1)
        else:
            reclaimed = 1  # no stage running: the core is idle
        if reclaimed:
            self.pool.free[node] += 1
        else:
            self.pool._owed += 1


class SlotPool:
    """Owns the cluster's cores; leases them to jobs per the policy."""

    def __init__(self, sim: "Simulator", n_nodes: int, cores_per_node: int,
                 policy: "InterJobPolicy", moving_delay: float = 0.0,
                 memory: Optional["ClusterMemory"] = None) -> None:
        if moving_delay < 0:
            raise ValueError(f"moving_delay must be >= 0, got {moving_delay}")
        self.sim = sim
        self.n_nodes = n_nodes
        self.total = n_nodes * cores_per_node
        self.free: List[int] = [cores_per_node] * n_nodes
        self.policy = policy
        self.moving_delay = float(moving_delay)
        #: Shared executor-heap ledger (DESIGN.md §13); when set, core
        #: placement prefers memory-rich nodes.  Leased *alongside*
        #: cores, never instead of them: conservation stays core-only.
        self.memory = memory
        #: Active leases in admission order (policy iteration order).
        self.leases: List[SlotLease] = []
        self._moving = 0
        self._owed = 0
        self._next_id = 0
        self._rebalancing = False
        self._again = False
        #: ``policy.targets(leases, total)``, cached between lease
        #: changes: it depends only on the active leases (tenant,
        #: demand) and ``total``, which change only in admit/release.
        self._targets: Optional[Dict[int, int]] = None

    # -- lifecycle ---------------------------------------------------------------
    def admit(self, tenant: str, demand: Optional[int] = None) -> SlotLease:
        lease = SlotLease(self, self._next_id, tenant,
                          min(demand, self.total) if demand is not None
                          else self.total)
        self._next_id += 1
        self.leases.append(lease)
        self._targets = None
        self.rebalance()
        return lease

    def release(self, lease: SlotLease) -> None:
        """The job finished: return its entitlement and cancel in-flight
        grants (those cores come home when their delivery lands)."""
        if lease.released:
            return
        lease.released = True
        self.leases.remove(lease)
        self._targets = None
        for grant in lease.pending:
            grant.cancelled = True
        lease.pending.clear()
        for node in range(self.n_nodes):
            self.free[node] += lease.slots[node]
            lease.slots[node] = 0
        self.rebalance()

    # -- rebalancing -------------------------------------------------------------
    def rebalance(self) -> None:
        """Move every lease toward its policy target.  Re-entrant calls
        (a delivery paying down a runner's debt fires ``slot_freed``
        synchronously) coalesce into another pass."""
        if self._rebalancing:
            self._again = True
            return
        self._rebalancing = True
        try:
            while True:
                self._again = False
                self._rebalance_once()
                if not self._again:
                    break
        finally:
            self._rebalancing = False

    def _rebalance_once(self) -> None:
        targets = self._targets
        if targets is None:
            targets = self._targets = self.policy.targets(self.leases,
                                                          self.total)
        # Shrink first so freed cores are grantable in the same pass.
        for lease in self.leases:
            excess = lease.committed - targets[lease.lease_id]
            while excess > 0 and lease.pending:
                grant = lease.pending.pop()
                grant.cancelled = True
                excess -= 1
            while excess > 0 and lease.held > 0:
                lease._revoke_one()
                excess -= 1
        for lease in self.leases:
            deficit = targets[lease.lease_id] - lease.committed
            while deficit > 0 and sum(self.free) > 0:
                self._issue(lease)
                deficit -= 1

    def _issue(self, lease: SlotLease) -> None:
        if self.memory is not None:
            # Memory-aware placement: among core-rich nodes, prefer the
            # one with the most free executor heap, so concurrent jobs'
            # tasks land where they are least likely to shrink or spill.
            mem = self.memory
            node = max(range(self.n_nodes),
                       key=lambda n: (self.free[n], mem.free(n), -n))
        else:
            node = max(range(self.n_nodes), key=lambda n: (self.free[n], -n))
        self.free[node] -= 1
        self._moving += 1
        grant = _Grant(lease, node)
        lease.pending.append(grant)
        self.sim.schedule_callback(self.moving_delay, self._arrive, grant)

    def _arrive(self, grant: _Grant) -> None:
        self._moving -= 1
        if grant.cancelled:
            self.free[grant.node] += 1
        else:
            grant.lease._deliver(grant)
        self.rebalance()

    def _owed_repaid(self, node: int) -> None:
        self._owed -= 1
        self.free[node] += 1
        self.rebalance()

    # -- invariants --------------------------------------------------------------
    def accounted(self) -> Dict[str, int]:
        return {"free": sum(self.free), "moving": self._moving,
                "held": sum(l.held for l in self.leases),
                "owed": self._owed}

    def assert_consistent(self) -> None:
        acct = self.accounted()
        if sum(acct.values()) != self.total or self._owed < 0 \
                or any(f < 0 for f in self.free):
            raise RuntimeError(
                f"slot conservation violated: {acct} != total {self.total}")
