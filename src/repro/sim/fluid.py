"""Fluid-flow shared-bandwidth resources.

A :class:`FluidPipe` carries any number of concurrent flows that share its
capacity under max–min fairness with optional per-flow rate caps.  The
aggregate capacity may be a function of the number of active flows, which
is how concurrency-dependent device behaviour (e.g. SSD garbage-collection
interference) is expressed.

Rates are piecewise-constant between *flow events* (a flow starting or
finishing, or an explicit capacity change); at each event the resource
advances all remaining-byte counters and reschedules the next completion.
This is the standard flow-level (fluid) approximation used by network and
storage simulators: per-packet behaviour is abstracted away but contention,
fair-sharing, and completion-time dynamics are preserved.

:class:`FluidCore` is that loop, shared by :class:`FluidPipe` and the
network :class:`~repro.net.fabric.Fabric`.  It owns the flow list, a
:class:`~repro.sim.flowarray.FlowTable` (``remaining`` and ``rate``
first), the drain, ``bytes_completed`` and the coalesced reallocation
and completion timer.  A subclass supplies two hooks: the rate
assignment, which returns the completion horizon, and the hand-off of
the flows a drain finished.

Hot-path notes (see DESIGN.md §8/§12): the per-event drain is one call
of :meth:`FlowTable.drain` (one C kernel, or one vectorized NumPy pass
plus an order-preserving compaction); rows are written with direct
element stores; same-timestamp reallocations are coalesced behind a
pending flag; and the pipe caches the sorted-cap order feeding
:func:`fair_share` while the flow set is unchanged.  The C kernels are
held bit for bit to the NumPy fallback by ``tests/sim/test_fastdrain.py``,
and whole runs to the captured fingerprints by ``repro bench --check``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, List, Optional, \
    Sequence, Union

import numpy as np

from repro.sim import fastdrain
from repro.sim.events import Event
from repro.sim.flowarray import FlowTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["FluidCore", "FluidPipe", "Flow", "fair_share"]

#: A transfer's completion target: the event it returned, or the
#: caller's ``then`` callback (fired by :meth:`Simulator.complete`).
Target = Union[Event, Callable[[], Any]]


def fair_share(capacity: float, caps: Sequence[float],
               order: Optional[Sequence[int]] = None) -> List[float]:
    """Max–min fair allocation of ``capacity`` among flows with rate caps.

    Returns one rate per entry in ``caps``.  Uncapped flows should pass
    ``math.inf``.  The result is work-conserving: either every flow is at
    its cap or the full capacity is used.

    ``order`` is an optional precomputed ascending-cap processing order
    (the stable sort of ``range(len(caps))`` by cap); callers that
    reallocate repeatedly over an unchanged flow set pass their cached
    order to skip the O(n log n) sort.
    """
    n = len(caps)
    if n == 0:
        return []
    rates = [0.0] * n
    remaining = capacity
    # Process flows in ascending cap order; each round gives every unfixed
    # flow an equal share, fixing flows whose cap is below that share.
    if order is None:
        order = sorted(range(n), key=caps.__getitem__)
    unfixed = n
    for idx in order:
        share = remaining / unfixed
        give = min(caps[idx], share)
        rates[idx] = give
        remaining -= give
        unfixed -= 1
    return rates


class FluidCore:
    """The fluid loop every shared-bandwidth resource runs.

    ``flows`` and the rows of ``_tab`` are parallel: row ``i`` holds
    flow ``i``'s authoritative ``remaining`` and ``rate``, then the
    subclass's ``columns``.  A flow event drains the table, hands the
    finished flows to :meth:`_finish`, and (coalesced per timestamp)
    asks :meth:`_assign_rates` for new rates and the next completion.
    """

    def __init__(self, sim: "Simulator", **columns: object) -> None:
        self.sim = sim
        self.flows: List[Any] = []
        self._tab = FlowTable(**columns)
        self._last_advance = sim._now
        self._timer_token = 0
        self._realloc_pending = False
        self.bytes_completed = 0.0

    @property
    def n_active(self) -> int:
        return len(self.flows)

    # -- subclass hooks ----------------------------------------------------
    def _assign_rates(self) -> float:
        """Write every row's rate; return the completion horizon, the
        least ``remaining / rate`` over positive rates, or ``inf``."""
        raise NotImplementedError

    def _finish(self, finished: List[Any]) -> None:
        """Hand off the flows one drain finished, in flow order."""
        raise NotImplementedError

    # -- the loop ----------------------------------------------------------
    def _admit(self, flow: Any) -> int:
        """Bring the table up to date and add ``flow`` at rate 0;
        returns its row, whose further columns the caller stores."""
        self._advance()
        self.flows.append(flow)
        tab = self._tab
        n = tab.add()
        cols = tab.cols
        cols[0][n] = flow.remaining
        cols[1][n] = 0.0
        self._schedule_realloc()
        return n

    def _advance(self) -> None:
        """Apply current rates over the elapsed interval."""
        now = self.sim._now
        dt = now - self._last_advance
        self._last_advance = now
        if dt <= 0 or not self.flows:
            return
        indices = self._tab.drain(dt)
        if not indices:
            return
        flows = self.flows
        finished = [flows[i] for i in indices]
        if len(indices) == len(flows):
            flows.clear()
        else:
            for i in reversed(indices):
                del flows[i]
        for f in finished:
            f.remaining = 0.0
            self.bytes_completed += f.size
        self._finish(finished)

    def _schedule_realloc(self) -> None:
        """Coalesce all same-timestamp flow changes into one allocation.

        Chained transfers complete and immediately issue the next request
        at the same simulated instant; recomputing rates once per instant
        instead of once per change halves the allocator load (and calls
        a pipe's ``capacity_fn`` once, with the settled flow count).
        """
        if self._realloc_pending:
            return
        self._realloc_pending = True
        self.sim.schedule_callback(0.0, self._do_realloc)

    def _do_realloc(self) -> None:
        self._realloc_pending = False
        self._advance()   # collect completions from late same-time changes
        self._reallocate()

    def _reallocate(self) -> None:
        """Reassign rates and reschedule the completion timer."""
        horizon = self._assign_rates()
        self._timer_token += 1
        if horizon < math.inf:
            # Clamp so now+horizon strictly advances the clock even for
            # near-finished flows (otherwise a sub-ULP horizon respins the
            # timer at the same timestamp forever).
            self.sim.schedule_callback(max(horizon, 1e-9), self._on_timer,
                                       self._timer_token)

    def _on_timer(self, token: int) -> None:
        if token != self._timer_token:
            return  # stale timer; a newer reallocation superseded it
        self._advance()
        self._schedule_realloc()


class Flow:
    """One transfer through a :class:`FluidPipe`.

    The pipe's flow table holds its live ``remaining`` and rate; the
    object holds ``remaining`` as of its start and completion.
    ``done`` is the completion target while the flow is in flight: the
    event :meth:`FluidPipe.transfer` returned, or the caller's ``then``
    callback.  It is cleared as it fires, so a finished flow and its
    event form no reference cycle and refcounting frees both
    (DESIGN.md §8, "Garbage-collector cost").
    """

    __slots__ = ("pipe", "size", "remaining", "cap", "done", "started_at",
                 "tag")

    def __init__(self, pipe: "FluidPipe", size: float, cap: float,
                 done: Optional[Target], tag: Any) -> None:
        self.pipe = pipe
        self.size = float(size)
        self.remaining = float(size)
        self.cap = float(cap)
        self.done = done
        self.started_at = pipe.sim._now
        self.tag = tag

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Flow tag={self.tag!r} "
                f"{self.remaining:.0f}/{self.size:.0f}B>")


class FluidPipe(FluidCore):
    """A shared-bandwidth channel with max–min fair sharing.

    Parameters
    ----------
    capacity:
        Aggregate bandwidth in bytes/second (ignored if ``capacity_fn``).
    capacity_fn:
        Optional ``f(n_active_flows) -> bytes_per_second``; re-evaluated at
        every flow event, enabling load-dependent aggregate throughput.
    """

    def __init__(self, sim: "Simulator", capacity: float,
                 name: str = "",
                 capacity_fn: Optional[Callable[[int], float]] = None) -> None:
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity}")
        super().__init__(sim)
        self.name = name
        self._capacity = float(capacity)
        self.capacity_fn = capacity_fn
        # Cached ascending-cap processing order for fair_share, valid
        # while the flow set is unchanged (None = recompute), mirrored
        # into float64/int64 buffers for the C fair-share kernel.
        self._order: Optional[List[int]] = None
        self._caps: List[float] = []
        self._size_order_buffers(self._tab.capacity)

    # -- public API -------------------------------------------------------
    @property
    def capacity(self) -> float:
        if self.capacity_fn is not None:
            return max(0.0, float(self.capacity_fn(len(self.flows))))
        return self._capacity

    def set_capacity(self, capacity: float) -> None:
        """Change the static capacity (takes effect immediately)."""
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity}")
        self._advance()
        self._capacity = float(capacity)
        self._reallocate()

    def poke(self) -> None:
        """Force a rate recomputation (e.g. after external state changed
        the value returned by ``capacity_fn``)."""
        self._advance()
        self._reallocate()

    def transfer(self, nbytes: float, cap: float = math.inf,
                 tag: Any = None,
                 then: Optional[Callable[[], Any]] = None
                 ) -> Optional[Event]:
        """Start a flow of ``nbytes``.

        Returns an event that succeeds with the flow object when the
        last byte has been delivered.  With ``then``, no event is made:
        ``then()`` runs from the entry the event would have pushed (see
        :meth:`Simulator.complete`), and the call returns ``None``.
        """
        if not 0 <= nbytes < math.inf:
            raise ValueError(
                f"transfer size must be finite and >= 0, got {nbytes}")
        if not cap > 0:
            raise ValueError(f"rate cap must be positive, got {cap}")
        done = None
        target = then
        if then is None:
            target = done = Event(self.sim, name=f"xfer:{self.name}")
        if nbytes == 0:
            # Born finished: the flow never holds its own target.
            self.sim.complete(target, Flow(self, nbytes, cap, None, tag))
            return done
        self._admit(Flow(self, nbytes, cap, target, tag))
        self._order = None
        return done

    def transfer_chunked(self, nbytes: float, chunk_bytes: float,
                         then: Optional[Callable[[], Any]] = None
                         ) -> Optional[Event]:
        """:meth:`transfer` ``nbytes`` as a sequence of flows of at most
        ``chunk_bytes``, so a load-dependent ``capacity_fn`` is
        re-evaluated at that granularity.

        One chunk is one plain :meth:`transfer`.  More run in a process,
        which is the returned event; with ``then``, that process's own
        completion calls it and the call returns ``None``.
        """
        if nbytes <= chunk_bytes:
            return self.transfer(nbytes, then=then)

        def io() -> object:
            left = nbytes
            while left > 0:
                step = min(chunk_bytes, left)
                yield self.transfer(step)
                left -= step
            return nbytes

        proc = self.sim.process(io(), name=f"{self.name}.io")
        if then is None:
            return proc
        proc.callbacks.append(lambda _ev: then())
        return None

    # -- FluidCore hooks ---------------------------------------------------
    def _finish(self, finished: List[Flow]) -> None:
        self._order = None
        complete = self.sim.complete
        for f in finished:
            done = f.done
            f.done = None
            complete(done, f)

    def _assign_rates(self) -> float:
        """Max–min fair share over the cached cap order: the fused C
        kernel when it is loaded, else :func:`fair_share`."""
        tab = self._tab
        n = tab.n
        if not n:
            return math.inf
        if self._order is None:
            caps = [f.cap for f in self.flows]
            order = sorted(range(n), key=caps.__getitem__)
            self._caps = caps
            self._order = order
            if self._caps_arr.shape[0] < n:
                self._size_order_buffers(tab.capacity)
            self._caps_arr[:n] = caps
            self._order_arr[:n] = order
        fs = fastdrain.RAW_FAIR
        if fs is not None:
            return fs(self.capacity, n, self._p_caps, self._p_order,
                      *tab.ptrs)
        tab.cols[1][:n] = fair_share(self.capacity, self._caps, self._order)
        return tab.horizon()

    def _size_order_buffers(self, rows: int) -> None:
        self._caps_arr = np.empty(rows)
        self._order_arr = np.empty(rows, dtype=np.int64)
        # Raw addresses cached: ``arr.ctypes.data`` allocates per read.
        self._p_caps = self._caps_arr.ctypes.data
        self._p_order = self._order_arr.ctypes.data
