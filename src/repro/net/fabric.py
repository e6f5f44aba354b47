"""Flow-level network fabric with global max–min fairness.

Every transfer is a fluid flow constrained by three capacities: the
sender's NIC transmit channel, the receiver's NIC receive channel (the
fabric is full duplex, as InfiniBand is), and an optional core/bisection
limit.  Rates are assigned by progressive filling (the classic max–min
algorithm): all unfixed flows grow together; whenever a constraint
saturates — or a flow reaches its own rate cap — the affected flows are
frozen and filling continues with the rest.

This is the standard fidelity level for datacenter-scale simulation:
packets are abstracted away, but contention, fair sharing, stragglers and
incast behaviour are preserved.  Shuffles put thousands of concurrent
flows on the fabric, and a rate recomputation happens at every flow
arrival and departure, so the allocator is the measured hot spot: it
runs as one C kernel call (:mod:`repro.net.fastalloc`, a water-fill
over channel classes), with a vectorised NumPy loop as the fallback
and parity oracle.

:class:`Fabric` is a :class:`~repro.sim.fluid.FluidCore`: the flow
table, its drain and the coalesced reallocation timer are the fluid
core's, shared with every :class:`~repro.sim.fluid.FluidPipe`.  The
fabric supplies the water-fill as its rate assignment and, as its
completion hand-off, the traced ``flow-end`` plus the tail latency.

Hot-path notes (see DESIGN.md §8/§12): the flow table carries
``src``/``dst``/``cap`` after the core's ``remaining``/``rate``, so an
arrival is five element stores and a departure one drain-kernel call.
When the C kernel in :mod:`repro.net.fastalloc` is loaded, a
reallocation is one native call (endpoint compression, water-fill,
completion horizon); the NumPy path is the fallback.  Per-node rates
are not maintained per event: :meth:`Fabric.utilization`, which only
telemetry and tests read, computes them on the first read after a
flow change and caches them until the next one.  The C kernel is held
bit for bit to the NumPy path, and that to a plain progressive-filling
oracle, by ``tests/net/test_fastalloc.py``; whole runs are held to the
captured fingerprints by ``repro bench --check``.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, \
    Tuple

import numpy as np

from repro.net import fastalloc
from repro.sim.events import Event
from repro.sim.fluid import FluidCore, Target

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["Fabric", "NetFlow"]

GB = 1024.0 ** 3
_EPS = 1e-9
#: Above this many fabric nodes the NumPy fallback allocator compresses
#: the channel set to the endpoints that actually carry flows, so a
#: mostly-idle 10,000-node fabric pays O(active), not O(n_nodes), per
#: flow event.  Idle channels are exact no-ops in the water-level loop
#: (head stays at nic_bw: +inf in the unmasked division falls out of the
#: min, count 0 makes the decrement a no-op, and nic_bw never crosses
#: the 1e-7*nic_bw saturation tolerance), so dropping them is
#: bit-identical — below the threshold the dense NumPy form is cheaper.
#: The C kernel compresses at every fabric size.
_COMPACT_NODES = 256


class NetFlow:
    """One transfer in flight through the fabric.

    A thin view over the fabric's columnar flow state: the authoritative
    ``remaining`` and rate live in the arrays; the object mirrors
    ``remaining`` at its start and completion and carries the
    completion target and tag.  It holds no rate (mirroring one per
    reallocation would be an O(flows) Python loop per flow event); read
    ``Fabric._tab.col("rate")`` for live rates.
    ``done`` is the completion target (the returned event or the
    caller's ``then``); it is cleared as it fires, so the event, whose
    value is this flow, is not reachable from it (DESIGN.md §8,
    "Garbage-collector cost").
    """

    __slots__ = ("src", "dst", "size", "remaining", "cap", "done",
                 "started_at", "tag", "fid")

    def __init__(self, src: int, dst: int, size: float, cap: float,
                 done: Optional[Target], started_at: float,
                 tag: Any) -> None:
        self.src = src
        self.dst = dst
        self.size = float(size)
        self.remaining = float(size)
        self.cap = float(cap)
        self.done = done
        self.started_at = started_at
        self.tag = tag
        #: Fabric-assigned flow id, stable for the flow's lifetime —
        #: correlates flow-start/flow-end trace events (async spans in
        #: the Chrome-trace export).
        self.fid = 0

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<NetFlow {self.src}->{self.dst} "
                f"{self.remaining:.0f}/{self.size:.0f}B>")


class Fabric(FluidCore):
    """An ``n_nodes`` fabric with per-NIC tx/rx capacities.

    Parameters
    ----------
    nic_bw:
        Per-direction NIC bandwidth in bytes/second (IB QDR ≈ 4 GB/s).
    bisection_bw:
        Optional aggregate core capacity; ``None`` means non-blocking.
    latency:
        One-way propagation + software latency added to every transfer.
    """

    def __init__(self, sim: "Simulator", n_nodes: int,
                 nic_bw: float = 4.0 * GB,
                 bisection_bw: Optional[float] = None,
                 latency: float = 20e-6,
                 small_flow_bytes: float = 64 * 1024.0) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if nic_bw <= 0:
            raise ValueError("nic_bw must be positive")
        super().__init__(sim, src=np.int64, dst=np.int64, cap=np.float64)
        self.n_nodes = n_nodes
        self.nic_bw = float(nic_bw)
        self.bisection_bw = bisection_bw
        self.latency = float(latency)
        #: Transfers at or below this size skip the fluid allocator and
        #: complete after latency + line-rate serialisation: they carry
        #: negligible load but would otherwise trigger a global rate
        #: recomputation each (control messages, tiny shuffle slices).
        self.small_flow_bytes = float(small_flow_bytes)
        # Per-node (tx, rx) rates as of the last flow change, or None
        # until ``utilization`` is read again after one.
        self._node_rates: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # C-kernel state: per-channel id stamps (all -1 between calls),
        # the bisection limit as plain arguments, and scratch that grows
        # with the flow table (its data addresses cached, like the
        # table's own).
        self._ids = np.full(2 * n_nodes, -1, dtype=np.int64)
        self._p_ids = self._ids.ctypes.data
        self._core_bw = 0.0 if bisection_bw is None else float(bisection_bw)
        self._has_core = 0 if bisection_bw is None else 1
        self._size_scratch()
        # NumPy-fallback scratch over the 2*n_nodes NIC channels (tx
        # slots 0..n-1, rx slots n..2n-1), reused across reallocations
        # so the per-round cost is ufunc dispatch, not allocation.
        # On giant fabrics (> _COMPACT_NODES) the allocator runs over the
        # compressed active-endpoint set, so scratch starts small and
        # grows to the observed active width instead of 2 * n_nodes.
        width = 2 * n_nodes if n_nodes <= _COMPACT_NODES else 64
        self._ab_heads = np.empty(width)
        self._ab_q = np.empty(width)
        self._ab_tmp = np.empty(width)
        self._ab_sat = np.empty(width, dtype=bool)
        self._ab_ones = np.ones(64)
        # Compression scratch (giant fabrics): a node-presence bitmap
        # plus an old-id -> compressed-id lookup table.  flatnonzero on
        # the bitmap yields the same ascending unique endpoint set as
        # np.unique over src+dst, and table lookup the same positions as
        # searchsorted, in O(n + m) with no sorting — at shuffle scale
        # (thousands of flows) the sort was costlier than the allocator.
        if n_nodes > _COMPACT_NODES:
            self._present = np.zeros(n_nodes, dtype=bool)
            self._inv = np.empty(n_nodes, dtype=np.int64)
            self._iota = np.arange(n_nodes, dtype=np.int64)
        self._flow_seq = 0

    # -- public API -----------------------------------------------------------
    def transfer(self, src: int, dst: int, nbytes: float,
                 cap: float = math.inf, tag: Any = None,
                 then: Optional[Callable[[], Any]] = None
                 ) -> Optional[Event]:
        """Move ``nbytes`` from node ``src`` to node ``dst``.

        Returns an event succeeding with the :class:`NetFlow` when the
        last byte (plus propagation latency) has arrived.  A loopback
        transfer (``src == dst``) completes after latency only — intra-node
        moves cost memory bandwidth, modelled elsewhere.  With ``then``,
        no event is made: ``then()`` runs from the entry the event would
        have pushed (see :meth:`Simulator.complete`), and the call
        returns ``None``.
        """
        for n in (src, dst):
            # operator.index admits int and NumPy integers (HDFS replica
            # ids are np.int64) but not 1.5, which the int64 flow table
            # would silently truncate.  The caller's value is kept as
            # given, so traces and flow objects print it unchanged.
            try:
                i = operator.index(n)
            except TypeError:
                raise TypeError(
                    f"node id must be an integer, got {n!r}") from None
            if not 0 <= i < self.n_nodes:
                raise ValueError(f"node {n} outside fabric of {self.n_nodes}")
        if not 0 <= nbytes < math.inf:
            raise ValueError(
                f"transfer size must be finite and >= 0, got {nbytes}")
        if not cap > 0:
            raise ValueError(f"rate cap must be positive, got {cap}")
        done = None
        target = then
        if then is None:
            target = done = Event(self.sim, name=f"net:{src}->{dst}")
        flow = NetFlow(src, dst, nbytes, cap, target, self.sim.now, tag)
        self._flow_seq += 1
        flow.fid = self._flow_seq
        if src == dst or nbytes <= self.small_flow_bytes:
            wire = 0.0 if src == dst else nbytes / min(self.nic_bw, cap)
            self.sim.schedule_callback(self.latency + wire,
                                       self._finish_direct, flow)
            return done
        # Direct (loopback / tiny) transfers above are deliberately not
        # traced: they are control-message noise at shuffle scale.
        if self.sim._tracing:
            self.sim.trace("flow-start", fid=flow.fid, src=src, dst=dst,
                           nbytes=nbytes)
        n = self._admit(flow)
        tab = self._tab
        _, _, tab_src, tab_dst, tab_cap = tab.cols
        tab_src[n] = src
        tab_dst[n] = dst
        tab_cap[n] = flow.cap
        if tab.capacity != self._scratch_rows:
            self._size_scratch()
        self._node_rates = None
        return done

    def _size_scratch(self) -> None:
        """(Re)allocate the water-fill kernel's scratch for the table's
        capacity."""
        rows = self._tab.capacity
        if rows >= 2 ** 31:
            raise ValueError(
                f"flow table capacity {rows} exceeds the water-fill "
                f"kernel's 32-bit indices")
        self._scratch_rows = rows
        self._iw = np.empty(fastalloc.INT_SCRATCH * rows, dtype=np.uint32)
        self._dw = np.empty(fastalloc.DOUBLE_SCRATCH * rows)
        self._p_iw = self._iw.ctypes.data
        self._p_dw = self._dw.ctypes.data

    def _finish_direct(self, flow: NetFlow) -> None:
        flow.remaining = 0.0
        self.bytes_completed += flow.size
        self._deliver(flow)

    def _deliver(self, flow: NetFlow) -> None:
        """Fire ``flow``'s completion target, once its tail latency has
        passed: one NORMAL entry, as ``Event.succeed`` pushes."""
        done = flow.done
        flow.done = None
        self.sim.complete(done, flow)

    def utilization(self, node: int) -> Dict[str, float]:
        """Current tx/rx byte rates at ``node``.

        The first read after a flow change runs one weighted bincount
        per direction over the whole flow table (sums in flow order)
        and caches the per-node rates until the next change, so the
        flow events themselves maintain nothing for this read.
        """
        rates = self._node_rates
        if rates is None:
            tab = self._tab
            r = tab.col("rate")
            rates = self._node_rates = (
                np.bincount(tab.col("src"), weights=r,
                            minlength=self.n_nodes),
                np.bincount(tab.col("dst"), weights=r,
                            minlength=self.n_nodes))
        return {"tx": float(rates[0][node]), "rx": float(rates[1][node])}

    # -- FluidCore hooks ------------------------------------------------------
    def _finish(self, finished: List[NetFlow]) -> None:
        """Trace each ``flow-end`` and deliver it after the tail latency
        (the last byte still has to propagate).  Completion entries
        enqueue in flow order, so same-timestamp downstream scheduling
        keeps arrival order."""
        self._node_rates = None
        schedule = self.sim.schedule_callback
        deliver = self._deliver
        latency = self.latency
        tracing = self.sim._tracing
        for f in finished:
            if tracing:
                self.sim.trace("flow-end", fid=f.fid, src=f.src, dst=f.dst,
                               nbytes=f.size)
            schedule(latency, deliver, f)

    def _assign_rates(self) -> float:
        """Progressive-filling max–min allocation: the C kernel when it
        is loaded, else :meth:`_assign_rates_fast`.

        Returns the completion horizon: the least ``remaining / rate``
        over flows with a positive rate, or ``inf`` when none drains.
        """
        self._node_rates = None
        tab = self._tab
        if tab.n == 0:
            return math.inf
        if fastalloc.AVAILABLE:
            return fastalloc.RAW_REALLOC(
                tab.n, self.n_nodes, *tab.ptrs, self.nic_bw, self._core_bw,
                self._has_core, self._p_ids, self._p_iw, self._p_dw)
        self._assign_rates_fast()
        return tab.horizon()

    def _assign_rates_fast(self) -> None:
        """Progressive-filling max–min allocation (NumPy fallback).

        Every round raises all unfixed flows' rates by one increment:
        the least of each used NIC direction's headroom over its count
        of unfixed flows, the core's headroom over the unfixed count,
        and the smallest margin of an unfixed flow to its own cap (an
        increment that is not finite, or is negative, counts as 0).
        Each headroom then drops by the increment times its unfixed
        count.  A flow freezes when its cap margin is at most
        ``1e-7 * cap + 1e-12``, or when the headroom of its source's tx
        or its destination's rx is at most ``1e-7 * nic_bw``; every
        flow freezes when the core's headroom is at most
        ``1e-7 * bisection_bw``.  A round that freezes nothing ends the
        loop with the rest at their current rate.  Each round saturates
        a channel, the core or a cap level, so the rounds are bounded
        by the number of distinct binding constraints.

        Three exact identities keep each round to ~a dozen ufunc
        dispatches on shrinking arrays:

        * Every unfixed flow has received the identical sequence of
          increments, so per-flow rates collapse to one scalar
          ``level`` (the fold ``((0 + inc_1) + inc_2) + ...`` that an
          elementwise ``rates[active] += inc`` performs); a flow's
          final rate is the level at its freeze round.
        * tx and rx NIC channels live in one ``2 * n_nodes`` array
          (rx slots offset by ``n_nodes``): one bincount and one
          division replace the per-direction pairs, and the min over
          the union equals the min of the per-direction mins bitwise.
        * Frozen flows are compacted out of the working set each round;
          bincount and min are order-independent at the bit level, so
          compression cannot perturb any intermediate value.

        Rates are scattered back to flow positions through ``idx``.
        When the optional C kernel (:mod:`repro.net.fastalloc`) is
        loaded, the same arithmetic runs in one native call per
        reallocation, with the same bits.
        """
        tab = self._tab
        src = tab.col("src")
        dst = tab.col("dst")
        if self.n_nodes > _COMPACT_NODES:
            # Compress the channel set to the endpoints actually carrying
            # flows (bit-identical: see _COMPACT_NODES), so the loop
            # allocates and iterates over O(active) channels.
            u, cs, cd = self._compress_endpoints(src, dst)
            n_ch = u.size
        else:
            cs, cd, n_ch = src, dst, self.n_nodes
        tab.col("rate")[:] = self._assign_rates_numpy(n_ch, cs, cd)

    def _compress_endpoints(self, src: np.ndarray, dst: np.ndarray):
        """Active endpoint set + compressed flow indices, in O(n + m)
        (NumPy fallback on fabrics above :data:`_COMPACT_NODES`)."""
        present = self._present
        present[src] = True
        present[dst] = True
        u = np.flatnonzero(present)
        present[u] = False  # reset scratch for the next call
        inv = self._inv
        inv[u] = self._iota[:u.size]
        return u, inv[src], inv[dst]

    def _assign_rates_numpy(self, n: int, src: np.ndarray,
                            dst: np.ndarray) -> np.ndarray:
        """Pure-NumPy fast allocator (see :meth:`_assign_rates_fast`).

        ``n`` is the channel-set node count and ``src``/``dst`` index
        into it — the full fabric below :data:`_COMPACT_NODES`, the
        compressed active-endpoint set above it.
        """
        tab = self._tab
        m = tab.n
        caps = tab.col("cap")
        nn2 = 2 * n
        if self._ab_heads.size < nn2:
            self._ab_heads = np.empty(nn2)
            self._ab_q = np.empty(nn2)
            self._ab_tmp = np.empty(nn2)
            self._ab_sat = np.empty(nn2, dtype=bool)
        heads = self._ab_heads[:nn2]
        heads[:] = self.nic_bw
        q = self._ab_q[:nn2]
        tmp = self._ab_tmp[:nn2]
        sat = self._ab_sat[:nn2]
        ones = self._ab_ones
        if ones.size < 2 * m:
            self._ab_ones = ones = np.ones(max(2 * m, 2 * ones.size))
        # Endpoint matrix: row 0 = tx slot (src), row 1 = rx slot (dst+n).
        ep = np.empty((2, m), dtype=np.int64)
        ep[0] = src
        np.add(dst, n, out=ep[1])
        idx = np.arange(m)
        out = np.empty(m)
        level = 0.0
        core_head = self.bisection_bw
        nic_tol = 1e-7 * self.nic_bw
        finite_cap = np.isfinite(caps)
        has_caps = bool(finite_cap.any())
        if has_caps:
            c = caps.copy()
            ctol = np.where(finite_cap, 1e-7 * caps + 1e-12, 0.0)
            fin = finite_cap.copy()
        # Hoisted ufuncs: the loop runs ~a dozen times per reallocation
        # and its cost is dispatch, not data.
        bincount = np.bincount
        divide = np.divide
        multiply = np.multiply
        subtract = np.subtract
        less_equal = np.less_equal
        minreduce = np.minimum.reduce
        count_nonzero = np.count_nonzero
        isfinite = math.isfinite
        inf = np.inf
        # Plain (unmasked) division: idle channels have head=nic_bw>0 and
        # count 0, giving +inf; saturated channels are parked at
        # head=+inf below, also giving +inf — both fall out of the min
        # exactly as if unused channels were masked out.
        old_err = np.seterr(divide="ignore")
        try:
            while True:
                m_cur = ep.shape[1]
                # Weighted bincount returns float64 directly: exact
                # integer counts without a per-round int->float cast.
                cnt = bincount(ep.ravel(), ones[:2 * m_cur], nn2)
                divide(heads, cnt, out=q)
                inc = float(minreduce(q))
                if core_head is not None:
                    inc = min(inc, core_head / m_cur)
                if has_caps:
                    inc = min(inc, float(minreduce(c - level)))
                if not isfinite(inc) or inc < 0:
                    inc = 0.0
                level += inc
                multiply(cnt, inc, out=tmp)
                subtract(heads, tmp, out=heads)
                if core_head is not None:
                    core_head -= inc * m_cur
                # Channels saturating *this* round: parked channels sit at
                # +inf and idle ones at nic_bw, so only live crossings
                # match — and an already-saturated channel has no active
                # flows left to freeze, making fresh == newly-freezing.
                less_equal(heads, nic_tol, out=sat)
                if core_head is not None and \
                        core_head <= 1e-7 * (self.bisection_bw or 1.0):
                    fr = np.ones(m_cur, dtype=bool)
                else:
                    fr = None
                    if has_caps:
                        # Post-increment margins: ``cap - rate`` after
                        # this round's increment.
                        fr = (c - level) <= ctol
                        fr &= fin
                    if sat.any():
                        heads[sat] = inf
                        g = sat[ep]
                        if fr is None:
                            fr = g[0] | g[1]
                        else:
                            fr |= g[0]
                            fr |= g[1]
                    if fr is None:
                        break  # no progress possible: freeze rest as-is
                nf = count_nonzero(fr)
                if nf == 0:
                    break  # no progress possible: freeze rest as-is
                out[idx[fr]] = level
                if nf == m_cur:
                    idx = idx[:0]
                    break
                keep = ~fr
                ep = ep[:, keep]
                idx = idx[keep]
                if has_caps:
                    c = c[keep]
                    ctol = ctol[keep]
                    fin = fin[keep]
        finally:
            np.seterr(**old_err)
        if idx.size:
            out[idx] = level
        return out
