"""The columnar flow table every fluid resource drains.

A :class:`FlowTable` holds same-length NumPy columns (one row per live
flow) behind a live-length cursor.  The first two columns are always
``remaining`` and ``rate`` (float64); a resource declares any others
(8-byte int64 or float64 words).  Adding a row is O(1) amortized —
storage doubles when full instead of reallocating every column on
every arrival (``np.append`` copies the whole array, which turns a
shuffle wave's O(n) arrivals into O(n²) work).

:meth:`FlowTable.drain` is the one drain of the fluid core: it
advances ``remaining`` by ``rate * dt``, collects the rows that
finished and compacts the survivors in place, in one call of the C
kernel in :mod:`repro.sim.fastdrain` or, without it, as
``remaining -= rate * dt`` plus :meth:`FlowTable.remove`.  The two are
bit for bit interchangeable (``tests/sim/test_fastdrain.py``).

Compaction is **order-preserving** by design, not swap-removal: the
simulation's determinism contract schedules completion events in flow
order, and two flows finishing at the same timestamp must enqueue
their events in flow order, or downstream same-timestamp scheduling
decisions diverge.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sim import fastdrain

__all__ = ["FlowTable"]

_MIN_CAPACITY = 16


class FlowTable:
    """Parallel preallocated columns with a live-length cursor.

    Parameters
    ----------
    columns:
        ``name=dtype`` pairs declaring the columns after ``remaining``
        and ``rate``; each dtype must be 8 bytes wide.

    Attributes
    ----------
    cols:
        Every column's full-capacity storage, in declaration order
        (``remaining``, ``rate``, then the declared ones).  A writer
        reserves a row with :meth:`add` and then stores into these
        arrays directly; a stored reference is stale after the next
        :meth:`add` that grows the table.
    ptrs:
        Raw data addresses of :attr:`cols`, for native kernels.
    """

    __slots__ = ("n", "capacity", "cols", "ptrs", "_index", "_fin",
                 "_addrs", "_p_addrs", "_p_fin")

    def __init__(self, **columns: object) -> None:
        if "remaining" in columns or "rate" in columns:
            raise ValueError("remaining and rate are always the first "
                             "two columns")
        dtypes = [np.dtype(np.float64)] * 2 + [np.dtype(d) for d in
                                               columns.values()]
        if any(d.itemsize != 8 for d in dtypes):
            raise ValueError("every FlowTable column must be 8 bytes wide")
        self._index = {name: i for i, name in
                       enumerate(("remaining", "rate", *columns))}
        self.n = 0
        self.capacity = _MIN_CAPACITY
        self.cols = tuple(np.empty(_MIN_CAPACITY, dtype=d) for d in dtypes)
        self._fin = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._refresh_ptrs()

    def col(self, name: str) -> np.ndarray:
        """Live view of one column (no copy; length == ``n``)."""
        return self.cols[self._index[name]][:self.n]

    def add(self) -> int:
        """Reserve the next row and return its index."""
        n = self.n
        if n == self.capacity:
            self._grow()
        self.n = n + 1
        return n

    def _grow(self) -> None:
        capacity = self.capacity * 2
        n = self.n
        cols = []
        for arr in self.cols:
            bigger = np.empty(capacity, dtype=arr.dtype)
            bigger[:n] = arr[:n]
            cols.append(bigger)
        self.cols = tuple(cols)
        # The finished-index buffer is refilled by every drain.
        self._fin = np.empty(capacity, dtype=np.int64)
        self.capacity = capacity
        self._refresh_ptrs()

    def _refresh_ptrs(self) -> None:
        # Storage moves only when it grows, so the addresses are
        # refreshed here and a kernel call does no ``.ctypes`` lookup.
        self.ptrs = tuple(arr.ctypes.data for arr in self.cols)
        self._addrs = np.array(self.ptrs, dtype=np.uintp)
        self._p_addrs = self._addrs.ctypes.data
        self._p_fin = self._fin.ctypes.data

    def drain(self, dt: float) -> Sequence[int]:
        """Advance every row by ``dt`` and remove the finished ones
        (``remaining <= 1e-6``); returns their pre-removal indices in
        ascending order."""
        n = self.n
        kernel = fastdrain.RAW_DRAIN
        if kernel is not None:
            k = kernel(n, dt, len(self.cols), self._p_addrs, self._p_fin)
            if not k:
                return ()
            self.n = n - k
            return self._fin[:k].tolist()
        remaining = self.cols[0][:n]
        remaining -= self.cols[1][:n] * dt
        finished = np.flatnonzero(remaining <= 1e-6)
        if not finished.size:
            return ()
        self.remove(finished)
        return finished.tolist()

    def remove(self, indices: np.ndarray) -> None:
        """Remove the rows at ``indices`` (sorted ascending, unique),
        preserving the relative order of the survivors."""
        k = len(indices)
        if k == 0:
            return
        n = self.n
        if k == n:
            self.n = 0
            return
        keep = np.ones(n, dtype=bool)
        keep[indices] = False
        survivors = np.flatnonzero(keep)
        m = n - k
        for arr in self.cols:
            # Fancy indexing materializes the gather before the write,
            # so the overlapping in-place assignment is safe.
            arr[:m] = arr[:n][survivors]
        self.n = m

    def horizon(self) -> float:
        """Least ``remaining / rate`` over rows with a positive rate, or
        ``inf`` when none drains."""
        rate = self.cols[1][:self.n]
        positive = rate > 0
        if not positive.any():
            return float("inf")
        return float((self.cols[0][:self.n][positive]
                      / rate[positive]).min())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FlowTable {self.n}/{self.capacity} rows, "
                f"cols={list(self._index)}>")
