"""Amortized parallel column arrays for fluid-flow bookkeeping.

A :class:`FlowTable` holds a set of same-length NumPy columns (one row
per live flow) behind a live-length cursor.  Appending a row is O(1)
amortized — storage doubles when full instead of reallocating every
column on every arrival (``np.append`` copies the whole array, which
turns a shuffle wave's O(n) arrivals into O(n²) work).  Removing
finished rows compacts the storage in place.

Compaction is **order-preserving** by design, not swap-removal: the
simulation's determinism contract schedules completion events in flow
order, and two flows finishing at the same timestamp must enqueue
their events in flow order, or downstream same-timestamp scheduling
decisions diverge.  A stable compaction keeps survivor order identical
to a boolean-mask rebuild's while still avoiding per-arrival
reallocation and per-completion full-array copies of every column.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = ["FlowTable"]

_MIN_CAPACITY = 16


class FlowTable:
    """Parallel preallocated columns with a live-length cursor.

    Parameters
    ----------
    columns:
        ``name=dtype`` pairs declaring the columns.  Append order is the
        declaration order.

    Attributes
    ----------
    ptrs:
        Raw data addresses of every column, in declaration order, for
        native kernels that compact the table in place (they then set
        :attr:`n` to the survivor count).  Valid until the next append
        that grows the storage.
    """

    __slots__ = ("n", "_capacity", "_names", "_cols", "ptrs")

    def __init__(self, **columns: object) -> None:
        if not columns:
            raise ValueError("a FlowTable needs at least one column")
        self.n = 0
        self._capacity = _MIN_CAPACITY
        self._names: Tuple[str, ...] = tuple(columns)
        self._cols: Dict[str, np.ndarray] = {
            name: np.empty(self._capacity, dtype=dtype)
            for name, dtype in columns.items()
        }
        self._refresh_ptrs()

    def __len__(self) -> int:
        return self.n

    @property
    def capacity(self) -> int:
        """Allocated rows (always >= the live count)."""
        return self._capacity

    def col(self, name: str) -> np.ndarray:
        """Live view of one column (no copy; length == ``len(self)``)."""
        return self._cols[name][:self.n]

    def columns(self) -> Tuple[np.ndarray, ...]:
        """Live views of every column, in declaration order."""
        n = self.n
        return tuple(self._cols[name][:n] for name in self._names)

    def append(self, *values: float) -> int:
        """Append one row (values in declaration order); returns its index."""
        if len(values) != len(self._names):
            raise ValueError(
                f"expected {len(self._names)} values, got {len(values)}")
        n = self.n
        if n == self._capacity:
            self._grow()
        cols = self._cols
        for name, value in zip(self._names, values):
            cols[name][n] = value
        self.n = n + 1
        return n

    def _grow(self) -> None:
        new_capacity = self._capacity * 2
        n = self.n
        for name, arr in self._cols.items():
            bigger = np.empty(new_capacity, dtype=arr.dtype)
            bigger[:n] = arr[:n]
            self._cols[name] = bigger
        self._capacity = new_capacity
        self._refresh_ptrs()

    def _refresh_ptrs(self) -> None:
        # Storage moves only when it grows, so the addresses are
        # refreshed here and a kernel call does no ``.ctypes`` lookup.
        self.ptrs = tuple(self._cols[name].ctypes.data
                          for name in self._names)

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
        for arr in self._cols.values():
            # Fancy indexing materializes the gather before the write,
            # so the overlapping in-place assignment is safe.
            arr[:m] = arr[:n][survivors]
        self.n = m

    def clear(self) -> None:
        """Drop every row (storage is retained)."""
        self.n = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FlowTable {self.n}/{self._capacity} rows, "
                f"cols={list(self._names)}>")
