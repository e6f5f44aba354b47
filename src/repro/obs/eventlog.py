"""The run log's event store: append-only, one packed table per shape.

A run log is a long sequence of small ``(t, kind, payload)`` records,
and most of them share a few shapes: a ``flow-start`` always carries the
same four numbers.  :class:`EventLog` keeps one :class:`_Table` per
payload *shape*, keyed by the kind, the payload's field names in order
and the exact type of each value:

* ``float``, ``int`` (within int64) and ``bool`` fields of a row are
  packed together into the table's ``bytearray`` by one
  :class:`struct.Struct` (``d``, ``q``, ``?``), so a number costs 8
  bytes (a bool 1) instead of a boxed object plus a dict slot;
* every other value (strings, ``None``, lists such as ``offer``'s
  ``free_slots``, a ``block-end``'s ``times`` array, NumPy scalars) is
  kept by reference in the table's object list;
* the global order is the event times in an ``array('d')`` plus each
  event's table id in an ``array('I')``; an event's row within its
  table is its rank among that table's events, so no row index is kept.

Iteration yields ``(t, kind, payload)`` with a fresh payload dict per
event, in the original key order and with each value's exact type:
``True`` stays ``True`` because bools have their own table, a field
that changes type starts a new table, and an int outside int64 sends
its whole row to an all-object table.  Only the time becomes a
``float``.  :meth:`EventLog.select` walks the same order but builds the
payloads of the chosen kinds only.

Appending an event with atomic payload values creates no object the
cyclic collector tracks: the packed row is bytes, and what the object
list references is a string, ``None`` or a number (DESIGN.md §8).
"""

from __future__ import annotations

import struct
from array import array
from itertools import compress, islice, repeat
from operator import add, itemgetter
from typing import (Any, Collection, Dict, Iterator, List, Mapping,
                    Optional, Tuple)

__all__ = ["EventLog"]

#: Exact value type -> its packed ``struct`` code.
_CODES = {float: "d", int: "q", bool: "?"}

Record = Tuple[float, str, Dict[str, Any]]


class _Table:
    """The rows of one payload shape: packed numbers plus object refs.

    ``types`` None makes every field an object field (the table of rows
    whose ints do not fit int64)."""

    __slots__ = ("sid", "kind", "keys", "width", "size", "packed",
                 "objects", "add", "_unpack", "_order", "_pos")

    def __init__(self, sid: int, kind: str, keys: Tuple[str, ...],
                 types: Optional[Tuple[type, ...]]) -> None:
        self.sid = sid
        self.kind = kind
        self.keys = keys
        codes = ([_CODES.get(tp) for tp in types] if types is not None
                 else [None] * len(keys))
        packed = [i for i, c in enumerate(codes) if c]
        boxed = [i for i, c in enumerate(codes) if not c]
        # An empty payload packs one pad byte, so that its rows count.
        st = struct.Struct("=" + ("".join(codes[i] for i in packed)
                                  if keys else "x"))
        pack = st.pack
        self.width = len(boxed)
        self.size = st.size
        self.packed = bytearray()
        self.objects: List[Any] = []
        self._unpack = st.iter_unpack
        #: Each key's index in (packed values + object values).
        self._pos = tuple(map((packed + boxed).index, range(len(keys))))
        #: (packed values + object values) -> values in key order.
        self._order = (itemgetter(*self._pos)
                       if packed and boxed else None)

        def store(row: bytes) -> None:
            try:
                self.packed += row
            except BufferError:
                # An unfinished iteration holds the buffer: leave it
                # that snapshot and grow a copy.
                self.packed = self.packed + row

        if not boxed:
            def add_row(vals: Tuple[Any, ...]) -> None:
                store(pack(*vals))
        elif not packed:
            def add_row(vals: Tuple[Any, ...]) -> None:
                self.objects += vals
        else:
            split = itemgetter(*packed, *boxed)
            n = len(packed)

            def add_row(vals: Tuple[Any, ...]) -> None:
                vals = split(vals)
                store(pack(*vals[:n]))
                self.objects += vals[n:]
        self.add = add_row

    def __len__(self) -> int:
        if self.size:
            return len(self.packed) // self.size
        return len(self.objects) // self.width

    def column(self, key: str) -> Iterator[Any]:
        """The values of field ``key``, in row order, building no
        payload."""
        pos = self._pos[self.keys.index(key)]
        n_packed = len(self._pos) - self.width
        if pos < n_packed:
            return map(itemgetter(pos), self._unpack(self.packed))
        return islice(self.objects, pos - n_packed, None, self.width)

    def payloads(self) -> Iterator[Dict[str, Any]]:
        """A fresh payload dict per row, in row order: the caller draws
        one per event of this table."""
        if self.size:
            vals = self._unpack(self.packed)
            if self.width:
                boxed = zip(*[iter(self.objects)] * self.width)
                vals = map(self._order, map(add, vals, boxed))
        else:
            vals = zip(*[iter(self.objects)] * self.width)
        return map(dict, map(zip, repeat(self.keys), vals))


class EventLog:
    """Append-only columnar store of ``(t, kind, payload)`` records.

    Iterating yields the records in append order; :meth:`select` yields
    those of some kinds only.  ``len`` is the number of records.  The
    payload dicts are built per iteration, so a reader may keep or
    change them without touching the store."""

    def __init__(self) -> None:
        #: Each record's time, in append order.
        self.times = array("d")
        #: Each record's table id, in append order.
        self._ids = array("I")
        self._tables: List[_Table] = []
        self._index: Dict[tuple, _Table] = {}

    def append(self, t: float, kind: str,
               payload: Mapping[str, Any]) -> None:
        """Record one event; ``payload``'s values are copied into the
        store (objects by reference) and the mapping itself is not
        kept."""
        vals = tuple(payload.values())
        key = (kind, *payload, *map(type, vals))
        table = self._index.get(key)
        if table is None:
            table = self._table(key, kind, tuple(payload),
                                tuple(map(type, vals)))
        try:
            table.add(vals)
        except struct.error:  # an int beyond int64: box the whole row
            keys = tuple(payload)
            table = self._table((None, kind, *keys), kind, keys, None)
            table.add(vals)
        self.times.append(t)
        self._ids.append(table.sid)

    def _table(self, key: tuple, kind: str, keys: Tuple[str, ...],
               types: Optional[Tuple[type, ...]]) -> _Table:
        table = self._index.get(key)
        if table is None:
            table = _Table(len(self._tables), kind, keys, types)
            self._tables.append(table)
            self._index[key] = table
        return table

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Record]:
        return self._records(None)

    def select(self, kinds: Collection[str],
               prefixes: Tuple[str, ...] = ()) -> Iterator[Record]:
        """The records whose kind is in ``kinds`` or starts with one of
        ``prefixes``, in append order; no payload of another kind is
        built."""
        return self._records(
            {tb.sid for tb in self._tables
             if tb.kind in kinds or tb.kind.startswith(prefixes)})

    def count(self, kind: str) -> int:
        """The number of records of ``kind``."""
        return sum(len(tb) for tb in self._tables if tb.kind == kind)

    def field_values(self, key: str) -> Iterator[Any]:
        """The value of field ``key`` of every record that has one,
        table by table (not in append order); no payload is built."""
        for tb in self._tables:
            if key in tb.keys:
                yield from tb.column(key)

    def _records(self, wanted: Optional[set]) -> Iterator[Record]:
        tables = self._tables
        kinds = [tb.kind for tb in tables]
        draw = [tb.payloads().__next__
                if wanted is None or tb.sid in wanted else None
                for tb in tables]
        # Bound by the length now, so a record appended meanwhile is
        # not drawn from a table snapshot that lacks it.
        events = islice(zip(self.times, self._ids), len(self.times))
        if wanted is not None:
            events = compress(events, map(wanted.__contains__, self._ids))
        for t, sid in events:
            yield t, kinds[sid], draw[sid]()
