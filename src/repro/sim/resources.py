"""Queueing primitives: Resource, Container, Store.

These follow SimPy semantics closely:

* :class:`Resource` — ``capacity`` identical slots; ``request()`` returns
  an event that succeeds when a slot is granted, ``release(req)`` frees it.
* :class:`Container` — a continuous quantity with ``put(amount)`` /
  ``get(amount)``.
* :class:`Store` — a FIFO of discrete items with ``put(item)`` / ``get()``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional

from repro.sim.events import _PENDING, URGENT, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["Resource", "Container", "Store", "Request"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot.

    Usable as a context manager so that the slot is always released::

        with resource.request() as req:
            yield req
            ... hold the slot ...
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim, name=f"req:{resource.name}")
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request from the queue."""
        self.resource._cancel(self)


class Resource:
    """``capacity`` identical slots with a FIFO wait queue."""

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        req = Request(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed(priority=URGENT)
        else:
            self.queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Free a slot.  Releasing an ungranted request cancels it instead."""
        try:
            self.users.remove(request)
        except ValueError:
            self._cancel(request)
            return
        self._grant_next()

    def _cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            if nxt._value is not _PENDING:  # skip zombie requests
                continue
            self.users.append(nxt)
            nxt.succeed(priority=URGENT)


class Container:
    """A continuous quantity (e.g. bytes of buffer space)."""

    def __init__(self, sim: "Simulator", capacity: float = float("inf"),
                 init: float = 0.0, name: str = "") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if not 0 <= init <= capacity:
            raise ValueError(f"init {init} outside [0, {capacity}]")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._level = float(init)
        self._putters: Deque[tuple] = deque()  # (amount, event)
        self._getters: Deque[tuple] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError(f"cannot put negative amount {amount}")
        ev = Event(self.sim, name=f"put:{self.name}")
        self._putters.append((amount, ev))
        self._settle()
        return ev

    def get(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError(f"cannot get negative amount {amount}")
        if amount > self.capacity:
            raise ValueError(f"get {amount} exceeds capacity {self.capacity}")
        ev = Event(self.sim, name=f"get:{self.name}")
        self._getters.append((amount, ev))
        self._settle()
        return ev

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                amount, ev = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    ev.succeed(priority=URGENT)
                    progressed = True
            if self._getters:
                amount, ev = self._getters[0]
                if amount <= self._level:
                    self._getters.popleft()
                    self._level -= amount
                    ev.succeed(priority=URGENT)
                    progressed = True


class Store:
    """A FIFO of discrete items with optional capacity."""

    def __init__(self, sim: "Simulator", capacity: float = float("inf"),
                 name: str = "") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        self._putters: Deque[tuple] = deque()  # (item, event)
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        ev = Event(self.sim, name=f"put:{self.name}")
        self._putters.append((item, ev))
        self._settle()
        return ev

    def get(self) -> Event:
        ev = Event(self.sim, name=f"get:{self.name}")
        self._getters.append(ev)
        self._settle()
        return ev

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters and len(self.items) < self.capacity:
                item, ev = self._putters.popleft()
                self.items.append(item)
                ev.succeed(priority=URGENT)
                progressed = True
            if self._getters and self.items:
                ev = self._getters.popleft()
                ev.succeed(self.items.popleft(), priority=URGENT)
                progressed = True
