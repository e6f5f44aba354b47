"""Queueing primitive: :class:`Resource`.

It follows SimPy semantics closely: ``capacity`` identical slots;
``request()`` returns an event that succeeds when a slot is granted,
and ``release(req)`` frees it.  Lineage recovery bounds its
recomputation tasks to a node's cores with one.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, List

from repro.sim.events import _PENDING, URGENT, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["Resource", "Request"]


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
