"""Per-replica transport endpoint.

A thin capability object handed to each replica so protocol code can send
without holding the whole network (and so Byzantine behaviours can interpose
on a single replica's traffic).
"""

from __future__ import annotations

from typing import Iterable

from ..types import ReplicaId
from .network import Network


class Transport:
    """Send/broadcast/multicast API bound to one replica."""

    def __init__(self, network: Network, replica: ReplicaId) -> None:
        self._network = network
        self._replica = replica

    @property
    def replica(self) -> ReplicaId:
        return self._replica

    @property
    def n(self) -> int:
        return self._network.n

    @property
    def now(self) -> float:
        return self._network.sim.now

    def send(self, dst: ReplicaId, message: object) -> None:
        self._network.send(self._replica, dst, message)

    def multicast(self, targets: Iterable[ReplicaId], message: object) -> None:
        self._network.multicast(self._replica, targets, message)

    def broadcast(self, message: object, include_self: bool = False) -> None:
        self._network.broadcast(self._replica, message, include_self=include_self)

    def schedule(self, delay: float, callback) -> object:
        """Schedule a local timer (used by the synchronizer)."""
        return self._network.sim.schedule(delay, callback)
