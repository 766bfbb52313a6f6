"""Simple Byzantine behaviours: silence and crashes.

A *silent* Byzantine replica is the weakest attack but exercises two
important paths: silent leaders force view changes (synchronizer liveness)
and silent followers shrink the effective sender set ``r`` in the
quorum-formation probability (Theorem 2 explicitly covers "even if all
Byzantine replicas remain silent").
"""

from __future__ import annotations

from functools import partial

from ..config import ProtocolConfig
from ..core.deployment import default_value
from ..core.replica import ProBFTReplica
from ..crypto.context import CryptoContext
from ..net.transport import Transport
from ..types import ReplicaId


class SilentReplica:
    """A replica that never sends anything (fail-stop from time zero): a
    deployment's silent seat, or one SMR slot's."""

    def __init__(
        self,
        replica_id: ReplicaId,
        config: ProtocolConfig,
        crypto: CryptoContext,
        transport: Transport,
    ) -> None:
        self.id = replica_id
        self.config = config

    def start(self) -> None:  # noqa: D102 - intentionally empty
        pass

    def on_message(self, src: ReplicaId, message: object) -> None:
        pass


class CrashReplica:
    """Behaves honestly until ``crash_time``, then stops completely.

    Wraps a real honest replica of class ``protocol`` (a registered
    deployment's ``replica_class``), so pre-crash behaviour is exactly
    correct.
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        config: ProtocolConfig,
        crypto: CryptoContext,
        transport: Transport,
        crash_time: float,
        protocol: type = ProBFTReplica,
    ) -> None:
        self.id = replica_id
        self.crash_time = crash_time
        self._transport = transport
        self._inner = protocol(
            replica_id=replica_id,
            config=config,
            crypto=crypto,
            transport=transport,
            my_value=default_value(replica_id),
        )
        self._crashed = False

    @property
    def crashed(self) -> bool:
        return self._crashed

    def start(self) -> None:
        self._inner.start()
        self._transport.schedule(self.crash_time, self._crash)

    def _crash(self) -> None:
        self._crashed = True
        stop = getattr(self._inner, "stop", None)
        if callable(stop):
            stop()

    def on_message(self, src: ReplicaId, message: object) -> None:
        if not self._crashed:
            self._inner.on_message(src, message)


def silent_factory():
    """Factory for :class:`SilentReplica` (deployment ``byzantine=`` entry)."""
    return SilentReplica


def crash_factory(crash_time: float, protocol: type = ProBFTReplica):
    """Factory for :class:`CrashReplica` crashing at ``crash_time``."""
    return partial(CrashReplica, crash_time=crash_time, protocol=protocol)
