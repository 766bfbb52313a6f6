"""Pre-GST network chaos and partitions.

Partial synchrony lets the scheduler delay messages arbitrarily before GST as
long as everything sent is *eventually* delivered (we deliver pre-GST traffic
no later than ``GST + Δ``).  Crucially (paper §2.1), the scheduler's choices
are independent of the sender's identity and faultiness — the policies below
therefore draw delays from sender-agnostic distributions.
"""

from __future__ import annotations

import abc
import random
from typing import FrozenSet, Iterable, Optional

from ..types import ReplicaId
from .latency import Seeded


class ChaosPolicy(abc.ABC):
    """Extra scheduling adversity applied on top of the latency model."""

    @abc.abstractmethod
    def extra_delay(
        self, now: float, gst: float, src: ReplicaId, dst: ReplicaId
    ) -> float:
        """Additional delay for a message sent at ``now``; must be >= 0.

        Implementations must ensure the total delivery time of any pre-GST
        message does not exceed ``gst + Δ`` relative deadlines enforced by
        the network (the network clamps, so policies may be sloppy).
        """


class NoChaos(ChaosPolicy):
    """The scheduler adds nothing; delays come from the latency model alone."""

    def extra_delay(
        self, now: float, gst: float, src: ReplicaId, dst: ReplicaId
    ) -> float:
        return 0.0


class PreGstChaos(Seeded, ChaosPolicy):
    """Random large delays for messages sent before GST.

    Each pre-GST message independently receives an extra delay drawn
    uniformly from ``[0, max_extra]``.  Messages sent after GST are untouched.
    The draw ignores ``src``/``dst`` (sender-agnostic scheduler).
    """

    def __init__(self, max_extra: float = 50.0, seed: int = 0) -> None:
        if max_extra < 0:
            raise ValueError(f"max_extra must be >= 0, got {max_extra}")
        self._max_extra = max_extra
        self._rng = random.Random(f"pre-gst-chaos:{seed}")

    def extra_delay(
        self, now: float, gst: float, src: ReplicaId, dst: ReplicaId
    ) -> float:
        if now >= gst:
            return 0.0
        return self._rng.uniform(0.0, self._max_extra)


class Partition(ChaosPolicy):
    """A temporary network partition healing at ``heal_time``.

    Messages crossing the partition before ``heal_time`` are held and
    delivered just after healing (plus the normal latency).  A partition that
    heals before GST is a legal partially-synchronous behaviour.
    """

    def __init__(
        self,
        group_a: Iterable[ReplicaId],
        heal_time: float,
    ) -> None:
        self._group_a: FrozenSet[ReplicaId] = frozenset(group_a)
        self._heal_time = heal_time

    @property
    def heal_time(self) -> float:
        return self._heal_time

    def crosses(self, src: ReplicaId, dst: ReplicaId) -> bool:
        return (src in self._group_a) != (dst in self._group_a)

    def extra_delay(
        self, now: float, gst: float, src: ReplicaId, dst: ReplicaId
    ) -> float:
        if now >= self._heal_time or not self.crosses(src, dst):
            return 0.0
        return self._heal_time - now


class ReceiverTargetedChaos(ChaosPolicy):
    """Pre-GST delays aimed at a fixed set of *receivers*.

    The paper's scheduler must act independently of the *sender's* identity
    (§2.1) but may discriminate by destination — e.g. starving a victim set
    of replicas of messages until GST.  This is the strongest scheduling
    attack our model admits, and ProBFT must stay safe under it (victims
    simply cannot decide before GST).
    """

    def __init__(self, victims, extra: float = 1e6) -> None:
        if extra < 0:
            raise ValueError(f"extra must be >= 0, got {extra}")
        self._victims = frozenset(victims)
        self._extra = extra

    @property
    def victims(self):
        return self._victims

    def extra_delay(
        self, now: float, gst: float, src: ReplicaId, dst: ReplicaId
    ) -> float:
        if now >= gst or dst not in self._victims:
            return 0.0
        return self._extra


class ComposedChaos(ChaosPolicy):
    """Sum of several chaos policies (e.g. partition + random delays)."""

    def __init__(self, policies: Iterable[ChaosPolicy]) -> None:
        self._policies = list(policies)

    def extra_delay(
        self, now: float, gst: float, src: ReplicaId, dst: ReplicaId
    ) -> float:
        return sum(p.extra_delay(now, gst, src, dst) for p in self._policies)
