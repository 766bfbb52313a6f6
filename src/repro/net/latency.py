"""Message latency models.

Post-GST, every model guarantees delays in ``(0, max_delay]`` — the paper's
"synchronous with unknown time bounds".  The bound is *unknown to the
protocol* (the synchronizer's timeouts adapt); the simulation of course knows
it so it can enforce partial synchrony.

A model is asked once per *fan-out* (:meth:`LatencyModel.delays`); the draws
behind its answer are still one per target in target order, so the seeded
stream is the same whoever asks, a fan-out or ``n`` unicasts.
"""

from __future__ import annotations

import abc
import random
from math import log
from typing import Optional, Sequence

from ..types import ReplicaId


class LatencyModel(abc.ABC):
    """Produces per-message delays, seeded and deterministic.

    Implementations must ignore sender identity in the sense required by the
    paper's scheduler model: delays may vary randomly, but the *distribution*
    is identical for all (src, dst) pairs.
    """

    @abc.abstractmethod
    def delay(self, src: ReplicaId, dst: ReplicaId) -> float:
        """Delay for one message from ``src`` to ``dst``; must be > 0."""

    def delays(self, src: ReplicaId, dsts: Sequence[ReplicaId]) -> list:
        """One fan-out's delays: ``(delay, targets)`` groups covering
        ``dsts`` in order — by default one :meth:`delay` per target."""
        return [(self.delay(src, dst), (dst,)) for dst in dsts]

    @property
    @abc.abstractmethod
    def max_delay(self) -> float:
        """The (simulation-known) upper bound Δ on post-GST delays."""


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``value`` time units."""

    def __init__(self, value: float = 1.0) -> None:
        if value <= 0:
            raise ValueError(f"latency must be positive, got {value}")
        self._value = value

    def delay(self, src: ReplicaId, dst: ReplicaId) -> float:
        return self._value

    def delays(self, src, dsts):
        # No draw to make: the whole fan-out is one group, ``dsts`` uncopied.
        return [(self._value, dsts)] if dsts else []

    @property
    def max_delay(self) -> float:
        return self._value


class UniformLatency(LatencyModel):
    """Delays drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float = 0.5, high: float = 1.5, seed: int = 0) -> None:
        if not 0 < low <= high:
            raise ValueError(f"need 0 < low <= high, got [{low}, {high}]")
        self._low = low
        self._high = high
        self._rng = random.Random(f"uniform-latency:{seed}")

    def delay(self, src: ReplicaId, dst: ReplicaId) -> float:
        return self._rng.uniform(self._low, self._high)

    @property
    def max_delay(self) -> float:
        return self._high


class ExponentialLatency(LatencyModel):
    """Exponential delays with the given mean, truncated at ``cap``.

    Truncation keeps the model inside partial synchrony: post-GST delays must
    be bounded.  ``cap`` defaults to 10x the mean.
    """

    def __init__(
        self, mean: float = 1.0, cap: Optional[float] = None, seed: int = 0
    ) -> None:
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        self._mean = mean
        self._cap = cap if cap is not None else 10.0 * mean
        if self._cap < mean:
            raise ValueError(f"cap {self._cap} must be >= mean {mean}")
        self._rng = random.Random(f"exponential-latency:{seed}")

    def delay(self, src: ReplicaId, dst: ReplicaId) -> float:
        return self.delays(src, (dst,))[0][0]

    def delays(self, src, dsts):
        # ``expovariate(rate)`` inlined: the same draw, bit for bit.
        draw, rate, cap = self._rng.random, 1.0 / self._mean, self._cap
        return [
            (min(max(-log(1.0 - draw()) / rate, 1e-9), cap), (dst,)) for dst in dsts
        ]

    @property
    def max_delay(self) -> float:
        return self._cap
