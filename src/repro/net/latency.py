"""Message latency models.

Post-GST, every model guarantees delays in ``(0, max_delay]`` — the paper's
"synchronous with unknown time bounds".  The bound is *unknown to the
protocol* (the synchronizer's timeouts adapt); the simulation of course knows
it so it can enforce partial synchrony.

A model is asked once per *fan-out* (:meth:`LatencyModel.delays`): a list of
one float per target, drawn in target order (the stream ``n`` unicasts draw),
or the one float all share; the network gives distinct times a bucket each and
merges a tie.  Clamps are comparisons, not ``min``/``max`` calls (a fifth of a
delivery's send cost), picking the builtins' float: ``max(x, lo)`` keeps ``x``
unless ``lo > x``, ``min(x, cap)`` unless ``cap < x``, a NaN too (DESIGN.md,
*The send side*).  A :class:`Seeded` model deep-copies via its generator's
``getstate`` (~10x cheaper than walking its 625 words).
"""

from __future__ import annotations

import abc
import copy
import random
from math import log
from typing import Optional, Sequence, Union

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

    def delays(self, src: ReplicaId, dsts: Sequence[ReplicaId]) -> Union[float, list]:
        """One fan-out's delays: a list of one delay per target of ``dsts``,
        in order — by default one :meth:`delay` each — or the one delay
        (not a list) that every target shares."""
        return [self.delay(src, dst) for dst in dsts]

    @property
    @abc.abstractmethod
    def max_delay(self) -> float:
        """The (simulation-known) upper bound Δ on post-GST delays."""


class Seeded:
    """Draws from its own ``random.Random``, ``_rng``, all else immutable (module doc)."""

    def __deepcopy__(self, memo):
        clone = copy.copy(self)
        clone._rng = random.Random.__new__(random.Random)
        clone._rng.setstate(self._rng.getstate())
        return clone


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``value`` time units."""

    def __init__(self, value: float = 1.0) -> None:
        if value <= 0:
            raise ValueError(f"latency must be positive, got {value}")
        self._value = value

    def delay(self, src: ReplicaId, dst: ReplicaId) -> float:
        return self._value

    def delays(self, src, dsts):
        # No draw to make: one delay for the whole fan-out.
        return self._value

    @property
    def max_delay(self) -> float:
        return self._value


class UniformLatency(Seeded, LatencyModel):
    """Delays drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float = 0.5, high: float = 1.5, seed: int = 0) -> None:
        if not 0 < low <= high:
            raise ValueError(f"need 0 < low <= high, got [{low}, {high}]")
        self._low = low
        self._high = high
        self._rng = random.Random(f"uniform-latency:{seed}")

    def delay(self, src: ReplicaId, dst: ReplicaId) -> float:
        return self._rng.uniform(self._low, self._high)

    def delays(self, src, dsts):
        # ``Random.uniform``, bit for bit: low + (high - low) * random().
        draw, low, span = self._rng.random, self._low, self._high - self._low
        return [low + span * draw() for _ in dsts]

    @property
    def max_delay(self) -> float:
        return self._high


class ExponentialLatency(Seeded, LatencyModel):
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
        self._rate = 1.0 / mean
        # (``cap if x > cap else lo if x < lo else x`` is min(max(x, 1e-9), cap) for every x.)
        self._lo = min(1e-9, self._cap)

    def delay(self, src: ReplicaId, dst: ReplicaId) -> float:
        x = -log(1.0 - self._rng.random()) / self._rate  # ``expovariate``, bit for bit
        return self._cap if x > self._cap else self._lo if x < self._lo else x

    def delays(self, src, dsts):
        draw, rate, cap, lo = self._rng.random, self._rate, self._cap, self._lo
        return [cap if (x := -log(1.0 - draw()) / rate) > cap else lo if x < lo else x
                for _ in dsts]

    @property
    def max_delay(self) -> float:
        return self._cap
