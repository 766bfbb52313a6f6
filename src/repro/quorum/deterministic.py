"""Deterministic quorum collector.

Used for ``NewLeader`` collection in ProBFT and PBFT (Algorithm 1 line 6
requires a *deterministic* quorum of ``⌈(n+f+1)/2⌉`` messages).  Any two
deterministic quorums intersect in at least one correct replica (paper
Figure 2).
"""

from __future__ import annotations

from ..config import deterministic_quorum_size
from .probabilistic import QuorumCollector


class DeterministicQuorumCollector(QuorumCollector):
    """Collector with the PBFT quorum threshold ``⌈(n+f+1)/2⌉``."""

    def __init__(self, n: int, f: int) -> None:
        super().__init__(threshold=deterministic_quorum_size(n, f))
        self._n = n
        self._f = f

    @property
    def n(self) -> int:
        return self._n

    @property
    def f(self) -> int:
        return self._f
