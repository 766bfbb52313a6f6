"""Protocol configuration.

The paper's parameters (§2.1, §3.1):

* ``n``  — number of replicas.
* ``f``  — maximum number of Byzantine replicas, ``f < n/3``.
* ``l``  — quorum-size constant: probabilistic quorums have size ``q = l·√n``
  (``l ≥ 1``, typically 2; paper §3.1 and §5 use ``q = 2√n``).
* ``o``  — redundancy constant: each replica multicasts its Prepare/Commit
  messages to a VRF-chosen sample of ``s = o·q`` distinct replicas (``o > 1``
  in the protocol description; Theorem 2 admits ``o ∈ [1, (2+√3)·n/(n−f)]``).

Derived quantities:

* ``q``          — probabilistic quorum size, ``⌈l·√n⌉``.
* ``sample_size``— VRF sample size ``s = min(n, ⌈o·q⌉)``.
* ``det_quorum`` — deterministic quorum size ``⌈(n+f+1)/2⌉`` used for
  ``NewLeader`` collection (and by the PBFT baseline everywhere).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import ConfigError
from .types import ValidPredicate, always_valid


def max_faults(n: int) -> int:
    """Largest ``f`` with ``f < n/3`` (optimal BFT resilience)."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    return (n - 1) // 3


def deterministic_quorum_size(n: int, f: int) -> int:
    """PBFT-style quorum size ``⌈(n+f+1)/2⌉`` (paper §2.3, Fig. 2)."""
    return math.ceil((n + f + 1) / 2)


def probabilistic_quorum_size(n: int, l: float) -> int:
    """Probabilistic quorum size ``q = ⌈l·√n⌉`` (paper §3.1)."""
    return max(1, math.ceil(l * math.sqrt(n)))


def vrf_sample_size(n: int, q: int, o: float) -> int:
    """VRF recipient sample size ``s = ⌈o·q⌉``, capped at ``n``."""
    return min(n, max(1, math.ceil(o * q)))


@dataclass(frozen=True)
class ProtocolConfig:
    """Immutable configuration for one protocol deployment.

    Example:
        >>> cfg = ProtocolConfig(n=100, f=20)
        >>> cfg.q, cfg.sample_size, cfg.det_quorum
        (20, 34, 61)
    """

    n: int
    f: Optional[int] = None
    l: float = 2.0
    o: float = 1.7
    valid: ValidPredicate = field(default=always_valid, compare=False)
    #: Domain tag mixed into VRF seeds and signed statements.  Single-shot
    #: runs use "" (the paper's setting); the SMR extension gives each slot
    #: its own domain so messages cannot be replayed across consensus
    #: instances.
    seed_domain: str = ""
    #: Rotation offset added to the round-robin leader schedule: the leader
    #: of view ``v`` is ``(v − 1 + leader_offset) mod n``.  Single-shot runs
    #: use 0 (the paper's schedule, replica 0 leads view 1); the SMR layer's
    #: ``rotate_leaders`` mode gives slot ``s`` offset ``(s + 1) mod n`` so
    #: slot leadership rotates and no replica is structurally privileged.
    leader_offset: int = 0

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ConfigError(f"BFT needs n >= 4 (n=3f+1 with f>=1), got n={self.n}")
        f = self.f if self.f is not None else max_faults(self.n)
        object.__setattr__(self, "f", f)
        if f < 0:
            raise ConfigError(f"f must be >= 0, got {f}")
        if 3 * f >= self.n:
            raise ConfigError(f"requires f < n/3, got n={self.n}, f={f}")
        if not 0 <= self.leader_offset < self.n:
            raise ConfigError(
                f"leader_offset must be in [0, n), got {self.leader_offset} "
                f"with n={self.n}"
            )
        if self.l < 1.0:
            raise ConfigError(f"l must be >= 1, got {self.l}")
        if self.o < 1.0:
            raise ConfigError(f"o must be >= 1, got {self.o}")

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------
    @property
    def q(self) -> int:
        """Probabilistic quorum size ``⌈l·√n⌉``."""
        # Lazily memoized: the config is frozen, and the hot vote path reads
        # q/sample_size once per recipient — recomputing ceil(l·√n) tens of
        # thousands of times per trial is pure waste.
        cached = self.__dict__.get("_q")
        if cached is None:
            cached = probabilistic_quorum_size(self.n, self.l)
            object.__setattr__(self, "_q", cached)
        return cached

    @property
    def sample_size(self) -> int:
        """VRF recipient sample size ``s = min(n, ⌈o·q⌉)``."""
        cached = self.__dict__.get("_sample_size")
        if cached is None:
            cached = vrf_sample_size(self.n, self.q, self.o)
            object.__setattr__(self, "_sample_size", cached)
        return cached

    @property
    def det_quorum(self) -> int:
        """Deterministic quorum size ``⌈(n+f+1)/2⌉``."""
        return deterministic_quorum_size(self.n, self.f)

    def with_params(self, **kwargs) -> "ProtocolConfig":
        """Return a copy with some parameters replaced."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        """Human-readable one-line summary."""
        return (
            f"ProtocolConfig(n={self.n}, f={self.f}, l={self.l}, o={self.o} "
            f"=> q={self.q}, s={self.sample_size}, det_quorum={self.det_quorum})"
        )
