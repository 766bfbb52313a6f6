"""Key pairs and the trusted key registry.

The paper assumes key distribution happens before the system starts (§2.1).
:class:`KeyRegistry` plays that role: it deterministically derives one
:class:`KeyPair` per replica from a master seed and acts as the simulation's
trusted computing base for signature/VRF verification (see DESIGN.md,
Substitutions).  Adversary code is only ever handed the private keys of the
replicas it corrupts, mirroring "the private key of a correct replica never
leaves the replica".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional

from ..errors import UnknownReplicaError
from ..types import ReplicaId
from .hashing import digest


@dataclass(frozen=True)
class KeyPair:
    """A replica's key pair.

    ``public_key`` is safely shareable; ``private_key`` must stay with the
    replica (or with the adversary, for corrupted replicas).  A derived
    pair's public key is computed by its first reader (the simulation's
    verifiers go through the registry and never ask for one).
    """

    replica: ReplicaId
    private_key: bytes
    public_key: bytes

    @staticmethod
    def derive(replica: ReplicaId, master_seed: bytes) -> "KeyPair":
        """Deterministically derive the key pair for ``replica``."""
        pair = object.__new__(KeyPair)
        object.__setattr__(pair, "replica", replica)
        object.__setattr__(
            pair, "private_key", digest("private-key", master_seed, replica)
        )
        return pair

    def __getattr__(self, name: str) -> bytes:
        # Only a missing attribute gets here: a derived pair's public half.
        if name != "public_key":
            raise AttributeError(name)
        public_key = digest("public-key", self.private_key)
        object.__setattr__(self, "public_key", public_key)
        return public_key


class KeyRegistry:
    """The PKI of a deployment: everyone's public key, derived from one seed.

    The registry additionally exposes :meth:`_private_key_of` to the crypto
    primitives *only* — this is the simulation stand-in for the mathematical
    link between a key pair's halves.  Protocol and adversary code must go
    through :class:`~repro.crypto.signatures.SignatureScheme` /
    :class:`~repro.crypto.vrf.VRF` and never touch private keys directly.
    """

    def __init__(self, n: int, master_seed: bytes = b"repro-probft") -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self._n = n
        self._master_seed = master_seed
        self._pairs: Dict[ReplicaId, KeyPair] = {
            r: KeyPair.derive(r, master_seed) for r in range(n)
        }
        self._by_public: Optional[Dict[bytes, KeyPair]] = None

    @property
    def n(self) -> int:
        return self._n

    def replicas(self) -> Iterator[ReplicaId]:
        return iter(range(self._n))

    def key_pair(self, replica: ReplicaId) -> KeyPair:
        """Full key pair of ``replica`` (hand out only to that replica/adversary)."""
        try:
            return self._pairs[replica]
        except KeyError:
            raise UnknownReplicaError(replica) from None

    def public_key(self, replica: ReplicaId) -> bytes:
        return self.key_pair(replica).public_key

    def public_keys(self, replicas: Iterable[ReplicaId]) -> Dict[ReplicaId, bytes]:
        return {r: self.public_key(r) for r in replicas}

    def resolve_public(self, public_key: bytes) -> KeyPair:
        """Map a public key back to its key pair (trusted-verifier operation)."""
        if self._by_public is None:  # built for its first caller
            self._by_public = {p.public_key: p for p in self._pairs.values()}
        try:
            return self._by_public[public_key]
        except KeyError:
            raise UnknownReplicaError(public_key.hex()) from None

    def _private_key_of(self, replica: ReplicaId) -> bytes:
        """Trusted accessor used by SignatureScheme/VRF verification only."""
        return self.key_pair(replica).private_key
