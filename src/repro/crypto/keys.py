"""Key pairs and the trusted key registry.

The paper assumes key distribution happens before the system starts (§2.1).
:class:`KeyRegistry` plays that role: it deterministically derives one
private key per replica from a master seed, ``digest("private-key",
master_seed, i)``, and acts as the simulation's trusted computing base for
signature/VRF verification (see DESIGN.md, Substitutions); a
:class:`KeyPair` is built for its first reader.  Adversary code is only
ever handed the private keys of the replicas it corrupts, mirroring "the
private key of a correct replica never leaves the replica".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..errors import UnknownReplicaError
from ..types import ReplicaId
from .hashing import _SEPARATOR, digest, stable_encode


@dataclass(frozen=True)
class KeyPair:
    """A replica's key pair.

    ``public_key`` is safely shareable; ``private_key`` must stay with the
    replica (or with the adversary, for corrupted replicas).  A registry's
    pair's public key is computed by its first reader (the simulation's
    verifiers go through the registry and never ask for one).
    """

    replica: ReplicaId
    private_key: bytes
    public_key: bytes

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
        # digest("private-key", master_seed, r) to the byte: one SHA-256 per
        # id over the encoded parts before r, which every id shares.
        parts = [stable_encode("private-key"), stable_encode(master_seed), b"I"]
        head, end = _SEPARATOR.join(parts), _SEPARATOR
        #: Every replica's private key (SHA-256 digests, 32 bytes each).
        self._keys: Dict[ReplicaId, bytes] = {
            r: hashlib.sha256(b"%s%d%s" % (head, r, end)).digest() for r in range(n)
        }
        self._pairs: Dict[ReplicaId, KeyPair] = {}  # built for their first reader
        self._by_public: Optional[Dict[bytes, KeyPair]] = None

    @property
    def n(self) -> int:
        return self._n

    def key_pair(self, replica: ReplicaId) -> KeyPair:
        """Full key pair of ``replica`` (hand out only to that replica/adversary)."""
        pair = self._pairs.get(replica)
        if pair is None:
            pair = object.__new__(KeyPair)  # its public half: for a first reader
            object.__setattr__(pair, "replica", replica)
            object.__setattr__(pair, "private_key", self._private_key_of(replica))
            self._pairs[replica] = pair
        return pair

    def public_key(self, replica: ReplicaId) -> bytes:
        return self.key_pair(replica).public_key

    def public_keys(self, replicas: Iterable[ReplicaId]) -> Dict[ReplicaId, bytes]:
        return {r: self.public_key(r) for r in replicas}

    def resolve_public(self, public_key: bytes) -> KeyPair:
        """Map a public key back to its key pair (trusted-verifier operation)."""
        if self._by_public is None:  # built for its first caller
            pairs = [self.key_pair(r) for r in range(self._n)]
            self._by_public = {p.public_key: p for p in pairs}
        try:
            return self._by_public[public_key]
        except KeyError:
            raise UnknownReplicaError(public_key.hex()) from None

    def _private_key_of(self, replica: ReplicaId) -> bytes:
        """Trusted accessor used by :meth:`key_pair` and the crypto primitives only."""
        try:
            return self._keys[replica]
        except KeyError:
            raise UnknownReplicaError(replica) from None
