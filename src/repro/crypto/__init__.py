"""Simulated cryptographic substrate.

The paper assumes a PKI (per-replica signing keys, §2.1) and a globally known
verifiable random function (VRF, §2.4).  Real asymmetric cryptography is not
needed to reproduce the protocol's behaviour in simulation, so this package
implements *behaviourally faithful* stand-ins (see DESIGN.md, Substitutions):

* :mod:`repro.crypto.keys` — key pairs and a trusted :class:`KeyRegistry`
  (the simulation's trusted computing base, standing in for the mathematics
  of real signatures/VRFs).
* :mod:`repro.crypto.signatures` — deterministic, tamper-evident signatures
  (an honest envelope's tag is computed by its first reader, if it has one).
* :mod:`repro.crypto.vrf` — ``VRF_prove`` / ``VRF_verify`` exactly as in §2.4,
  with uniqueness, collision resistance and pseudorandomness against
  in-simulation adversaries.
* :mod:`repro.crypto.hashing` — canonical serialization + digest helpers.
* :mod:`repro.crypto.verdicts` — the *validated once* table: the verdict of
  every recipient-independent check, kept per message object for the life
  of one consensus instance.
* :mod:`repro.crypto.context` — one bundle of the above;
  :meth:`CryptoContext.pooled` shares the live key registry of each
  ``(n, master_seed)`` in a process, :meth:`CryptoContext.instance` puts a
  fresh verdict table behind it for one consensus instance.
"""

from .context import CryptoContext, clear_crypto_pool, crypto_pool_stats
from .hashing import digest, digest_hex, stable_encode
from .keys import KeyPair, KeyRegistry
from .signatures import SignatureScheme, Signed
from .verdicts import VerdictCounts, VerdictTable
from .vrf import VRF, VRFOutput

__all__ = [
    "digest",
    "digest_hex",
    "stable_encode",
    "KeyPair",
    "KeyRegistry",
    "SignatureScheme",
    "Signed",
    "VRF",
    "VRFOutput",
    "VerdictCounts",
    "VerdictTable",
    "CryptoContext",
    "clear_crypto_pool",
    "crypto_pool_stats",
]
