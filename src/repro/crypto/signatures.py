"""Simulated digital signatures.

The paper (§2.1): every replica signs outgoing messages; receivers only
process messages whose signature verifies against the sender's public key.

Implementation: ``sign(sk, payload) = SHA256(sk ‖ canonical(payload))``.
Verification recomputes the tag through the trusted :class:`KeyRegistry`
(which alone can map a replica ID back to its private key).  Against
in-simulation adversaries — who never hold a correct replica's private key —
this scheme is existentially unforgeable and tamper-evident, which is all the
protocol relies on (see DESIGN.md, Substitutions).

*Signed on first read*: an envelope :meth:`SignatureScheme.sign` makes is
valid by construction and accepted by object identity, so on the production
stack its tag has no reader.  The tag is therefore computed — same bytes —
by whoever first reads ``.signature`` (the table-free oracle's ``verify``,
byte accounting, ``==`` / ``hash`` / ``repr``, ``canonical()``) and kept on
the envelope; ``tags_computed`` counts those first reads.  Do not probe an
envelope with ``hasattr(x, "signature")`` on a send or delivery path: that
is a read.  :meth:`SignatureScheme.sign_with` — explicit keys — computes its
tag at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generic, Optional, TypeVar

from ..errors import SignatureError
from ..types import ReplicaId
from .hashing import digest
from .keys import KeyRegistry
from .verdicts import VerdictCounts, VerdictTable

T = TypeVar("T")

_DOMAIN = "repro-signature-v1"
_set = object.__setattr__  # what a frozen dataclass's own __init__ uses


@dataclass(frozen=True)
class Signed(Generic[T]):
    """A payload together with its producing replica and signature.

    This is the code form of the paper's ``⟨T, m⟩_i`` notation.  The payload
    must be canonically encodable (see :func:`repro.crypto.hashing.stable_encode`).
    """

    payload: T
    signer: ReplicaId
    signature: bytes

    def canonical(self) -> Any:
        return ("signed", self.payload, self.signer, self.signature)

    def __getattr__(self, name: str) -> bytes:
        # Only a missing attribute gets here: the tag of an envelope that
        # SignatureScheme.sign() made, wanted by its first reader.
        if name != "signature":
            raise AttributeError(name)
        registry, counts = self._tag_source
        signer = self.signer
        tag = digest(_DOMAIN, registry._private_key_of(signer), signer, self.payload)
        counts.tags_computed += 1
        _set(self, "signature", tag)
        return tag

    def __reduce__(self):
        # A pickled or copied envelope is a plain one: tag in, registry out.
        return Signed, (self.payload, self.signer, self.signature)


class SignatureScheme:
    """Sign/verify service bound to a :class:`KeyRegistry`.

    With a :class:`~repro.crypto.verdicts.VerdictTable` an envelope is
    verified once per *object*: broadcast and multicast hand every receiver
    the same :class:`Signed`, so recomputing ``digest(sk ‖ signer ‖
    payload)`` per receiver is the simulation's hot path.  An envelope that
    :meth:`sign` produced through the registry's own key is valid by
    construction and is registered as such; :meth:`sign_with` — the
    adversary's corrupted-key path — registers nothing, and a forged
    envelope pairing a copied signature with another payload is a different
    object, verified from scratch.  Without a table (the reference
    semantics) every call recomputes.
    """

    def __init__(
        self, registry: KeyRegistry, verdicts: Optional[VerdictTable] = None
    ) -> None:
        self._registry = registry
        self._verdicts = verdicts
        # A table-free scheme (the oracle) counts on its own.
        self._counts = verdicts.counts if verdicts is not None else VerdictCounts()
        # All an on-demand envelope points at: the trusted base and the
        # counters.  Never a private key, and never the table or this scheme
        # (a born-valid entry pins its envelope; that edge would be a cycle).
        self._tag_source = (registry, self._counts)

    @property
    def verdicts(self) -> Optional[VerdictTable]:
        """The instance's verdict table (``None``: table-free, the oracle)."""
        return self._verdicts

    def sign_with(self, private_key: bytes, signer: ReplicaId, payload: Any) -> Signed:
        """Sign ``payload`` with an explicitly supplied private key.

        Used by replicas (their own key) and by adversaries (corrupted keys
        only).  Signing with a key that does not belong to ``signer`` produces
        a signature that will never verify — exactly like forging.
        """
        tag = digest(_DOMAIN, private_key, signer, payload)
        return Signed(payload=payload, signer=signer, signature=tag)

    def sign(self, signer: ReplicaId, payload: Any) -> Signed:
        """Sign as ``signer`` using the registry's key for it (honest path).

        The tag — ``sign_with(that key, signer, payload).signature`` to the
        byte — is computed by whoever first reads ``.signature``.
        """
        self._registry.key_pair(signer)  # an unknown signer fails here and now
        signed = object.__new__(Signed)
        _set(signed, "payload", payload)
        _set(signed, "signer", signer)
        _set(signed, "_tag_source", self._tag_source)
        if self._verdicts is not None:
            self._verdicts.born_valid("signature", signed)
        return signed

    def verify(self, signed: Signed) -> bool:
        """Check that ``signed.signature`` is valid for ``signed.payload``."""
        table = self._verdicts
        if table is None:
            return self._verify(signed)
        verdict = table.get("signature", signed)
        if verdict is None:
            verdict = table.put("signature", signed, self._verify(signed))
        return verdict

    def _verify(self, signed: Signed) -> bool:
        try:
            key = self._registry._private_key_of(signed.signer)
        except Exception:
            return False
        try:
            expected = digest(_DOMAIN, key, signed.signer, signed.payload)
        except TypeError:
            return False  # nobody signed what has no canonical encoding
        tag = signed.signature
        return type(tag) is bytes and expected == tag  # (a subclass may override ==)

    def require_valid(self, signed: Signed) -> Signed:
        """Like :meth:`verify` but raises :class:`SignatureError` on failure."""
        if not self.verify(signed):
            raise SignatureError(
                f"invalid signature from replica {signed.signer} "
                f"over payload {signed.payload!r}"
            )
        return signed

    def cache_stats(self) -> Dict[str, int]:
        """The table's signature counters: ``hits`` verifications answered
        from it, ``misses`` recomputed, ``born_valid`` envelopes registered
        by :meth:`sign` (all zero without a table), ``tags_computed`` first
        reads of an on-demand tag (table or not)."""
        counts = self._counts
        return {
            "hits": counts.reused.get("signature", 0),
            "misses": counts.computed.get("signature", 0),
            "born_valid": counts.born.get("signature", 0),
            "tags_computed": counts.tags_computed,
        }
