"""Verifiable random function (paper §2.4).

Operations::

    VRF_prove(sk_i, seed, s)              -> (sample S_i, proof P_i)
    VRF_verify(pk_i, seed, s, S_i, P_i)   -> bool

The sample contains ``s`` *distinct* replica IDs drawn uniformly at random
(without replacement) from ``Π = {0..n-1}``.

Simulation construction (see DESIGN.md, Substitutions): the prover derives a
sampler key ``k = SHA256(sk_i ‖ seed ‖ s)`` and expands it with the
SHAKE-256 XOF into a sequence of big-endian 64-bit words.  Words at or above
``⌊2⁶⁴/n⌋·n`` are dropped (so the rest reduce mod ``n`` exactly uniformly),
each surviving word names the replica ``word mod n``, repeated IDs are
skipped, and the first ``s`` distinct IDs — in order of first occurrence —
are the sample.  Drawing uniformly and skipping what was already drawn is an
exactly uniform draw without replacement.  XOF output is prefix-stable, so
the sample is a function of ``(k, n, s)`` alone, however many words were
requested at once.  The proof is ``k`` itself; verification recomputes ``k``
through the trusted registry and replays the expansion.  The paper's three
guarantees hold against in-simulation adversaries:

* **Uniqueness** — ``k`` (hence the sample) is a function of ``(sk, seed, s)``.
* **Collision resistance** — distinct seeds give independent SHA-256 keys.
* **Pseudorandomness** — without ``sk_i`` the sample is unpredictable; the
  expansion is keyed by a hash the adversary cannot evaluate.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Any, Dict, Iterable, Optional, Tuple

from ..errors import VRFError
from ..types import ReplicaId
from .hashing import digest
from .keys import KeyRegistry

_DOMAIN = "repro-vrf-v2"

#: Sampler words are 64-bit: one past the largest value a word can take.
_WORD_SPAN = 1 << 64


@dataclass(frozen=True)
class VRFOutput:
    """The result of ``VRF_prove``: a sample and its proof."""

    sample: Tuple[ReplicaId, ...]
    proof: bytes

    def canonical(self) -> Any:
        # The sample is packed into one bytes value (4 bytes per id, length
        # carried by the bytes encoding) instead of encoded id by id.
        packed = struct.pack(">%dI" % len(self.sample), *self.sample)
        return ("vrf-output", packed, self.proof)

    def members(self) -> frozenset:
        """The sample as a frozenset, built once per output object.

        Membership tests against a vote's sample happen once per recipient
        of the vote; the cached set turns each O(s) tuple scan into O(1).
        """
        members = self.__dict__.get("_members")
        if members is None:
            members = frozenset(self.sample)
            object.__setattr__(self, "_members", members)
        return members

    def __contains__(self, replica: ReplicaId) -> bool:
        return replica in self.members()

    def __len__(self) -> int:
        return len(self.sample)


def _sample_from_words(
    words: Iterable[int], n: int, s: int
) -> Tuple[ReplicaId, ...]:
    """The first ``s`` distinct IDs named by a sequence of 64-bit words.

    A word at or above the largest multiple of ``n`` below 2⁶⁴ is skipped
    (rejection keeps ``word mod n`` exactly uniform), an ID already drawn is
    skipped, and order of first occurrence is kept.  Returns fewer than
    ``s`` IDs when the words run out first.
    """
    limit = _WORD_SPAN - _WORD_SPAN % n
    distinct = dict.fromkeys([w % n for w in words if w < limit])
    return tuple(islice(distinct, s))


def _first_word_count(n: int, s: int) -> int:
    """How many words to ask the XOF for at first: 25% above the expected
    number of uniform draws that show ``s`` distinct IDs out of ``n``,
    ``n·(H_n − H_{n−s}) ≈ n·ln(n/(n−s))`` (``n·(ln n + 1)`` when ``s == n``)."""
    expected = n * (math.log(n / (n - s)) if s < n else math.log(n) + 1.0)
    return int(1.25 * expected) + 8


def _sample_from_key(
    key: bytes, n: int, s: int, word_count: Optional[int] = None
) -> Tuple[ReplicaId, ...]:
    """``s`` distinct IDs from ``range(n)``, a function of ``(key, n, s)``.

    One SHAKE-256 call yields ``word_count`` 64-bit words; if they hold
    fewer than ``s`` distinct IDs the expansion is redone with twice as
    many.  The longer output extends the shorter one, so the result does not
    depend on ``word_count`` (tests pass a small one to force the extension).
    """
    if word_count is None:
        word_count = _first_word_count(n, s)
    while True:
        stream = hashlib.shake_256(key).digest(8 * word_count)
        words = struct.unpack(">%dQ" % word_count, stream)
        sample = _sample_from_words(words, n, s)
        if len(sample) == s:
            return sample
        word_count *= 2


class VRF:
    """Globally known VRF bound to a :class:`KeyRegistry` (paper §2.4)."""

    def __init__(self, registry: KeyRegistry) -> None:
        self._registry = registry

    @property
    def n(self) -> int:
        return self._registry.n

    def _sampler_key(self, private_key: bytes, seed: str, s: int) -> bytes:
        return digest(_DOMAIN, private_key, seed, s)

    def _sample(self, key: bytes, s: int) -> Tuple[ReplicaId, ...]:
        """The sample one sampler key expands to (counting hook)."""
        return _sample_from_key(key, self.n, s)

    def prove_with(
        self, private_key: bytes, replica: ReplicaId, seed: str, s: int
    ) -> VRFOutput:
        """``VRF_prove`` with an explicit private key (honest or corrupted)."""
        if not 1 <= s <= self.n:
            raise VRFError(f"sample size must be in [1, n={self.n}], got {s}")
        key = self._sampler_key(private_key, seed, s)
        sample = self._sample(key, s)
        return VRFOutput(sample=sample, proof=key)

    def prove(self, replica: ReplicaId, seed: str, s: int) -> VRFOutput:
        """``VRF_prove(K_p,i, z, s) → (S_i, P_i)`` using the registry's key."""
        private_key = self._registry.key_pair(replica).private_key
        return self.prove_with(private_key, replica, seed, s)

    def verify(
        self, replica: ReplicaId, seed: str, s: int, output: VRFOutput
    ) -> bool:
        """``VRF_verify(K_u,i, z, s, S_i, P_i) → bool``.

        Checks that (a) the proof is the unique sampler key for
        ``(replica, seed, s)`` and (b) the sample is the one it expands to.
        """
        if len(output.sample) != s:
            return False
        try:
            private_key = self._registry._private_key_of(replica)
        except Exception:
            return False
        expected_key = self._sampler_key(private_key, seed, s)
        if expected_key != output.proof:
            return False
        return self._sample(expected_key, s) == tuple(output.sample)

    def require_valid(
        self, replica: ReplicaId, seed: str, s: int, output: VRFOutput
    ) -> VRFOutput:
        """Like :meth:`verify` but raises :class:`VRFError` on failure."""
        if not self.verify(replica, seed, s, output):
            raise VRFError(
                f"invalid VRF output from replica {replica} for seed {seed!r}"
            )
        return output


class MemoizedVRF(VRF):
    """A :class:`VRF` that memoizes honest proving and per-object verifying.

    Created per deployment (see :meth:`CryptoContext.pooled`), so nothing it
    pins outlives its trial.  Both caches are over pure functions, so
    memoized and fresh VRFs are bit-identical by construction:

    * **prove memo** — :meth:`prove` through the registry's own key is a
      pure function of ``(replica, seed, s)`` (the registry is immutable),
      so a repeated prove returns the same object, and an output object
      found here was produced by the honest prove path of this very VRF —
      which is what lets :meth:`verify` accept it by identity.  Only that
      path is memoized: :meth:`prove_with` (explicit keys — the adversary's
      corrupted-key and forgery path) always computes from scratch, since
      its key need not match the registry's.
    * **verify memo** — :meth:`verify` is a pure function of the output
      object and ``(replica, seed, s)`` (registry immutable again), and a
      vote's ``VRFOutput`` is verified once per recipient — up to ``s``
      times for the *same object*.  Keyed by ``id(output)`` plus the
      arguments, with the output pinned alive and identity re-checked on
      hit (the :class:`MemoizedSignatureScheme` idiom), so a recycled id
      can never serve a stale verdict.  An output that is merely *equal*
      to an honest one — a copy, or anything built by an adversary — is a
      different object and takes the full key recompute + replay.

    Expanded samples are not memoized: every expansion is counted in
    ``misses`` (the name the benchmark reads samples-expanded from).
    """

    def __init__(
        self,
        registry: KeyRegistry,
        max_entries: int = 8192,
        *,
        byte_budget: int = None,
        entry_bytes: int = 2048,
    ) -> None:
        super().__init__(registry)
        if byte_budget is not None:
            # Byte-budgeted cap: entries pin proven outputs with their
            # sample tuples (~40 bytes per member id plus object overhead),
            # so a fixed entry count that is harmless at n=2000 is
            # gigabytes at n=20000.
            if entry_bytes < 1:
                raise ValueError(f"entry_bytes must be >= 1, got {entry_bytes}")
            max_entries = max(1, byte_budget // entry_bytes)
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._prove_cache: "OrderedDict[Tuple[ReplicaId, str, int], VRFOutput]" = (
            OrderedDict()
        )
        self._verify_cache: "OrderedDict[Tuple[int, ReplicaId, str, int], Tuple[VRFOutput, bool]]" = (
            OrderedDict()
        )
        self._max_entries = max_entries
        self.misses = 0
        self.prove_hits = 0
        self.prove_misses = 0
        self.verify_hits = 0
        self.verify_misses = 0
        self.prove_identity_hits = 0
        self.evictions = 0

    def cache_stats(self) -> Dict[str, int]:
        """Memo telemetry: hit/miss/eviction counters and current sizes."""
        return {
            "misses": self.misses,
            "prove_hits": self.prove_hits,
            "prove_misses": self.prove_misses,
            "verify_hits": self.verify_hits,
            "verify_misses": self.verify_misses,
            "prove_identity_hits": self.prove_identity_hits,
            "evictions": self.evictions,
            "entries": len(self._prove_cache) + len(self._verify_cache),
            "max_entries": self._max_entries,
        }

    def _sample(self, key: bytes, s: int) -> Tuple[ReplicaId, ...]:
        self.misses += 1
        return super()._sample(key, s)

    def prove(self, replica: ReplicaId, seed: str, s: int) -> VRFOutput:
        cache_key = (replica, seed, s)
        output = self._prove_cache.get(cache_key)
        if output is not None:
            self.prove_hits += 1
            return output
        output = super().prove(replica, seed, s)
        self.prove_misses += 1
        self._prove_cache[cache_key] = output
        if len(self._prove_cache) > self._max_entries:
            self._prove_cache.popitem(last=False)
            self.evictions += 1
        return output

    def verify(
        self, replica: ReplicaId, seed: str, s: int, output: VRFOutput
    ) -> bool:
        cache_key = (id(output), replica, seed, s)
        entry = self._verify_cache.get(cache_key)
        if entry is not None and entry[0] is output:
            self.verify_hits += 1
            return entry[1]
        if self._prove_cache.get((replica, seed, s)) is output:
            # This very object came out of the honest prove path for the
            # same (replica, seed, s) — it verifies by construction (the
            # prove memo only holds registry-keyed outputs), no need to
            # re-derive the sampler key and replay the expansion.
            valid = True
            self.prove_identity_hits += 1
        else:
            valid = super().verify(replica, seed, s, output)
        self.verify_misses += 1
        self._verify_cache[cache_key] = (output, valid)
        if len(self._verify_cache) > self._max_entries:
            self._verify_cache.popitem(last=False)
            self.evictions += 1
        return valid


#: Interned seed strings — the hot path derives the same (view, tag) seed
#: once per delivered vote; bounded so adversarial view counters cannot
#: grow it without limit.
_PHASE_SEED_MEMO: Dict[Tuple[int, str, str], str] = {}
_PHASE_SEED_MEMO_MAX = 4096


def phase_seed(view: int, phase_tag: str, domain: str = "") -> str:
    """The protocol-mandated VRF seed ``v ‖ T`` (paper §3.1).

    ``phase_tag`` is "prepare" for Prepare and "commit" for Commit messages.
    ``domain`` scopes seeds to one consensus instance (the SMR extension
    runs one instance per slot); the paper's single-shot setting uses "".
    """
    key = (view, phase_tag, domain)
    seed = _PHASE_SEED_MEMO.get(key)
    if seed is None:
        if domain:
            seed = f"{domain}#{view}||{phase_tag}"
        else:
            seed = f"{view}||{phase_tag}"
        if len(_PHASE_SEED_MEMO) < _PHASE_SEED_MEMO_MAX:
            _PHASE_SEED_MEMO[key] = seed
    return seed
