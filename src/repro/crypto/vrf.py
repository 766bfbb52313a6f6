"""Verifiable random function (paper §2.4).

Operations::

    VRF_prove(sk_i, seed, s)              -> (sample S_i, proof P_i)
    VRF_verify(pk_i, seed, s, S_i, P_i)   -> bool

The sample contains ``s`` *distinct* replica IDs drawn uniformly at random
(without replacement) from ``Π = {0..n-1}``.

Simulation construction (see DESIGN.md, Substitutions): the prover derives a
sampler key ``k = SHA256(sk_i ‖ seed ‖ s)`` and expands it with the
SHAKE-256 XOF; the output is read as one array of big-endian ``uint64``
words, never word by word in Python integers.  Words at or above
``⌊2⁶⁴/n⌋·n`` are dropped (so the rest reduce mod ``n`` exactly uniformly),
each surviving word names the replica ``word mod n``, repeated IDs are
skipped, and the first ``s`` distinct IDs — in order of first occurrence —
are the sample, each element the one shared ``int`` of its id (``_IDS``).
Drawing uniformly and skipping what was already drawn is an exactly uniform
draw without replacement.  XOF output is prefix-stable, so the sample is a
function of ``(k, n, s)`` alone, however many words were requested at once.  The proof is ``k`` itself; verification recomputes ``k``
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
from dataclasses import dataclass
from itertools import islice
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import VRFError
from ..types import ReplicaId
from .hashing import digest
from .keys import KeyRegistry
from .verdicts import VerdictCounts, VerdictTable

_DOMAIN = "repro-vrf-v2"

#: Sampler words are 64-bit: one past the largest value a word can take.
_WORD_SPAN = 1 << 64
_WORD = np.dtype(">u8")  # ... and big-endian in the XOF output


@dataclass(frozen=True)
class VRFOutput:
    """The result of ``VRF_prove``: a sample and its proof."""

    sample: Tuple[ReplicaId, ...]
    proof: bytes

    def canonical(self) -> Any:
        # The sample is packed into one bytes value (4 bytes per id, length
        # carried by the bytes encoding) instead of encoded id by id.  A
        # forged sample of anything else is encoded element by element (no
        # packed sample collides with that), so an envelope around it fails
        # on its tag instead of raising in here.
        try:
            packed = struct.pack(">%dI" % len(self.sample), *self.sample)
        except struct.error:
            return ("vrf-output", tuple(self.sample), self.proof)
        return ("vrf-output", packed, self.proof)

    def members(self) -> frozenset:
        """The sample as a frozenset, built by the first ``i ∈ S`` question
        asked of this output object and kept for the rest (each then costs
        O(1), not an O(s) tuple scan); never built if nobody asks.  Honest
        routes never ask of a sender's delivery of its own vote to itself."""
        members = self.__dict__.get("_members")
        if members is None:
            members = frozenset(self.sample)
            object.__setattr__(self, "_members", members)
        return members

    def __contains__(self, replica: ReplicaId) -> bool:
        return replica in self.members()

    def __len__(self) -> int:
        return len(self.sample)


_INT = {int}


def plain_ids(sample: object) -> bool:
    """Whether a sample is a tuple of exact ``int`` ids, the one form a
    forged sample may be hashed or compared in (an ``int`` subclass may
    override ``__hash__`` / ``__eq__``); honest and verified ones always are."""
    return type(sample) is tuple and set(map(type, sample)) <= _INT


#: ``_IDS[0][i] == i``: the one ``int`` every sample holds for id ``i`` (CPython
#: shares only the ints up to 256, and a vote keeps its sample for life), and
#: its object-array twin.  Grown to the largest ``n`` sampled from, by
#: rebinding the pair: a racing grower costs sharing, never values.
_IDS: Tuple[List[ReplicaId], Any] = ([], np.empty(0, dtype=object))

#: From this many words on, one array pass deduplicates (DESIGN.md "Break-even").
_ARRAY_MIN_WORDS = 64
#: For n ≤ 2¹⁶ a rejected word is above 2⁶⁴ − 2¹⁶, so it starts with six
#: ``0xff`` bytes: a stream without them has nothing to reject.
_REJECTED_PREFIX = b"\xff" * 6


def _sample_from_stream(stream: bytes, n: int, s: int) -> Tuple[ReplicaId, ...]:
    """The first ``s`` distinct IDs named by XOF output (one ``uint64`` array).

    A word at or above the largest multiple of ``n`` below 2⁶⁴ is skipped
    (rejection keeps ``word mod n`` exactly uniform), an ID already drawn is
    skipped, and order of first occurrence is kept.  Returns fewer than
    ``s`` IDs when the words run out first.
    """
    words = np.frombuffer(stream, dtype=_WORD).astype(np.uint64)
    limit = _WORD_SPAN - _WORD_SPAN % n
    rejects = limit < _WORD_SPAN and (n > 1 << 16 or _REJECTED_PREFIX in stream)
    if rejects and int(words.max(initial=0)) >= limit:
        words = words[words < limit]
    global _IDS
    shared, twin = _IDS
    if len(shared) < n:
        shared = shared + list(range(len(shared), n))
        _IDS = shared, twin = shared, np.array(shared, dtype=object)
    ids = words % n
    if len(stream) < 8 * _ARRAY_MIN_WORDS:
        return tuple(map(shared.__getitem__, islice(dict.fromkeys(ids.tolist()), s)))
    # Each id's first position: a minimum, whatever order repeats apply in.
    ids = ids.view(np.intp)  # every id is below n: the same values
    positions = np.arange(len(ids))
    first = np.empty(n, np.intp)
    first.fill(len(ids))
    np.minimum.at(first, ids, positions)
    return tuple(twin[ids[first[ids] == positions][:s]].tolist())


def _sample_from_key(
    key: bytes, n: int, s: int, word_count: Optional[int] = None
) -> Tuple[ReplicaId, ...]:
    """``s`` distinct IDs from ``range(n)``, a function of ``(key, n, s)``.

    One SHAKE-256 call yields ``word_count`` 64-bit words; if they hold
    fewer than ``s`` distinct IDs the expansion is redone with twice as
    many.  The longer output extends the shorter one, so the result does not
    depend on ``word_count`` (tests pass a small one to force the extension).
    """
    if word_count is None:  # 25% above n·(H_n − H_{n−s}), the draws s IDs take
        expected = n * (math.log(n / (n - s)) if s < n else math.log(n) + 1.0)
        word_count = int(1.25 * expected) + 8
    while True:
        stream = hashlib.shake_256(key).digest(8 * word_count)
        sample = _sample_from_stream(stream, n, s)
        if len(sample) == s:
            return sample
        word_count *= 2


class VRF:
    """Globally known VRF bound to a :class:`KeyRegistry` (paper §2.4).

    With a :class:`~repro.crypto.verdicts.VerdictTable` an output is
    verified once per *object* and ``(replica, seed, s)``: a vote's
    :class:`VRFOutput` reaches up to ``s`` recipients as the same object.
    An output :meth:`prove` made through the registry's own key verifies by
    construction and is registered as such — for the very ``(replica, seed,
    s)`` it was proven for.  :meth:`prove_with` (explicit keys: the
    adversary's corrupted-key and forgery path) registers nothing, and an
    output that is merely *equal* to an honest one is a different object
    and takes the full key recompute and replay.  Nothing memoizes proving
    or sample expansion: every expansion is counted.
    """

    def __init__(
        self, registry: KeyRegistry, verdicts: Optional[VerdictTable] = None
    ) -> None:
        self._registry = registry
        self._verdicts = verdicts

    def prove_with(
        self, private_key: bytes, replica: ReplicaId, seed: str, s: int
    ) -> VRFOutput:
        """``VRF_prove`` with an explicit private key (honest or corrupted)."""
        n = self._registry._n
        if not 1 <= s <= n:
            raise VRFError(f"sample size must be in [1, n={n}], got {s}")
        key = digest(_DOMAIN, private_key, seed, s)
        if self._verdicts is not None:
            self._verdicts.counts.samples_expanded += 1
        output = object.__new__(VRFOutput)  # no dataclass __init__ frame
        object.__setattr__(output, "sample", _sample_from_key(key, n, s))
        object.__setattr__(output, "proof", key)
        return output

    def prove(self, replica: ReplicaId, seed: str, s: int) -> VRFOutput:
        """``VRF_prove(K_p,i, z, s) → (S_i, P_i)`` using the registry's key."""
        private_key = self._registry.key_pair(replica).private_key
        output = self.prove_with(private_key, replica, seed, s)
        if self._verdicts is not None:
            self._verdicts.born_valid("vrf", output, (replica, seed, s))
        return output

    def verify(
        self, replica: ReplicaId, seed: str, s: int, output: VRFOutput
    ) -> bool:
        """``VRF_verify(K_u,i, z, s, S_i, P_i) → bool``.

        Checks that (a) the proof is the unique sampler key for
        ``(replica, seed, s)`` and (b) the sample is the one it expands to.
        """
        table = self._verdicts
        if table is None:
            return self._verify(replica, seed, s, output)
        context = (replica, seed, s)
        verdict = table.get("vrf", output, context)
        if verdict is None:
            valid = self._verify(replica, seed, s, output)
            verdict = table.put("vrf", output, valid, context)
        return verdict

    def _verify(
        self, replica: ReplicaId, seed: str, s: int, output: VRFOutput
    ) -> bool:
        sample = output.sample
        if not plain_ids(sample) or len(sample) != s:
            return False
        try:
            private_key = self._registry._private_key_of(replica)
        except Exception:
            return False
        key = digest(_DOMAIN, private_key, seed, s)
        if key != output.proof:
            return False
        if self._verdicts is not None:
            self._verdicts.counts.samples_expanded += 1
        return _sample_from_key(key, self._registry._n, s) == sample

    def require_valid(
        self, replica: ReplicaId, seed: str, s: int, output: VRFOutput
    ) -> VRFOutput:
        """Like :meth:`verify` but raises :class:`VRFError` on failure."""
        if not self.verify(replica, seed, s, output):
            message = f"invalid VRF output from replica {replica} for seed {seed!r}"
            raise VRFError(message)
        return output

    def cache_stats(self) -> Dict[str, int]:
        """The table's VRF counters (all zero without one): ``misses`` samples
        expanded, ``verify_hits`` / ``verify_misses`` verifications answered
        from the table / recomputed, ``born_valid`` outputs of :meth:`prove`."""
        table = self._verdicts
        counts = table.counts if table is not None else VerdictCounts()
        return {
            "misses": counts.samples_expanded,
            "verify_hits": counts.reused.get("vrf", 0),
            "verify_misses": counts.computed.get("vrf", 0),
            "born_valid": counts.born.get("vrf", 0),
        }


def phase_seed(view: int, phase_tag: str, domain: str = "") -> str:
    """The protocol-mandated VRF seed ``v ‖ T`` (paper §3.1).

    ``phase_tag`` is "prepare" for Prepare and "commit" for Commit messages.
    ``domain`` scopes seeds to one consensus instance (the SMR extension
    runs one instance per slot); the paper's single-shot setting uses "".
    """
    if domain:
        return f"{domain}#{view}||{phase_tag}"
    return f"{view}||{phase_tag}"
