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

from ..errors import UnknownReplicaError, VRFError
from ..types import ReplicaId
from .hashing import _SEPARATOR, digest, stable_encode
from .keys import KeyRegistry
from .verdicts import VerdictCounts, VerdictTable

_DOMAIN = "repro-vrf-v2"
#: What ``digest(_DOMAIN, sk, seed, s)`` hashes before a 32-byte ``sk``'s bytes.
_KEY_HEAD = _SEPARATOR.join([stable_encode(_DOMAIN), stable_encode(bytes(32))[:9]])

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


def _grow_ids(n: int) -> Tuple[List[ReplicaId], Any]:
    """``_IDS`` grown to ``n`` ids."""
    global _IDS
    shared = _IDS[0] + list(range(len(_IDS[0]), n))
    _IDS = shared, np.array(shared, dtype=object)
    return _IDS


#: From this many words on, one array pass deduplicates, and a prover's
#: whole block is expanded at once (DESIGN.md "Break-even").
_ARRAY_MIN_WORDS = 64
#: A block's (key, id) cells at most: ``⌊_BLOCK_CELLS / n⌋`` provers a block.
_BLOCK_CELLS = 16_384
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
    shared, twin = _IDS if len(_IDS[0]) >= n else _grow_ids(n)
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


def _samples_from_grid(stream: bytes, rows: int, n: int, s: int) -> List[tuple]:
    """:func:`_sample_from_stream` of each of ``rows`` equal slices of
    ``stream``, in one array pass (a block of provers' first requests).

    A rejected word is renamed ``n``, an id no row draws; each (row, id)
    cell's first word position is a minimum (exact whatever order repeats
    apply in) over one vector of ``rows · (n + 1)`` cells.
    """
    words = np.frombuffer(stream, dtype=_WORD).astype(np.uint64)
    ids = (words % n).view(np.intp)  # every id is below n: the same values
    limit = _WORD_SPAN - _WORD_SPAN % n
    rejects = limit < _WORD_SPAN and (n > 1 << 16 or _REJECTED_PREFIX in stream)
    if rejects:
        ids[words >= limit] = n
    grid = ids.reshape(rows, -1)
    cells = (grid + np.arange(0, rows * (n + 1), n + 1)[:, None]).ravel()
    positions = np.arange(len(ids))
    first = np.empty(rows * (n + 1), np.intp)
    first.fill(len(ids))
    np.minimum.at(first, cells, positions)
    drawn = (first[cells] == positions).reshape(rows, -1)
    if rejects:
        drawn &= grid < n
    ranks = drawn.cumsum(axis=1)
    drawn &= ranks <= s
    twin = _IDS[1] if len(_IDS[1]) >= n else _grow_ids(n)[1]
    chosen = twin[grid[drawn]]
    if len(chosen) == rows * s:
        return list(map(tuple, chosen.reshape(rows, s).tolist()))
    ends = np.minimum(ranks[:, -1], s).cumsum().tolist()  # a row fell short
    chosen = chosen.tolist()
    return [tuple(chosen[a:b]) for a, b in zip([0] + ends, ends)]


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
        word_count = _first_request(n, s)
    while True:
        stream = hashlib.shake_256(key).digest(8 * word_count)
        sample = _sample_from_stream(stream, n, s)
        if len(sample) == s:
            return sample
        word_count *= 2


def _first_request(n: int, s: int) -> int:
    """XOF words asked for first: 25% above n·(H_n − H_{n−s}), the draws
    ``s`` distinct IDs take."""
    expected = n * (math.log(n / (n - s)) if s < n else math.log(n) + 1.0)
    return int(1.25 * expected) + 8


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
    and takes the full key recompute and replay.

    From the sampler's break-even up, a :meth:`prove` expands its whole
    *block* of provers (ids ``[b·B, (b+1)·B)``, ``B = ⌊_BLOCK_CELLS / n⌋``)
    for ``(seed, s)`` in one pass, and keeps the other outputs, as private
    as the registry's keys, for their own provers: each is handed to one
    prove (a repeat prove expands its row again; nothing memoizes).  The
    store dies with this object: an instance's, a trial's or a slot's.
    """

    def __init__(
        self, registry: KeyRegistry, verdicts: Optional[VerdictTable] = None
    ) -> None:
        self._registry = registry
        self._verdicts = verdicts
        #: ``s`` -> (provers a block, 0 for one at a time; first XOF request).
        self._shapes: Dict[int, Tuple[int, int]] = {}
        #: ``(block, seed, s)`` -> ``{replica: output}`` not proven yet, or ``()``.
        self._pending: Dict[Tuple[int, str, int], Any] = {}

    def prove_with(
        self, private_key: bytes, replica: ReplicaId, seed: str, s: int
    ) -> VRFOutput:
        """``VRF_prove`` with an explicit private key (honest or corrupted)."""
        count = (self._shapes.get(s) or self._shape(s))[1]  # s is checked
        key = digest(_DOMAIN, private_key, seed, s)
        if self._verdicts is not None:
            self._verdicts.counts.samples_expanded += 1
        output = object.__new__(VRFOutput)  # no dataclass __init__ frame
        sample = _sample_from_key(key, self._registry._n, s, count)
        object.__setattr__(output, "sample", sample)
        object.__setattr__(output, "proof", key)
        return output

    def prove(self, replica: ReplicaId, seed: str, s: int) -> VRFOutput:
        """``VRF_prove(K_p,i, z, s) → (S_i, P_i)`` using the registry's key."""
        keys = self._registry._keys
        if replica not in keys:
            raise UnknownReplicaError(replica)
        shape = self._shapes.get(s) or self._shape(s)
        block = shape[0]
        if not block:
            output = self.prove_with(keys[replica], replica, seed, s)
        else:
            slot = (replica // block, seed, s)
            outputs = self._pending.get(slot)
            output = outputs.pop(replica, None) if outputs else None
            if output is None:
                output = self._expand(replica, seed, s, slot, shape)
            elif not outputs:
                self._pending[slot] = ()
        if self._verdicts is not None:
            self._verdicts.born_valid("vrf", output, (replica, seed, s))
        return output

    def _shape(self, s: int) -> Tuple[int, int]:
        """Provers a block for samples of ``s`` (0: one prove at a time, below
        the break-even or past n = ``_BLOCK_CELLS / 2``) and words asked first."""
        n = self._registry._n
        if not 1 <= s <= n:
            raise VRFError(f"sample size must be in [1, n={n}], got {s}")
        count = _first_request(n, s)
        block = _BLOCK_CELLS // n if count >= _ARRAY_MIN_WORDS else 0
        self._shapes[s] = shape = (block if block > 1 else 0, count)
        return shape

    def _expand(
        self, replica: ReplicaId, seed: str, s: int, slot: tuple, shape: tuple
    ) -> VRFOutput:
        """``replica``'s output, the rest of its block kept for their provers
        — or its row alone, if its block was expanded before."""
        (block, count), n, keys = shape, self._registry._n, self._registry._keys
        first = replica - replica % block
        ids = range(first, min(first + block, n))
        if slot in self._pending:
            ids = range(replica, replica + 1)
        # digest(_DOMAIN, key, seed, s) to the byte, for each key of the block;
        # one SHAKE-256 call per key, and one array pass over all the words.
        tail = _SEPARATOR.join([b"", stable_encode(seed), stable_encode(s), b""])
        proofs = [hashlib.sha256(_KEY_HEAD + keys[r] + tail).digest() for r in ids]
        stream = b"".join([hashlib.shake_256(key).digest(8 * count) for key in proofs])
        samples = _samples_from_grid(stream, len(ids), n, s)
        outputs = {}
        for r, proof, sample in zip(ids, proofs, samples):
            if len(sample) < s:  # the first request fell short: double it
                sample = _sample_from_key(proof, n, s, 2 * count)
            output = outputs[r] = object.__new__(VRFOutput)
            object.__setattr__(output, "sample", sample)
            object.__setattr__(output, "proof", proof)
        if self._verdicts is not None:
            self._verdicts.counts.samples_expanded += len(ids)
        output = outputs.pop(replica)
        self._pending.setdefault(slot, outputs or ())
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
