"""The *validated once* mechanism: one verdict table per consensus instance.

Almost everything a recipient checks about a message — its signatures, the
leader/domain test, the VRF proof, ``safeProposal``, a certificate — is the
same for every recipient, and a fan-out hands every recipient the same
*object*.  A :class:`VerdictTable` remembers the verdict of each such check
against the object it was made about, so a check runs once per message
however many recipients, time buckets or future-buffer replays deliver it.

Keyed by identity, never equality: an entry holds the object it is about, so
the object's ``id()`` cannot be handed to anything else while the entry
lives, and an adversary-built copy that merely ``==`` a validated object is
a different object and is checked from scratch.  Nothing is evicted — there
is no budget and no knob; a table lives exactly as long as its instance
(:meth:`clear` from ``Deployment.close()``, or when an SMR slot retires).

Verdicts of protocol-level checks depend on the instance's configuration
(seed domain, leader schedule, quorum sizes), so a table is built *for* one
:class:`~repro.config.ProtocolConfig` and
:meth:`CryptoContext.validated <repro.crypto.context.CryptoContext.validated>`
only consults it for that very config.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict, Hashable, Optional, Tuple


class VerdictCounts:
    """What the tables of one deployment did, per kind of check.

    ``computed[kind]`` checks actually ran, ``reused[kind]`` were answered
    from a table, ``born[kind]`` objects were registered valid by their own
    honest producer; ``samples_expanded`` VRF samples were expanded from
    their sampler key (proving and verifying both expand), ``tags_computed``
    signature tags of ``sign()``-made envelopes were computed for a first
    reader (0 unless someone sizes, encodes or re-verifies them).  An SMR
    deployment's slot tables all report here, so the counts add up over
    live and retired slots.
    """

    __slots__ = ("computed", "reused", "born", "samples_expanded", "tags_computed")

    def __init__(self) -> None:
        # defaultdicts: a table bumps one per lookup, and ``Counter``'s
        # ``+=`` costs three times a plain dict's.
        self.computed: DefaultDict[str, int] = defaultdict(int)
        self.reused: DefaultDict[str, int] = defaultdict(int)
        self.born: DefaultDict[str, int] = defaultdict(int)
        self.samples_expanded = 0
        self.tags_computed = 0

    def totals(self) -> Tuple[int, int]:
        """``(validated, validated_reused)`` summed over every kind of check."""
        return sum(self.computed.values()), sum(self.reused.values())


class VerdictTable:
    """Identity-keyed verdicts of one consensus instance's checks.

    ``kind`` names the check, ``context`` (a tuple) whatever else the
    verdict depends on besides the object and the instance (a VRF proof is
    valid *for* a replica, seed and size).  A verdict is never ``None``.
    """

    __slots__ = ("config", "counts", "_entries", "_reused")

    def __init__(self, config=None, counts: Optional[VerdictCounts] = None) -> None:
        #: The instance this table serves (``None``: crypto primitives only).
        self.config = config
        self.counts = counts if counts is not None else VerdictCounts()
        self._reused = self.counts.reused  # bumped once per delivery
        # kind -> {id(obj) or (id(obj), context): (obj, verdict)}; the
        # entry pins obj.  One dict per kind keeps the common key a bare int.
        self._entries: DefaultDict[str, Dict[Hashable, Tuple[object, object]]] = (
            defaultdict(dict)
        )

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._entries.values())

    def get(self, kind: str, obj: object, context: Optional[tuple] = None):
        """The recorded verdict about ``obj``, or ``None``."""
        entry = self._entries[kind].get(
            id(obj) if context is None else (id(obj), context)
        )
        if entry is None:
            return None
        self._reused[kind] += 1
        return entry[1]

    def of_kind(self, kind: str) -> Dict[Hashable, Tuple[object, object]]:
        """The live ``id(obj) -> (obj, verdict)`` map of one kind (the same
        dict for the table's lifetime: :meth:`clear` empties it in place),
        for a loop of lookups; its caller bumps ``counts.reused[kind]`` per
        hit."""
        return self._entries[kind]

    def put(self, kind: str, obj: object, verdict, context: Optional[tuple] = None):
        """Record a verdict that was just computed; returns it."""
        key = id(obj) if context is None else (id(obj), context)
        self._entries[kind][key] = (obj, verdict)
        self.counts.computed[kind] += 1
        return verdict

    def born_valid(
        self, kind: str, obj: object, context: Optional[tuple] = None
    ) -> None:
        """Register an object its honest producer just made: valid by
        construction, nothing to compute."""
        key = id(obj) if context is None else (id(obj), context)
        self._entries[kind][key] = (obj, True)
        self.counts.born[kind] += 1

    def clear(self) -> None:
        """Let go of every object (the counts stay readable)."""
        for entries in self._entries.values():
            entries.clear()
