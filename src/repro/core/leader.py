"""Leader rotation and the proposal-selection rule.

The paper (1-based IDs) defines ``leader(v) = (v − 1 mod n) + 1``; with our
0-based IDs this is ``(v − 1) mod n`` — round-robin starting at replica 0 in
view 1 — shifted by the config's ``leader_offset`` (:func:`leader_of`).

The proposal rule (Algorithm 1 lines 7–12): from a deterministic quorum ``M``
of NewLeader messages, take ``v_max``, the newest view in which any sender
prepared; among the senders that prepared in ``v_max``, propose the most
frequent value (``mode``).  If nobody prepared anything, the leader is free
to propose its own value.

Mode ties: the paper's ``mode`` is ambiguous under ties.  We resolve
deterministically — the leader picks the smallest value in byte order, and
``safeProposal`` accepts *any* value in the mode set, so a correct leader's
choice always validates and a Byzantine leader gains nothing (any modal value
was prepared by a plurality of the quorum).
"""

from __future__ import annotations

from collections import Counter
from typing import FrozenSet, Iterable, Optional, Tuple

from ..crypto.signatures import Signed
from ..messages.probft import NewLeader
from ..types import ReplicaId, Value, View


def leader_of(view: View, config) -> ReplicaId:
    """The leader schedule: ``(view − 1 + leader_offset) mod n``.

    The one spelling of ``leader(v)`` every protocol, predicate and Byzantine
    seat reads.  Single-shot configs keep the paper's offset 0; the SMR
    layer's rotating mode gives each slot its own offset, so every slot's
    view-1 leader is a different replica.
    """
    if view < 1:
        raise ValueError(f"views are numbered from 1, got {view}")
    return (view - 1 + config.leader_offset) % config.n


def mode_values(values: Iterable[Value]) -> FrozenSet[Value]:
    """The set of most frequent values (ties included); empty for no input."""
    counts = Counter(values)
    if not counts:
        return frozenset()
    top = max(counts.values())
    return frozenset(v for v, c in counts.items() if c == top)


def max_prepared_view(messages: Iterable[NewLeader]) -> View:
    """``v_max`` — the newest prepared view reported in ``M`` (0 if none)."""
    return max((m.prepared_view for m in messages), default=0)


def compute_proposal(
    new_leader_messages: Iterable[Signed],
    my_value: Value,
) -> Tuple[Value, Optional[View]]:
    """Apply lines 7–12: returns ``(value_to_propose, v_max or None)``.

    ``new_leader_messages`` are (already validated) ``Signed[NewLeader]``.
    Returns ``v_max = None`` when no sender prepared anything, in which case
    the proposal is the leader's own ``my_value``.
    """
    payloads = [m.payload for m in new_leader_messages]
    v_max = max_prepared_view(payloads)
    if v_max == 0:
        return my_value, None
    candidates = [
        m.prepared_value
        for m in payloads
        if m.prepared_view == v_max and m.prepared_value is not None
    ]
    modes = mode_values(candidates)
    if not modes:
        return my_value, None
    return min(modes), v_max
