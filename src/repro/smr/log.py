"""The ordered decision log.

Slot decisions may arrive out of order (a replica can decide slot 3 before
slot 2 if it lagged); the log buffers them and applies to the state machine
strictly in slot order, which preserves determinism across replicas.

A slot value may be a **batch** (see :mod:`repro.smr.encoding`): its
commands are applied element-wise, in batch order, still strictly within
the slot order.  Commands wrapped in request envelopes are unwrapped before
the state machine sees them — the application applies payloads, while the
log (and therefore every consistency check and apply notification) keeps
the full identified value.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..types import Value
from .app import StateMachine
from .encoding import SlotValueDecoder


class DecisionLog:
    """Slot-indexed log with in-order application to a state machine."""

    def __init__(
        self, app: StateMachine, decode: Optional[SlotValueDecoder] = None
    ) -> None:
        self._app = app
        #: Shared with the deployment's other replicas when one is passed.
        self._decode = decode if decode is not None else SlotValueDecoder()
        self._decided: Dict[int, Value] = {}
        self._results: Dict[int, Tuple[Value, ...]] = {}
        self._applied_up_to = 0  # highest contiguously applied slot

    @property
    def applied_up_to(self) -> int:
        return self._applied_up_to

    @property
    def app(self) -> StateMachine:
        return self._app

    def value_of(self, slot: int) -> Optional[Value]:
        return self._decided.get(slot)

    def commands_of(self, slot: int) -> Tuple[Value, ...]:
        """The (possibly batched) commands ``slot`` ordered; empty if undecided."""
        value = self._decided.get(slot)
        if value is None:
            return ()
        return tuple(command for command, _request in self._decode(value))

    def result_of(self, slot: int) -> Optional[Value]:
        """Application result for ``slot`` (None until applied).

        For a batched slot this is the *last* command's result; use
        :meth:`results_of` for the full per-command tuple.
        """
        results = self._results.get(slot)
        return results[-1] if results else None

    def results_of(self, slot: int) -> Optional[Tuple[Value, ...]]:
        """Per-command application results for ``slot`` (None until applied)."""
        return self._results.get(slot)

    def record(self, slot: int, value: Value) -> List[int]:
        """Record a slot decision; apply everything now contiguous.

        Returns the list of slots applied by this call (possibly empty).
        Re-recording a slot with the same value is a no-op; with a different
        value it raises — that would be an agreement violation upstream.
        """
        if slot < 1:
            raise ValueError(f"slots are numbered from 1, got {slot}")
        if slot in self._decided:
            if self._decided[slot] != value:
                raise RuntimeError(
                    f"conflicting decision for slot {slot}: "
                    f"{self._decided[slot]!r} vs {value!r}"
                )
            return []
        self._decided[slot] = value
        applied = []
        while self._applied_up_to + 1 in self._decided:
            nxt = self._applied_up_to + 1
            self._results[nxt] = tuple(
                self._app.apply(command if request is None else request[2])
                for command, request in self._decode(self._decided[nxt])
            )
            self._applied_up_to = nxt
            applied.append(nxt)
        return applied
