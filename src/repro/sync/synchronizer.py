"""Wish-based view synchronizer.

Implements the synchronizer abstraction of Bravo, Chockler & Gotsman [6] with
Bracha-style amplification:

* when a replica's view timer expires it broadcasts ``Wish(v+1)``;
* on seeing wishes for a view ``v' > current`` from ``f+1`` distinct replicas
  it echoes ``Wish(v')`` (at least one wisher is correct, so joining is safe);
* on seeing wishes from ``2f+1`` distinct replicas it *enters* ``v'`` and
  notifies the protocol via ``newView(v')``.

After GST, if any correct replica is stuck, timers eventually fire, wishes
amplify, and all correct replicas converge to a common view with a timeout
long enough to decide (given a growing :class:`TimeoutPolicy`).

State layout
------------

Per sender only the *highest* view wished matters, and the two rules only
ever ask one question of it: the ``k``-th highest of those values
(``k = f+1`` to relay, ``k = 2f+1`` to enter).  :class:`ViewSynchronizer`
is one algorithm over two backends that answer it:

* :class:`WishLedger` (the default: the ``reference=True`` oracle,
  Byzantine wrappers, unit tests) — a ``sender -> view`` dict plus
  the same values kept in ascending order, updated per accepted wish by a
  binary search and a C-level ``memmove`` instead of a fresh ``sorted()``;
* the shared columns of :mod:`repro.sync.columns` (every production
  deployment) — per *live* view ``v`` a packed seen-bitmap and a count
  vector over all replicas, where ``count[v][d]`` is the number of senders
  whose highest wish at ``d`` is ``>= v``.  That count is non-increasing in
  ``v``, so "the ``k``-th highest wish" is exactly "the largest ``v`` with
  ``count[v][d] >= k``", and only views some replica has actually wished
  can be the answer.  The wish bucket kernel writes the same arrays a whole
  fan-out at a time; this class reaches them through a scalar facade for
  its own wishes and for every wish that arrives outside a vectorised
  bucket.

Checks run cheapest first: the wire type, ``signer == src``, domain and the
stale/duplicate test are lookups; only a wish that would be recorded pays a
signature verification, so replayed wishes cost no crypto — and in a
production instance that verification is itself one lookup per recipient in
the instance's verdict table (:mod:`repro.crypto.verdicts`): a broadcast
Wish is one object.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..crypto.signatures import SignatureScheme, Signed
from ..messages.base import CanonicalMessage, conforms
from ..net.transport import Transport
from ..types import ReplicaId, View
from .timeouts import ExponentialTimeout, TimeoutPolicy


def _no_upcall(view: View) -> None:
    """Upcall of a stopped synchronizer (which enters no view)."""


@dataclass(frozen=True)
class Wish(CanonicalMessage):
    """A signed declaration "I want to enter view ``view``".

    ``domain`` scopes the wish to one consensus instance (SMR slots).
    """

    TYPE = "Wish"

    view: View
    domain: str = ""


class WishLedger:
    """Dict backend: each sender's highest wish, and those values in order."""

    __slots__ = ("_highest", "_order")

    def __init__(self) -> None:
        self._highest: Dict[ReplicaId, View] = {}
        self._order: List[View] = []  # the dict's values, ascending

    def accepts(self, sender: ReplicaId, view: View) -> bool:
        """Whether ``view`` beats the sender's recorded highest wish."""
        return view > self._highest.get(sender, 0)

    def record(self, sender: ReplicaId, view: View) -> None:
        """Raise the sender's highest wish to ``view`` (must be accepted)."""
        previous = self._highest.get(sender)
        order = self._order
        if previous is not None:
            del order[bisect_left(order, previous)]
        insort(order, view)
        self._highest[sender] = view

    def kth_highest(self, k: int) -> View:
        """Largest view wished by at least ``k`` senders (0 if none)."""
        order = self._order
        return order[-k] if len(order) >= k else 0

    def note_progress(self, current_view: View, max_wish_sent: View) -> None:
        """Nothing to mirror: the ledger belongs to one replica."""

    def note_stopped(self) -> None:
        """Nothing to mirror."""


class ViewSynchronizer:
    """Per-replica synchronizer endpoint.

    Args:
        transport: the replica's network endpoint.
        f: fault threshold (relay at ``f+1`` wishes, enter at ``2f+1``).
        signatures: signing service (wishes are signed like everything else).
        on_new_view: protocol callback, the paper's ``newView(v)`` upcall.
        timeout_policy: per-view duration budget.

    The synchronizer starts in view 0 (no view); call :meth:`start` to enter
    view 1 locally and arm the first timer.
    """

    def __init__(
        self,
        transport: Transport,
        f: int,
        signatures: SignatureScheme,
        on_new_view: Callable[[View], None],
        timeout_policy: Optional[TimeoutPolicy] = None,
        domain: str = "",
    ) -> None:
        self._transport = transport
        self._f = f
        self._signatures = signatures
        self._on_new_view = on_new_view
        self._timeouts = timeout_policy or ExponentialTimeout()
        self._domain = domain
        self._current_view: View = 0
        self._max_wish_sent: View = 0
        self._wishes = WishLedger()
        self._timer = None
        self._stopped = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def current_view(self) -> View:
        return self._current_view

    @property
    def domain(self) -> str:
        return self._domain

    def use_wish_state(self, wishes) -> None:
        """Swap the wish backend (before any wish is recorded): a deployment
        hands every correct replica its column of the shared state."""
        self._wishes = wishes

    def start(self) -> None:
        """Enter view 1 and arm its timer (every replica calls this at t=0)."""
        self._enter_view(1)

    def stop(self) -> None:
        """Stop for good (simulation teardown): cancel the timer, ignore
        every later wish and let go of the protocol upcall, so a stopped
        synchronizer no longer keeps its replica in a reference cycle."""
        self._stopped = True
        self._wishes.note_stopped()
        self._cancel_timer()
        self._on_new_view = _no_upcall

    def on_wish(self, src: ReplicaId, signed: Signed) -> None:
        """Handle a received (signed) wish message."""
        if self._stopped:
            return
        wish = getattr(signed, "payload", None)
        table = self._signatures.verdicts  # (shape walked once per object)
        if not isinstance(wish, Wish) or not conforms(signed, Signed, table):
            return
        view = wish.view
        if signed.signer != src or wish.domain != self._domain:
            return
        if not self._wishes.accepts(src, view):
            return  # stale or replayed: rejected before any crypto
        if not self._signatures.verify(signed):
            return
        self._wishes.record(src, view)
        self._react_to_wishes()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _react_to_wishes(self) -> None:
        """Apply the f+1 relay and 2f+1 enter rules for the best candidate."""
        relay_view = self._wishes.kth_highest(self._f + 1)
        if relay_view > self._max_wish_sent:
            self._send_wish(relay_view)
        enter_view = self._wishes.kth_highest(2 * self._f + 1)
        if enter_view > self._current_view:
            self._enter_view(enter_view)

    def _send_wish(self, view: View) -> None:
        self._max_wish_sent = view
        wishes = self._wishes
        wishes.note_progress(self._current_view, view)
        me = self._transport.replica
        signed = self._signatures.sign(me, Wish(view=view, domain=self._domain))
        # A wish counts for its own sender too.
        if wishes.accepts(me, view):
            wishes.record(me, view)
        self._transport.broadcast(signed)
        self._react_to_wishes()

    def _enter_view(self, view: View) -> None:
        self._current_view = view
        self._wishes.note_progress(view, self._max_wish_sent)
        self._cancel_timer()
        duration = self._timeouts.timeout_for(view)
        self._timer = self._transport.schedule(
            duration, lambda v=view: self._on_timeout(v)
        )
        self._on_new_view(view)

    def _on_timeout(self, view: View) -> None:
        if self._stopped or view != self._current_view:
            return
        wish_for = self._current_view + 1
        if wish_for > self._max_wish_sent:
            self._send_wish(wish_for)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
