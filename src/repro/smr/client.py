"""SMR client: submits identified requests and tracks end-to-end latency.

Models the standard BFT client: wrap each command in a ``(client_id, seq)``
request envelope (:mod:`repro.smr.encoding`), broadcast it to all replicas,
and consider it complete once ``f + 1`` replicas report having *applied* it
(at least one of those reports is from a correct replica, so the result is
authoritative).

Request identity is the envelope, not the payload: two clients submitting
``b"INC"`` — or one client submitting it twice — are distinct requests with
distinct log entries and independently tracked latencies.

Clients may attach to a deployment at any time.  A client constructed
after ``deployment.start()`` replays the applies the deployment has
already recorded into a local history, so a re-attached client (same
``client_id``) resubmitting a request that was in fact ordered while it
was away completes immediately from history (``record.recovered`` is set)
instead of hanging forever.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..harness.metrics import LatencyAccumulator
from ..types import ReplicaId, Value
from .encoding import encode_request
from .service import SMRDeployment


def majority_slot(history: Mapping[ReplicaId, int]) -> int:
    """The slot confirmed by the most replicas (ties break to the smallest).

    A request's ack history maps replica → the slot that replica applied it
    in.  Correct replicas agree, so the majority slot is the authoritative
    one; taking an arbitrary entry instead would let a single Byzantine
    replica reporting a divergent slot poison the record.
    """
    counts = Counter(history.values())
    top = max(counts.values())
    return min(slot for slot, count in counts.items() if count == top)


def latency_accumulator(records: Iterable["RequestRecord"]) -> LatencyAccumulator:
    """The latency distribution of ``records`` (a client's ``requests``, a
    workload's records): completed latencies in order, unfinished requests
    counted as incomplete, and recovered ones counted apart — their zero
    "latency" measures nothing and would drag the percentiles down."""
    acc = LatencyAccumulator()
    for record in records:
        if record.recovered:
            acc.add_recovered()
        else:
            acc.add(record.latency)
    return acc


@dataclass
class RequestRecord:
    """Lifecycle of one client request."""

    client_id: int
    seq: int
    payload: Value
    command: Value  # the full request envelope as it appears in the log
    submitted_at: float
    #: replica -> the slot it applied the request in.
    acked_by: Dict[ReplicaId, int] = field(default_factory=dict)
    completed_at: Optional[float] = None
    slot: Optional[int] = None  # majority_slot(acked_by), set on completion
    recovered: bool = False  # completed from replayed pre-attach history

    @property
    def request_id(self) -> Tuple[int, int]:
        return (self.client_id, self.seq)

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


class SMRClient:
    """A client of an :class:`SMRDeployment`.

    May be wired before or after the deployment starts: construction
    replays already-recorded applies into an ack history (see module
    docstring), then hooks the deployment's apply notifications for live
    completion tracking.

    ``on_complete`` (settable any time) is invoked with each
    :class:`RequestRecord` the moment it completes — the closed-loop hook
    the workload generator uses to issue a client's next request.
    """

    def __init__(
        self,
        deployment: SMRDeployment,
        client_id: Optional[int] = None,
        on_complete: Optional[Callable[[RequestRecord], None]] = None,
    ) -> None:
        self._deployment = deployment
        self.client_id = (
            deployment.allocate_client_id() if client_id is None else client_id
        )
        self.on_complete = on_complete
        #: The sequence number the next unpinned ``submit`` uses.
        self.next_seq = 1
        # In submission order.
        self._requests: Dict[Tuple[int, int], RequestRecord] = {}
        self._ack_threshold = deployment.config.f + 1
        # Acks for this client's request ids that came before the matching
        # ``submit``: the replayed pre-attach history (empty, and free, on a
        # fresh deployment) plus live applies of requests not submitted yet.
        # Request id -> {replica: slot}.
        self._history: Dict[Tuple[int, int], Dict[ReplicaId, int]] = {}
        for replica, entries in deployment.applied.items():
            for slot, value in entries:
                for _command, request in deployment.stack.decode(value):
                    if request is not None and request[0] == self.client_id:
                        self._history.setdefault(request[:2], {})[replica] = slot
        # Register for this client id's applies: the deployment decodes each
        # command once and dispatches to the owning client (O(1) per apply),
        # and holds the watcher weakly — a client lives as long as its user
        # keeps it.
        deployment.watch_applies(self.client_id, self._on_request_apply)

    # ------------------------------------------------------------------
    def submit(
        self, payload: Value, seq: Optional[int] = None
    ) -> Optional[RequestRecord]:
        """Submit ``payload`` as this client's next request.

        Broadcasts the enveloped request to every replica and returns its
        :class:`RequestRecord`, or ``None`` when the deployment refused it
        (backpressure: replica queues full) — nothing was queued and no
        sequence number was consumed; retry later.

        ``seq`` pins an explicit sequence number (re-attachment /
        resubmission); if the deployment already ordered that request on
        ``f + 1`` replicas while this client was away, the record completes
        immediately from history with ``recovered=True`` and zero latency,
        without submitting anything.
        """
        if seq is None:
            seq = self.next_seq
        request_id = (self.client_id, seq)
        if request_id in self._requests:
            raise ValueError(
                f"request id {request_id} already submitted by this client"
            )
        now = self._deployment.sim.now
        record = RequestRecord(
            client_id=self.client_id,
            seq=seq,
            payload=payload,
            command=encode_request(self.client_id, seq, payload),
            submitted_at=now,
        )
        history = self._history.get(request_id)
        if history is not None and len(history) >= self._ack_threshold:
            # Ordered while we were away; complete from replayed history.
            record.completed_at = now
            record.recovered = True
        elif not self._deployment.submit_to_all(record.command):
            return None
        if history is not None:
            record.acked_by = self._history.pop(request_id)
            record.slot = majority_slot(record.acked_by)
        self._requests[request_id] = record
        self.next_seq = max(self.next_seq, seq + 1)
        if record.recovered and self.on_complete is not None:
            self.on_complete(record)
        return record

    def _on_request_apply(
        self,
        replica: ReplicaId,
        slot: int,
        command: Value,
        decoded: Tuple[int, int, Value],
    ) -> None:
        request_id = decoded[:2]
        record = self._requests.get(request_id)
        if record is None:
            self._history.setdefault(request_id, {})[replica] = slot
            return
        if record.completed_at is not None:
            return
        acked = record.acked_by
        acked[replica] = slot
        if len(acked) >= self._ack_threshold:
            record.completed_at = self._deployment.sim.now
            record.slot = majority_slot(acked)
            if self.on_complete is not None:
                self.on_complete(record)

    # ------------------------------------------------------------------
    @property
    def requests(self) -> List[RequestRecord]:
        return list(self._requests.values())

    def request(self, seq: int) -> Optional[RequestRecord]:
        return self._requests.get((self.client_id, seq))

    def all_completed(self) -> bool:
        return all(r.completed for r in self._requests.values())
