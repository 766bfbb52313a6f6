"""State machine replication on top of ProBFT (the paper's future work, §7).

The paper closes by proposing "a scalable state machine replication protocol"
built from ProBFT.  This package is that construction in its simplest sound
form: an ordered log of *slots*, each decided by an independent consensus
instance whose messages and VRF seeds are domain-scoped to the slot
(``seed_domain = "slot-k"``), so instances cannot replay one another's
messages.  The slot protocol is a registered protocol name —
``"probft"`` by default, any protocol on the ProBFT skeleton (``"pbft"``)
by passing ``protocol=`` to :class:`~repro.smr.service.SMRDeployment` or
:class:`~repro.smr.workload.ServingSpec` (``repro serve --protocol``).

* :mod:`repro.smr.app` — the application interface plus two reference state
  machines (counter, key-value store).
* :mod:`repro.smr.encoding` — wire framing inside consensus values: request
  envelopes (``(client_id, seq)`` identities) and command batches.
* :mod:`repro.smr.log` — the ordered decision log with in-order application.
* :mod:`repro.smr.replica` — an SMR replica multiplexing per-slot instances
  of the slot protocol over one transport (batching, pipelining,
  backpressure), plus the Byzantine slot multiplexer hosting one seat in
  every slot.
* :mod:`repro.smr.service` — deployment wiring (every deployment's
  ``byzantine=`` seat map) and consistency checks.
* :mod:`repro.smr.client` — the request-id client API.
* :mod:`repro.smr.workload` — closed- and open-loop load generation, the one
  serving spec and the serving trial entry point (registered seat
  behaviours × load levels).
"""

from .app import StateMachine, CounterApp, KeyValueApp, NOOP
from .client import RequestRecord, SMRClient
from .encoding import (
    commands_in,
    decode_batch,
    decode_request,
    encode_batch,
    encode_request,
    request_payload,
)
from .log import DecisionLog
from .replica import ByzantineSlotMultiplexer, SMRReplica, SlotEnvelope
from .service import SMRDeployment
from .workload import (
    LOAD_LEVELS,
    SERVING_ADVERSARIES,
    ServingResult,
    ServingSpec,
    WorkloadGenerator,
    run_serving_trial,
    serving_cells,
    serving_seats,
)

__all__ = [
    "StateMachine",
    "CounterApp",
    "KeyValueApp",
    "NOOP",
    "DecisionLog",
    "SMRReplica",
    "ByzantineSlotMultiplexer",
    "SlotEnvelope",
    "SMRDeployment",
    "SMRClient",
    "RequestRecord",
    "encode_request",
    "decode_request",
    "request_payload",
    "encode_batch",
    "decode_batch",
    "commands_in",
    "WorkloadGenerator",
    "ServingSpec",
    "ServingResult",
    "run_serving_trial",
    "serving_cells",
    "serving_seats",
    "SERVING_ADVERSARIES",
    "LOAD_LEVELS",
]
