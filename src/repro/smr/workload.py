"""Closed-loop client workloads against an SMR deployment.

The serving question the paper's headline claim implies — is probabilistic
consensus cheap enough to back a *request-serving system*? — needs a load
generator, not hand-submitted commands.  :class:`WorkloadGenerator`
simulates ``num_clients`` concurrent closed-loop clients:

* each client is an :class:`~repro.smr.client.SMRClient` (uniquely
  identified ``(client_id, seq)`` envelopes, complete once ``f + 1``
  replicas report applying them) with its own deterministic RNG (derived
  from the trial seed via the canonical
  :func:`~repro.crypto.hashing.digest`), an exponential think-time
  distribution, and an in-flight ``window``;
* a completion triggers the client's next think/submit cycle — the closed
  loop;
* deployment backpressure (full replica queues) is surfaced to the client,
  which backs off one think time and retries — requests are never dropped
  by the generator.

Everything is driven by the deployment's simulator, so a (spec, seed) pair
determines every per-request latency bit-for-bit, in any process — the
property the serving determinism tests pin.

:func:`run_serving_trial` is the module-level, picklable trial function
(:class:`ServingSpec` → :class:`ServingResult`) the CLI ``repro serve``
command and the scenario cells (:data:`SERVING_ADVERSARIES` ×
:data:`LOAD_LEVELS`) share.
"""

from __future__ import annotations

import dataclasses
import math
import random
import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..adversary.behaviors import SilentReplica
from ..adversary.equivocation import EquivocatingLeader, optimal_split
from ..adversary.flooding import FloodingReplica
from ..config import ProtocolConfig
from ..core.leader import leader_of
from ..crypto.hashing import digest
from ..errors import ConfigError
from ..harness.metrics import LatencyAccumulator
from ..net.latency import ConstantLatency
from ..sync.timeouts import FixedTimeout
from ..types import ReplicaId, Value
from .app import CounterApp
from .client import RequestRecord, SMRClient, latency_accumulator
from .service import SMRDeployment, slot_stack_class

__all__ = [
    "WorkloadGenerator",
    "ServingSpec",
    "ServingResult",
    "run_serving_trial",
    "serving_cells",
    "SERVING_ADVERSARIES",
    "LOAD_LEVELS",
]


# ----------------------------------------------------------------------
# Workload generation
# ----------------------------------------------------------------------
@dataclass
class _ClientState:
    """One simulated client: its SMR client and its arrival RNG."""

    client: SMRClient
    rng: random.Random


class WorkloadGenerator:
    """Drives a client population (closed- or open-loop) against a deployment.

    Construct against a (not yet run) deployment, then :meth:`run`.  Each
    simulated client is an :class:`~repro.smr.client.SMRClient`, which keeps
    the request records, counts acks and, on a deployment that already ran,
    completes a request ordered before it attached from the replayed history
    (``recovered=True``, no RNG draw).  The generator keeps the arrival
    logic — per-client RNGs, think times, the open-loop schedule, the
    backpressure retry — and the order requests were submitted in across
    clients.  The deployment holds its watchers weakly: keep the generator
    while it should be notified.
    """

    def __init__(
        self,
        deployment: SMRDeployment,
        spec: "ServingSpec",
        seed: int = 0,
    ) -> None:
        self._deployment = deployment
        #: The client population: ``spec`` with its load level's preset
        #: filled in (:meth:`ServingSpec.workload`).
        self.spec = spec = spec.workload()
        self._total = spec.total_requests
        self.seed = seed
        self._order: List[RequestRecord] = []
        self._completed = 0
        self._retries = 0
        # The clients reach the generator weakly: it holds them, and a cycle
        # would keep the deployment alive past its last holder.
        complete = weakref.WeakMethod(self._on_complete)

        def on_complete(record: RequestRecord) -> None:
            complete()(record)

        self._clients = [
            _ClientState(
                client=SMRClient(deployment, on_complete=on_complete),
                rng=random.Random(
                    int.from_bytes(digest("smr-workload", seed, i), "big")
                ),
            )
            for i in range(spec.num_clients)
        ]
        self._by_id = {state.client.client_id: state for state in self._clients}
        self._started = False

    # ------------------------------------------------------------------
    def payload_for(self, client_id: int, seq: int) -> Value:
        """Deterministic CounterApp command for one request."""
        return f"ADD:{1 + (client_id + seq) % 9}".encode()

    def _think(self, state: _ClientState) -> float:
        if self.spec.think_time <= 0:
            return 0.0
        return state.rng.expovariate(1.0 / self.spec.think_time)

    def start(self) -> None:
        """Schedule the initial submissions (closed) or all arrivals (open)."""
        if self._started:
            return
        self._started = True
        if self.spec.arrival == "open":
            # Poisson arrivals, pre-drawn per client: cumulative exponential
            # inter-arrival times at rate offered_rate / num_clients, fired
            # on schedule regardless of completions.
            per_client_rate = self.spec.offered_rate / self.spec.num_clients
            for state in self._clients:
                at = 0.0
                for _ in range(self.spec.requests_per_client):
                    at += state.rng.expovariate(per_client_rate)
                    self._schedule_issue(state, at)
            return
        for state in self._clients:
            first = min(self.spec.window, self.spec.requests_per_client)
            for _ in range(first):
                self._schedule_issue(state, self._think(state))

    def _schedule_issue(self, state: _ClientState, delay: float) -> None:
        self._deployment.sim.schedule(delay, lambda: self._issue(state))

    def _issue(self, state: _ClientState) -> None:
        client = state.client
        seq = client.next_seq
        if seq > self.spec.requests_per_client:
            return
        record = client.submit(self.payload_for(client.client_id, seq))
        if record is None:
            # Backpressure: the deployment refused wholesale; back off.  A
            # zero think time falls back to one simulated time unit —
            # otherwise a zero-delay retry loop would spin the scheduler
            # through millions of events before the queues can drain.
            self._retries += 1
            backoff = (
                self.spec.retry_backoff
                if self.spec.retry_backoff is not None
                else (self._think(state) or 1.0)
            )
            self._schedule_issue(state, max(backoff, 1e-9))
            return
        self._order.append(record)

    def _on_complete(self, record: RequestRecord) -> None:
        self._completed += 1
        if self.spec.arrival == "open":
            return  # arrivals are pre-scheduled; completions drive nothing
        state = self._by_id[record.client_id]
        if state.client.next_seq <= self.spec.requests_per_client:
            self._schedule_issue(state, self._think(state))

    # ------------------------------------------------------------------
    def done(self) -> bool:
        """All budgeted requests issued and completed."""
        return self._completed >= self._total

    def run(
        self,
        max_time: Optional[float] = None,
        max_events: int = 20_000_000,
    ) -> "WorkloadGenerator":
        self._deployment.start()
        self.start()
        self._deployment.run_until(self.done, max_time, max_events)
        return self

    # ------------------------------------------------------------------
    @property
    def records(self) -> List[RequestRecord]:
        """Every submitted request, in submission order across clients."""
        return list(self._order)

    @property
    def issued(self) -> int:
        return len(self._order)

    @property
    def completed(self) -> int:
        return self._completed

    @property
    def retries(self) -> int:
        """Submissions refused by backpressure and rescheduled."""
        return self._retries

    def latencies(self) -> List[float]:
        """Completed per-request latencies, submission order (recovered
        requests excluded)."""
        return self.latency_accumulator().latencies

    def latency_accumulator(self) -> LatencyAccumulator:
        acc = latency_accumulator(self._order)
        # Requests the closed loop never got to issue (their predecessor
        # timed out) still count against completion accounting.
        acc.incomplete += self._total - self.issued
        return acc


# ----------------------------------------------------------------------
# Serving trials: adversaries × load levels
# ----------------------------------------------------------------------
def _equivocate(slot, seat, config, crypto, transport, protocol):
    return EquivocatingLeader(
        seat, config, crypto, transport,
        strategy=optimal_split(
            config.n, (seat,), f"evil-{slot}-a".encode(), f"evil-{slot}-b".encode()
        ),
        protocol=protocol,
    )


def _flood(slot, seat, config, crypto, transport, protocol):
    return FloodingReplica(
        seat, config, crypto, transport, burst=2, protocol=protocol
    )


def _slot_seat(attack, when_leading, slot, config, crypto, transport, protocol):
    """The one seat-aware slot rule: ``attack`` in the slots whose view-1
    leadership is ``when_leading`` for this seat, silence in the rest.

    The seat is fixed per deployment; the slot config carries the rotated
    schedule, so with rotation off the seat leads view 1 of every slot or
    of none, and with rotation on ~1/n of them.  The equivocator needs the
    lead; the flooder fires on its leader's proposal, so it attacks the
    slots it does not lead (in its own it would be a crash-faulty leader).
    """
    seat = transport.replica
    if (leader_of(1, config) == seat) != when_leading:
        return SilentReplica(seat, config, crypto, transport)
    return attack(slot, seat, config, crypto, transport, protocol)


#: Serving-cell adversaries: name → (replica_id, per-slot factory), every
#: factory the seat-aware :func:`_slot_seat` rule over an existing seat in
#: the slot protocol's dialect.  Seat 0 / seat 1 match the fixed-leader
#: schedule: with rotation off the equivocator leads every slot and the
#: flooder none.
SERVING_ADVERSARIES: Dict[str, Optional[Tuple[ReplicaId, Callable]]] = {
    "none": None,
    "equivocating-leader": (0, partial(_slot_seat, _equivocate, True)),
    "flooding": (1, partial(_slot_seat, _flood, False)),
}

#: Load-level presets for the serving matrix: the client population, and
#: the aggregate open-loop rate (requests per simulated second; "low" sits
#: well under the no-fault service rate, "high" pushes toward saturation so
#: queueing shows up in the latency tail).
LOAD_LEVELS: Dict[str, Dict[str, object]] = {
    "low": {
        "num_clients": 12,
        "requests_per_client": 4,
        "think_time": 8.0,
        "window": 1,
        "offered_rate": 1.0,
    },
    "high": {
        "num_clients": 48,
        "requests_per_client": 5,
        "think_time": 1.0,
        "window": 2,
        "offered_rate": 6.0,
    },
}


@dataclass(frozen=True)
class ServingSpec:
    """One serving trial, as declarative (picklable) data.

    The serving twin of :class:`~repro.harness.trial.DeploymentSpec`:
    everything :func:`run_serving_trial` needs to rebuild the deployment,
    the adversary, and the client population from scratch in any process.
    ``protocol`` is the slot protocol, a registered protocol name
    (:func:`~repro.smr.service.slot_stack_class`).

    The default ``n = 9`` is the smallest deployment where probabilistic
    quorums stay attainable with a faulty member: ``q = ⌈2√n⌉ = 6 ≤ n − f =
    7``.  At ``n = 4`` the quorum needs all four replicas, so any Byzantine
    seat (equivocating, flooding — both are absent from honest vote counts)
    makes every slot unattainable and the serving cells starve.

    The client population is the ``load`` level's preset, each field left
    ``None`` taken from it (:meth:`workload`), under one of two arrival
    disciplines:

    * ``arrival="closed"`` (the default): each client keeps up to ``window``
      requests outstanding and thinks for an exponential time (mean
      ``think_time``; 0 disables thinking) between a completion and the next
      submission — offered load adapts to service rate.
    * ``arrival="open"``: each client pre-draws Poisson arrivals at rate
      ``offered_rate / num_clients`` (aggregate ``offered_rate`` requests
      per simulated second) and submits on schedule regardless of
      completions — the discipline that exposes latency under saturation
      instead of letting slow service throttle the load.

    ``retry_backoff`` is the delay before retrying a submission the
    deployment refused (backpressure); ``None`` means one think-time
    sample.  Requests are never dropped in either mode.
    """

    protocol: str = "probft"
    n: int = 9
    f: Optional[int] = None
    adversary: str = "none"
    load: str = "high"
    num_clients: Optional[int] = None
    requests_per_client: Optional[int] = None
    think_time: Optional[float] = None
    window: Optional[int] = None
    retry_backoff: Optional[float] = None
    batch_size: int = 8
    pipeline: int = 4
    max_pending: Optional[int] = 64
    num_slots: Optional[int] = None
    seed: int = 0
    latency: float = 1.0
    timeout: float = 10.0
    max_time: float = 20_000.0
    max_events: int = 20_000_000
    rotate_leaders: bool = False
    arrival: str = "closed"
    offered_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.adversary not in SERVING_ADVERSARIES:
            raise ConfigError(
                f"unknown adversary {self.adversary!r}; known: "
                f"{', '.join(sorted(SERVING_ADVERSARIES))}"
            )
        if self.load not in LOAD_LEVELS:
            raise ConfigError(
                f"unknown load level {self.load!r}; known: "
                f"{', '.join(sorted(LOAD_LEVELS))}"
            )
        if self.arrival not in ("closed", "open"):
            raise ConfigError(
                f"arrival must be 'closed' or 'open', got {self.arrival!r}"
            )
        slot_stack_class(self.protocol)
        for name in (
            "num_clients", "requests_per_client", "window",
            "batch_size", "pipeline", "max_pending", "num_slots",
        ):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        for name, bound in (
            ("think_time", ">="), ("retry_backoff", ">="), ("offered_rate", ">"),
        ):
            value = getattr(self, name)
            if value is not None and not (
                math.isfinite(value) and (value >= 0 if bound == ">=" else value > 0)
            ):
                raise ConfigError(f"need a finite {name} {bound} 0, got {value}")
        if not self.timeout > 0:
            raise ConfigError(f"timeout must be > 0, got {self.timeout}")

    def workload(self) -> "ServingSpec":
        """This spec with every client-population field it leaves ``None``
        taken from its load level's preset."""
        preset = LOAD_LEVELS[self.load]
        unset = {k: v for k, v in preset.items() if getattr(self, k) is None}
        return dataclasses.replace(self, **unset) if unset else self

    @property
    def total_requests(self) -> int:
        workload = self.workload()
        return workload.num_clients * workload.requests_per_client

    def slots(self) -> int:
        """Slot budget: headroom for requeues and adversary-burned slots."""
        if self.num_slots is not None:
            return self.num_slots
        return self.total_requests + 4 * self.pipeline + 16


@dataclass(frozen=True)
class ServingResult:
    """Summary of one serving trial (picklable, JSON-ready via ``row()``)."""

    protocol: str
    adversary: str
    load: str
    n: int
    f: int
    batch_size: int
    pipeline: int
    seed: int
    issued: int
    completed: int
    timed_out: int
    retries: int
    throughput: float
    mean_latency: Optional[float]
    p50_latency: Optional[float]
    p99_latency: Optional[float]
    p999_latency: Optional[float]
    sim_time: float
    slots_applied: int
    logs_consistent: bool
    recovered: int = 0
    rotate_leaders: bool = False
    arrival: str = "closed"
    #: Completed per-request latencies in submission order — the golden
    #: determinism witness (bit-identical for equal (spec, seed) anywhere).
    latencies: Tuple[float, ...] = field(default=(), repr=False)
    #: How the deployment's buckets were delivered
    #: (:meth:`SMRDeployment.vote_kernel_stats`): says which stack ran, never
    #: what it computed, so it is no part of a result's identity.
    kernel_stats: Dict[str, int] = field(
        default_factory=dict, repr=False, compare=False
    )

    def row(self) -> Dict[str, object]:
        """Flat dict for report tables and the committed bench JSON: every
        summary field, then the route counters."""
        row = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.compare and f.name != "latencies"
        }
        row.update(self.kernel_stats)
        return row


def build_serving_deployment(
    spec: ServingSpec, *, reference: bool = False
) -> SMRDeployment:
    """Construct (without running) the deployment a spec describes
    (``reference=True``: the test oracle, see :class:`SMRDeployment`)."""
    config = ProtocolConfig(n=spec.n, f=spec.f)
    adversary = SERVING_ADVERSARIES[spec.adversary]
    return SMRDeployment(
        config,
        CounterApp,
        num_slots=spec.slots(),
        seed=spec.seed,
        latency=ConstantLatency(spec.latency),
        timeout_policy=FixedTimeout(spec.timeout),
        byzantine=dict([adversary]) if adversary else None,
        pipeline=spec.pipeline,
        batch_size=spec.batch_size,
        max_pending=spec.max_pending,
        eager_slots=False,
        rotate_leaders=spec.rotate_leaders,
        protocol=spec.protocol,
        reference=reference,
    )


def serving_throughput(records: List[RequestRecord]) -> float:
    """Live throughput: completions per sim-second over the serving span.

    Only *live* completions count — recovered requests complete at replay
    time with no service behind them, so a trial where every completion was
    recovered reports ``0.0`` (with the ``recovered`` count explaining why)
    instead of dividing a completion count by a zero or meaningless span.
    Trailing timeout noise after the last live completion is idle time, not
    service, hence the max-completion denominator.
    """
    live = [r for r in records if r.completed and not r.recovered]
    if not live:
        return 0.0
    last_completion = max(r.completed_at for r in live)
    if last_completion <= 0:
        return 0.0
    return len(live) / last_completion


def run_serving_trial(spec: ServingSpec) -> ServingResult:
    """Build, load, and summarize one serving trial (picklable entry point)."""
    return serve(spec, build_serving_deployment(spec))


def serve(spec: ServingSpec, deployment: SMRDeployment) -> ServingResult:
    """Load a (fresh) deployment with the spec's workload and summarize."""
    generator = WorkloadGenerator(deployment, spec, seed=spec.seed)
    generator.run(max_time=spec.max_time, max_events=spec.max_events)
    acc = generator.latency_accumulator()
    throughput = serving_throughput(generator.records)
    return ServingResult(
        protocol=spec.protocol,
        adversary=spec.adversary,
        load=spec.load,
        n=deployment.config.n,
        f=deployment.config.f,
        batch_size=spec.batch_size,
        pipeline=spec.pipeline,
        seed=spec.seed,
        issued=generator.issued,
        completed=generator.completed,
        timed_out=acc.incomplete,
        retries=generator.retries,
        throughput=throughput,
        mean_latency=acc.mean,
        p50_latency=acc.p50,
        p99_latency=acc.p99,
        p999_latency=acc.p999,
        sim_time=deployment.sim.now,
        slots_applied=max(
            (
                r.log.applied_up_to
                for r in deployment.correct_replicas().values()
            ),
            default=0,
        ),
        logs_consistent=deployment.logs_consistent(),
        recovered=acc.recovered,
        rotate_leaders=spec.rotate_leaders,
        arrival=spec.arrival,
        latencies=tuple(acc.latencies),
        kernel_stats=deployment.vote_kernel_stats(),
    )


def serving_cells(
    adversaries: Optional[List[str]] = None,
    loads: Optional[List[str]] = None,
    rotations: Optional[List[bool]] = None,
    arrivals: Optional[List[str]] = None,
    **overrides,
) -> List[ServingSpec]:
    """The serving scenario matrix: adversaries × loads × rotation × arrival.

    The rotation and arrival axes default to the single historical cell
    (fixed leaders, closed loop), so existing callers get the same matrix
    as before.
    """
    adversaries = (
        list(SERVING_ADVERSARIES) if adversaries is None else adversaries
    )
    loads = list(LOAD_LEVELS) if loads is None else loads
    rotations = [False] if rotations is None else rotations
    arrivals = ["closed"] if arrivals is None else arrivals
    return [
        ServingSpec(
            adversary=adversary,
            load=load,
            rotate_leaders=rotate,
            arrival=arrival,
            **overrides,
        )
        for adversary in adversaries
        for load in loads
        for rotate in rotations
        for arrival in arrivals
    ]
