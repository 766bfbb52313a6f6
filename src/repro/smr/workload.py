"""Closed-loop client workloads against an SMR deployment.

The serving question the paper's headline claim implies — is probabilistic
consensus cheap enough to back a *request-serving system*? — needs a load
generator, not hand-submitted commands.  :class:`WorkloadGenerator`
simulates ``num_clients`` concurrent closed-loop clients:

* each client has its own deterministic RNG (derived from the trial seed
  via the canonical :func:`~repro.crypto.hashing.digest`), an exponential
  think-time distribution, and an in-flight ``window``;
* requests are uniquely identified ``(client_id, seq)`` envelopes
  (:mod:`repro.smr.encoding`) broadcast through
  :meth:`~repro.smr.service.SMRDeployment.submit_to_all`;
* a request completes when ``f + 1`` replicas report applying it; the
  completion event triggers the client's next think/submit cycle — the
  closed loop;
* deployment backpressure (full replica queues) is surfaced to the client,
  which backs off one think time and retries — requests are never dropped
  by the generator.

Everything is driven by the deployment's simulator, so a (spec, seed) pair
determines every per-request latency bit-for-bit, in any process, for any
engine worker count — the property the serving determinism tests pin.

:func:`run_serving_trial` is the module-level, picklable trial function
(:class:`ServingSpec` → :class:`ServingResult`) the CLI ``repro serve``
command, the scenario cells (:data:`SERVING_ADVERSARIES` ×
:data:`LOAD_LEVELS`), and ``benchmarks/bench_smr_serving.py`` all share.
"""

from __future__ import annotations

import random
import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..config import ProtocolConfig
from ..crypto.hashing import digest
from ..errors import ConfigError
from ..harness.metrics import LatencyAccumulator
from ..net.latency import ConstantLatency
from ..sync.timeouts import FixedTimeout
from ..types import ReplicaId, Value
from .app import CounterApp
from .client import RequestRecord, applied_requests, majority_slot
from .encoding import encode_request
from .replica import SilentEndpoint
from .service import SMRDeployment

__all__ = [
    "WorkloadSpec",
    "WorkloadGenerator",
    "ServingSpec",
    "ServingResult",
    "run_serving_trial",
    "run_serving_trial_spec",
    "serving_cells",
    "serving_trials",
    "SERVING_ADVERSARIES",
    "LOAD_LEVELS",
    "OPEN_LOOP_RATES",
]


# ----------------------------------------------------------------------
# Workload generation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of a client population.

    Two arrival disciplines:

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

    num_clients: int = 16
    requests_per_client: int = 4
    think_time: float = 4.0
    window: int = 1
    retry_backoff: Optional[float] = None
    arrival: str = "closed"
    offered_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ConfigError(f"num_clients must be >= 1, got {self.num_clients}")
        if self.requests_per_client < 1:
            raise ConfigError(
                f"requests_per_client must be >= 1, got {self.requests_per_client}"
            )
        if self.think_time < 0:
            raise ConfigError(f"think_time must be >= 0, got {self.think_time}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.arrival not in ("closed", "open"):
            raise ConfigError(
                f"arrival must be 'closed' or 'open', got {self.arrival!r}"
            )
        if self.arrival == "open":
            if self.offered_rate is None or self.offered_rate <= 0:
                raise ConfigError(
                    "open-loop arrivals need offered_rate > 0, got "
                    f"{self.offered_rate!r}"
                )

    @property
    def total_requests(self) -> int:
        return self.num_clients * self.requests_per_client


@dataclass
class _ClientState:
    """One simulated closed-loop client."""

    client_id: int
    rng: random.Random
    next_seq: int = 1
    issued: int = 0


class WorkloadGenerator:
    """Drives a client population (closed- or open-loop) against a deployment.

    Construct against a (not yet run) deployment, then :meth:`run`.  Each
    client registers a request-apply watcher with the deployment, which
    decodes every applied command once and dispatches it to the owning
    client in O(1) — what lets populations run to thousands of clients.
    The deployment holds watchers weakly: keep the generator while it
    should be notified.  Requests are tracked
    with the same :class:`~repro.smr.client.RequestRecord` lifecycle as
    :class:`~repro.smr.client.SMRClient`.

    Like ``SMRClient``, a generator built against a deployment that already
    ran replays the recorded applies: a request whose ``(client_id, seq)``
    envelope was ordered on ``f + 1`` replicas before this generator
    attached completes from history with ``recovered=True`` instead of
    being resubmitted.  On a fresh deployment the replay is empty and draws
    no randomness, so generator identity is unaffected.
    """

    def __init__(
        self,
        deployment: SMRDeployment,
        spec: WorkloadSpec,
        seed: int = 0,
    ) -> None:
        self._deployment = deployment
        self.spec = spec
        self.seed = seed
        self._ack_threshold = deployment.config.f + 1
        self._records: Dict[Tuple[int, int], RequestRecord] = {}
        self._order: List[Tuple[int, int]] = []
        self._completed = 0
        self._recovered = 0
        self._retries = 0
        self._clients = [
            _ClientState(
                client_id=deployment.allocate_client_id(),
                rng=random.Random(
                    int.from_bytes(digest("smr-workload", seed, i), "big")
                ),
            )
            for i in range(spec.num_clients)
        ]
        self._by_id = {client.client_id: client for client in self._clients}
        for client in self._clients:
            deployment.watch_applies(client.client_id, self._on_request_apply)
        # Late-attach replay: applies recorded before this generator existed.
        self._history = applied_requests(deployment, self._by_id)
        self._started = False

    # ------------------------------------------------------------------
    def payload_for(self, client_id: int, seq: int) -> Value:
        """Deterministic CounterApp command for one request."""
        return f"ADD:{1 + (client_id + seq) % 9}".encode()

    def _think(self, client: _ClientState) -> float:
        if self.spec.think_time <= 0:
            return 0.0
        return client.rng.expovariate(1.0 / self.spec.think_time)

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
            for client in self._clients:
                at = 0.0
                for _ in range(self.spec.requests_per_client):
                    at += client.rng.expovariate(per_client_rate)
                    self._schedule_issue(client, at)
            return
        for client in self._clients:
            first = min(self.spec.window, self.spec.requests_per_client)
            for _ in range(first):
                self._schedule_issue(client, self._think(client))

    def _schedule_issue(self, client: _ClientState, delay: float) -> None:
        self._deployment.sim.schedule(delay, lambda: self._issue(client))

    def _issue(self, client: _ClientState) -> None:
        if client.issued >= self.spec.requests_per_client:
            return
        request_id = (client.client_id, client.next_seq)
        payload = self.payload_for(*request_id)
        command = encode_request(*request_id, payload)
        history = self._history.get(request_id)
        # Ordered before this generator attached: complete from replayed
        # history without resubmitting (no RNG draws on this path).
        recovered = history is not None and len(history) >= self._ack_threshold
        if not recovered and not self._deployment.submit_to_all(command):
            # Backpressure: the deployment refused wholesale; back off.  A
            # zero think time falls back to one simulated time unit —
            # otherwise a zero-delay retry loop would spin the scheduler
            # through millions of events before the queues can drain.
            self._retries += 1
            backoff = (
                self.spec.retry_backoff
                if self.spec.retry_backoff is not None
                else (self._think(client) or 1.0)
            )
            self._schedule_issue(client, max(backoff, 1e-9))
            return
        client.next_seq += 1
        client.issued += 1
        record = RequestRecord(
            client_id=request_id[0],
            seq=request_id[1],
            payload=payload,
            command=command,
            submitted_at=self._deployment.sim.now,
        )
        self._records[request_id] = record
        self._order.append(request_id)
        if recovered:
            record.acked_by = set(history)
            record.completed_at = record.submitted_at
            record.slot = majority_slot(history)
            record.recovered = True
            self._completed += 1
            self._recovered += 1
            self._on_request_complete(record)

    def _on_request_apply(
        self,
        replica: ReplicaId,
        slot: int,
        command: Value,
        decoded: Tuple[int, int, Value],
    ) -> None:
        record = self._records.get((decoded[0], decoded[1]))
        if record is None or record.completed:
            return
        record.acked_by.add(replica)
        record.slot = slot
        if len(record.acked_by) >= self._ack_threshold:
            record.completed_at = self._deployment.sim.now
            self._completed += 1
            self._on_request_complete(record)

    def _on_request_complete(self, record: RequestRecord) -> None:
        if self.spec.arrival == "open":
            return  # arrivals are pre-scheduled; completions drive nothing
        client = self._by_id[record.client_id]
        if client.issued < self.spec.requests_per_client:
            self._schedule_issue(client, self._think(client))

    # ------------------------------------------------------------------
    def done(self) -> bool:
        """All budgeted requests issued and completed."""
        return self._completed >= self.spec.total_requests

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
        return [self._records[rid] for rid in self._order]

    @property
    def issued(self) -> int:
        return len(self._order)

    @property
    def completed(self) -> int:
        return self._completed

    @property
    def recovered(self) -> int:
        """Requests completed from replayed pre-attach history."""
        return self._recovered

    @property
    def retries(self) -> int:
        """Submissions refused by backpressure and rescheduled."""
        return self._retries

    def latencies(self) -> List[float]:
        """Completed per-request latencies, submission order.

        Recovered requests are excluded: their zero "latency" measures
        nothing and would drag the percentiles down.
        """
        return [
            r.latency for r in self.records if r.completed and not r.recovered
        ]

    def latency_accumulator(self) -> LatencyAccumulator:
        acc = LatencyAccumulator()
        for record in self.records:
            if record.recovered:
                acc.add_recovered()
            else:
                acc.add(record.latency)
        # Requests the closed loop never got to issue (their predecessor
        # timed out) still count against completion accounting.
        acc.incomplete += self.spec.total_requests - self.issued
        return acc


# ----------------------------------------------------------------------
# Serving trials: adversaries × load levels
# ----------------------------------------------------------------------
def _slot_view1_leader(config: ProtocolConfig) -> ReplicaId:
    """The view-1 leader a slot config designates: ``leader_offset mod n``."""
    return config.leader_offset % config.n


def _equivocating_slot_factory(slot, config, crypto, transport):
    from ..adversary.equivocation import EquivocatingLeader, optimal_split

    # Install the equivocator only in slots this seat actually leads in
    # view 1 (the slot config carries the rotated schedule).  The seat is
    # physically fixed per deployment; with rotation off it is the view-1
    # leader of every slot (the historical behaviour), with rotation on it
    # leads — and can attack — only ~1/n of the slots.
    seat = transport.replica
    if seat != _slot_view1_leader(config):
        return SilentEndpoint()
    return EquivocatingLeader(
        replica_id=seat,
        config=config,
        crypto=crypto,
        transport=transport,
        strategy=optimal_split(
            config.n,
            (seat,),
            f"evil-{slot}-a".encode(),
            f"evil-{slot}-b".encode(),
        ),
    )


def _flooding_slot_factory(slot, config, crypto, transport):
    from ..adversary.flooding import FloodingReplica

    # The flooding behaviour presumes a non-leader seat (it fires on seeing
    # the leader's Propose); in slots this seat leads it degrades to a
    # crash-faulty leader — silence — and the slot recovers by view change.
    seat = transport.replica
    if seat == _slot_view1_leader(config):
        return SilentEndpoint()
    return FloodingReplica(
        replica_id=seat,
        config=config,
        crypto=crypto,
        transport=transport,
        burst=2,
    )


#: Serving-cell adversaries: name → (replica_id, per-slot factory).  The
#: factories are seat-aware: the equivocating leader attacks exactly the
#: slots its seat leads in view 1 (all of them with rotation off, ~1/n with
#: rotation on), and the flooder dodges the slots it would lead.  Seat 0 /
#: seat 1 match the fixed-leader schedule, keeping rotate-off cells
#: bit-identical to the historical pinned-seat behaviour.
SERVING_ADVERSARIES: Dict[str, Optional[Tuple[ReplicaId, Callable]]] = {
    "none": None,
    "equivocating-leader": (0, _equivocating_slot_factory),
    "flooding": (1, _flooding_slot_factory),
}

#: Load-level presets for the serving matrix.
LOAD_LEVELS: Dict[str, Dict[str, object]] = {
    "low": {
        "num_clients": 12,
        "requests_per_client": 4,
        "think_time": 8.0,
        "window": 1,
    },
    "high": {
        "num_clients": 48,
        "requests_per_client": 5,
        "think_time": 1.0,
        "window": 2,
    },
}

#: Default aggregate offered rates (requests per simulated second) for
#: open-loop serving cells, keyed by load level.  "low" sits well under the
#: no-fault service rate; "high" pushes toward saturation so queueing shows
#: up in the latency tail.
OPEN_LOOP_RATES: Dict[str, float] = {
    "low": 1.0,
    "high": 6.0,
}


@dataclass(frozen=True)
class ServingSpec:
    """One serving trial, as declarative (picklable) data.

    The serving twin of :class:`~repro.harness.trial.DeploymentSpec`:
    everything :func:`run_serving_trial` needs to rebuild the deployment,
    the adversary, and the client population from scratch in any process.

    The default ``n = 9`` is the smallest deployment where probabilistic
    quorums stay attainable with a faulty member: ``q = ⌈2√n⌉ = 6 ≤ n − f =
    7``.  At ``n = 4`` the quorum needs all four replicas, so any Byzantine
    seat (equivocating, flooding — both are absent from honest vote counts)
    makes every slot unattainable and the serving cells starve.
    """

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
        for name in ("batch_size", "pipeline", "max_pending", "num_slots"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if not self.timeout > 0:
            raise ConfigError(f"timeout must be > 0, got {self.timeout}")
        # Validates the client population (and the arrival discipline) now,
        # not inside the first trial that builds it.
        self.workload()

    def workload(self) -> WorkloadSpec:
        """The workload, load-level presets overridden by explicit fields."""
        preset = dict(LOAD_LEVELS[self.load])
        for name in (
            "num_clients",
            "requests_per_client",
            "think_time",
            "window",
            "retry_backoff",
        ):
            value = getattr(self, name)
            if value is not None:
                preset[name] = value
        preset["arrival"] = self.arrival
        if self.arrival == "open":
            preset["offered_rate"] = (
                self.offered_rate
                if self.offered_rate is not None
                else OPEN_LOOP_RATES[self.load]
            )
        return WorkloadSpec(**preset)  # type: ignore[arg-type]

    def slots(self) -> int:
        """Slot budget: headroom for requeues and adversary-burned slots."""
        if self.num_slots is not None:
            return self.num_slots
        total = self.workload().total_requests
        return total + 4 * self.pipeline + 16


@dataclass(frozen=True)
class ServingResult:
    """Summary of one serving trial (picklable, JSON-ready via ``row()``)."""

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
    factories = {}
    if adversary is not None:
        replica_id, factory = adversary
        factories[replica_id] = factory
    return SMRDeployment(
        config,
        CounterApp,
        num_slots=spec.slots(),
        seed=spec.seed,
        latency=ConstantLatency(spec.latency),
        timeout_policy=FixedTimeout(spec.timeout),
        byzantine_factories=factories,
        pipeline=spec.pipeline,
        batch_size=spec.batch_size,
        max_pending=spec.max_pending,
        eager_slots=False,
        rotate_leaders=spec.rotate_leaders,
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
    generator = WorkloadGenerator(deployment, spec.workload(), seed=spec.seed)
    generator.run(max_time=spec.max_time, max_events=spec.max_events)
    acc = generator.latency_accumulator()
    latencies = generator.latencies()
    throughput = serving_throughput(generator.records)
    return ServingResult(
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
        recovered=generator.recovered,
        rotate_leaders=spec.rotate_leaders,
        arrival=spec.arrival,
        latencies=tuple(latencies),
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


def serving_trials(specs: List[ServingSpec]) -> List["TrialSpec"]:
    """Wrap serving specs in the harness :class:`TrialSpec` protocol so
    they can ride :meth:`ExperimentEngine.map` at any worker count."""
    from ..harness.parallel import TrialSpec

    return [
        TrialSpec(index=i, seed=spec.seed, params=spec)
        for i, spec in enumerate(specs)
    ]


def run_serving_trial_spec(trial) -> ServingResult:
    """Picklable :class:`TrialSpec` entry point for the experiment engine."""
    return run_serving_trial(trial.params)
