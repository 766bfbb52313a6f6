"""The unified trial lifecycle: one spec, one runner, every protocol.

Before this layer existed, each protocol had its own copy-pasted runner and
every experiment surface (the scenario matrix, the benchmarks, the CLI)
wired deployments by hand.  Now a trial is data:

* :class:`DeploymentSpec` — a frozen, declarative description of one trial:
  which protocol, at what size, under which seed, network conditions,
  adversary, and budgets.  Specs are cheap, comparable, and picklable
  (modulo the callables they carry), so they travel through
  :class:`~repro.harness.parallel.ExperimentEngine` workers unchanged.
* :class:`TrialContext` — the lifecycle object pairing a spec with its
  constructed deployment: ``build()`` instantiates the protocol's
  deployment (on the key registry a live deployment of the same
  ``(n, master_seed)`` already uses, if any:
  :meth:`~repro.crypto.context.CryptoContext.pooled`), ``execute()``
  drives it to completion and summarizes it as a :class:`RunResult`.
* :func:`run_trial` — the one protocol-dispatched entry point:
  ``run_trial(spec) == TrialContext(spec).execute()``.

New protocols plug in through :func:`register_protocol` and inherit every
experiment surface (the matrix, sweeps, the CLI) at once.
"""

from __future__ import annotations

import copy
import gc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..baselines.hotstuff.protocol import HotStuffDeployment
from ..baselines.pbft.protocol import PbftDeployment
from ..config import ProtocolConfig
from ..core.protocol import ProBFTDeployment
from ..net.faults import ChaosPolicy
from ..net.latency import LatencyModel
from ..streamlined import StreamDeployment
from ..sync.timeouts import TimeoutPolicy
from ..types import ReplicaId, Value

__all__ = [
    "DeploymentSpec",
    "RunResult",
    "TrialContext",
    "deployment_factory",
    "list_protocols",
    "register_protocol",
    "run_trial",
    "SYNCHRONIZER_TYPES",
]

#: Message types that belong to view synchronization, not the protocol
#: proper; the paper's message-complexity comparison excludes them.
SYNCHRONIZER_TYPES = ("Wish",)


@dataclass
class RunResult:
    """Outcome of one protocol run."""

    protocol: str
    n: int
    f: int
    decided: int
    n_correct: int
    all_decided: bool
    agreement_ok: bool
    decided_values: Tuple[Value, ...]
    decision_views: Tuple[int, ...]
    max_view: int
    sim_time: float
    last_decision_time: float
    messages_by_type: Dict[str, int] = field(default_factory=dict)
    total_messages: int = 0
    #: Canonical-encoding bytes sent; 0 unless the deployment was built with
    #: ``track_bytes=True`` (encoding every message has a measurable cost).
    total_bytes: int = 0
    #: Peak Python heap during build+run in MiB (tracemalloc); ``None``
    #: unless the spec set ``track_memory=True`` (tracing costs ~2x wall
    #: clock, so it is strictly opt-in telemetry).
    peak_mem_mb: Optional[float] = None

    def __eq__(self, other: object) -> bool:
        # Field by field, as the generated ``__eq__`` — but an undecided
        # trial's ``last_decision_time`` is NaN, which equals nothing, not
        # even itself: two undecided trials compare it as the absence it is.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _with_undecided_as_none(self) == _with_undecided_as_none(other)

    @property
    def protocol_messages(self) -> int:
        """Messages excluding synchronizer traffic (paper's comparison basis)."""
        return self.total_messages - sum(
            self.messages_by_type.get(t, 0) for t in SYNCHRONIZER_TYPES
        )

    @property
    def steps(self) -> float:
        """Communication steps (== last decision time under unit latency)."""
        return self.last_decision_time


def _with_undecided_as_none(result: RunResult) -> dict:
    fields = dict(vars(result))
    if fields["last_decision_time"] != fields["last_decision_time"]:  # NaN
        fields["last_decision_time"] = None
    return fields


#: Deployment constructor signature shared by every registered protocol:
#: ``(config, seed=, latency=, gst=, chaos=, timeout_policy=, values=,
#: byzantine=, duplicate_prob=, track_bytes=) -> deployment``.
DeploymentFactory = Callable[..., Any]

_PROTOCOLS: Dict[str, DeploymentFactory] = {}


def register_protocol(name: str, factory: DeploymentFactory) -> None:
    """Register a deployment constructor under ``name``.

    The factory must accept the keyword arguments a :class:`DeploymentSpec`
    carries and return an object with the deployment interface
    (``run``/``decisions``/``correct_ids``/``network``/``sim``/
    ``agreement_ok``/``decided_values``).
    """
    if name in _PROTOCOLS:
        raise ValueError(f"protocol {name!r} is already registered")
    _PROTOCOLS[name] = factory


def list_protocols() -> List[str]:
    """All registered protocol names, sorted."""
    return sorted(_PROTOCOLS)


def deployment_factory(protocol: str) -> DeploymentFactory:
    """The deployment constructor registered as ``protocol``."""
    try:
        return _PROTOCOLS[protocol]
    except KeyError:
        raise KeyError(
            f"unknown protocol {protocol!r}; registered: "
            f"{', '.join(sorted(_PROTOCOLS))}"
        ) from None


register_protocol("probft", ProBFTDeployment)
register_protocol("pbft", PbftDeployment)
register_protocol("hotstuff", HotStuffDeployment)
register_protocol("streamlined", StreamDeployment)


@dataclass(frozen=True)
class DeploymentSpec:
    """Everything needed to run one trial, as declarative data.

    ``protocol`` selects the deployment constructor from the protocol
    registry; the remaining fields are the constructor's keyword arguments
    plus the driving budgets (``max_time``/``max_events``).  ``extra``
    carries constructor kwargs that are not scenario knobs without widening
    this class for each one: ``trace=True`` for ProBFT, and
    ``reference=True``, which builds the test oracle (per-recipient
    delivery, per-message handlers, set-based collectors) in place of the
    production stack.  Nothing here selects a delivery, vote-handling or
    event-queue implementation: every deployment runs the one stack
    (see :mod:`repro.core.deployment`).
    """

    protocol: str
    config: ProtocolConfig
    seed: int = 0
    latency: Optional[LatencyModel] = None
    gst: float = 0.0
    chaos: Optional[ChaosPolicy] = None
    timeout_policy: Optional[TimeoutPolicy] = None
    values: Optional[Dict[ReplicaId, Value]] = None
    byzantine: Optional[Dict[ReplicaId, Any]] = None
    #: Network-level message duplication probability (receivers must dedup).
    duplicate_prob: float = 0.0
    #: Account per-message canonical-encoding bytes (costs one encode each).
    track_bytes: bool = False
    #: Record the trial's peak Python heap (tracemalloc) in
    #: :attr:`RunResult.peak_mem_mb`.  Costs ~2x wall clock; telemetry only
    #: — it never changes protocol behaviour.
    track_memory: bool = False
    max_time: Optional[float] = None
    max_events: int = 5_000_000
    extra: Tuple[Tuple[str, Any], ...] = ()

    def build(self):
        """Construct the protocol's deployment (does not run it).

        The latency model and chaos policy draw from seeded streams as the
        trial runs, so the deployment gets copies: a spec is data, and
        building it twice runs the same trial twice.
        """
        return deployment_factory(self.protocol)(
            self.config,
            seed=self.seed,
            latency=copy.deepcopy(self.latency),
            gst=self.gst,
            chaos=copy.deepcopy(self.chaos),
            timeout_policy=self.timeout_policy,
            values=self.values,
            byzantine=self.byzantine,
            duplicate_prob=self.duplicate_prob,
            track_bytes=self.track_bytes,
            **dict(self.extra),
        )


class TrialContext:
    """The lifecycle of one trial: spec → deployment → result.

    ``build()`` and ``execute()`` are idempotent; the deployment stays
    reachable after execution for callers that inspect more than the
    :class:`RunResult` summary (traces, per-replica state).  It is closed —
    its memory freed — when the context and every other holder of it are
    gone (:meth:`repro.core.deployment.Deployment.close`).
    """

    def __init__(self, spec: DeploymentSpec) -> None:
        self.spec = spec
        self.deployment: Optional[Any] = None
        self.result: Optional[RunResult] = None

    def build(self):
        if self.deployment is None:
            self.deployment = self.spec.build()
        return self.deployment

    def execute(self) -> RunResult:
        if self.result is None:
            track = self.spec.track_memory
            if track:
                import tracemalloc

                # Nested tracking (e.g. a tracked trial inside a tracked
                # sweep) reuses the outer trace and just resets the peak.
                nested = tracemalloc.is_tracing()
                if nested:
                    tracemalloc.reset_peak()
                else:
                    tracemalloc.start()
            try:
                deployment = self.build()
                # The cycle collector is paused for the run: what a trial
                # keeps alive (votes, verdict entries, collector facades,
                # timers) is acyclic and its garbage is refcount-freed, so
                # collections during the run would re-traverse the
                # survivors for nothing, and pausing changes no observable
                # behaviour.  The pause is not free.  It defers ONE
                # young-generation scan of every GC-tracked survivor to the
                # first allocation after gc.enable() — inside summarize().
                # Measured at n=1000, constant latency, seed 4
                # (gc.get_objects(generation=0) and a timed gc.collect(0)
                # at summarize): 32.4k survivors, 16.2 per vote, and
                # ~4.4 ms, with no vote carrying a membership set — about
                # 2% of a ~0.18 s trial.
                was_enabled = gc.isenabled()
                if was_enabled:
                    gc.disable()
                try:
                    deployment.run(
                        max_time=self.spec.max_time,
                        max_events=self.spec.max_events,
                    )
                finally:
                    if was_enabled:
                        gc.enable()
            finally:
                if track:
                    peak = tracemalloc.get_traced_memory()[1]
                    if not nested:
                        tracemalloc.stop()
            self.result = summarize(self.spec.protocol, deployment)
            if track:
                self.result.peak_mem_mb = peak / (1024.0 * 1024.0)
        return self.result


def summarize(protocol: str, deployment) -> RunResult:
    """Collapse a finished deployment into the uniform :class:`RunResult`."""
    correct = deployment.correct_ids
    decisions = {
        r: d for r, d in deployment.decisions.items() if r in correct
    }
    times = [d.time for d in decisions.values()]
    return RunResult(
        protocol=protocol,
        n=deployment.config.n,
        f=deployment.config.f,
        decided=len(decisions),
        n_correct=len(correct),
        all_decided=len(decisions) == len(correct),
        agreement_ok=deployment.agreement_ok,
        decided_values=tuple(sorted(deployment.decided_values())),
        decision_views=tuple(sorted({d.view for d in decisions.values()})),
        max_view=max((d.view for d in decisions.values()), default=0),
        sim_time=deployment.sim.now,
        last_decision_time=max(times, default=float("nan")),
        messages_by_type=dict(deployment.network.stats.sent_by_type),
        total_messages=deployment.network.stats.sent_total,
        total_bytes=deployment.network.stats.bytes_total,
    )


def run_trial(spec: DeploymentSpec) -> RunResult:
    """Build, drive, and summarize one trial — the single protocol runner."""
    return TrialContext(spec).execute()
