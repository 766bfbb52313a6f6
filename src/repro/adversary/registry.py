"""Protocol-keyed Byzantine behavior registry.

The scenario matrix crosses *adversaries* with *protocols*, but an attack is
only meaningful if it speaks the target protocol's message dialect: ProBFT's
equivocating leader forges ``Propose``/``Prepare``/``Commit`` messages, the
PBFT analogue forges ``PbftPropose`` pre-prepares, and the HotStuff analogue
forges ``HsProposal`` phase proposals.  This module is the dispatch layer
that keeps that knowledge out of the harness:

* :class:`ByzantineBehavior` — one registered adversary implementation: an
  adversary name, the protocol it targets (``None`` = protocol-agnostic),
  and a builder producing the ``byzantine=`` deployment map realizing it.
* :func:`register_behavior` — ``register_protocol``-style extension point;
  new protocols (or new attacks) plug in here and the matrix picks them up.
* :func:`behavior_for` / :func:`byzantine_map_for` — resolution: an exact
  ``(adversary, protocol)`` entry wins over the ``(adversary, None)``
  wildcard, so protocol-agnostic behaviors (silence, crashes, the targeted
  scheduler, network duplication) register once while forgery attacks
  register per protocol.

Every (adversary × protocol) combination the matrix enumerates resolves
here — ``ScenarioMatrix.cells(supported_only=False)`` contains no
unsupported cells (pinned by ``tests/test_matrix_coverage.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..config import ProtocolConfig
from ..types import ReplicaId
from .behaviors import CrashReplica, silent_factory
from .equivocation import equivocation_byzantine_map
from .flooding import flooding_factory

__all__ = [
    "ByzantineBehavior",
    "register_behavior",
    "behavior_for",
    "behavior_supported",
    "byzantine_map_for",
    "list_behaviors",
]

#: Builds the ``byzantine=`` deployment map for one (protocol, config).
BehaviorBuilder = Callable[[str, ProtocolConfig], Dict[ReplicaId, Any]]

#: When a crash behavior is requested, honest-until-then replicas die here.
CRASH_TIME = 1.5

#: Per-message duplication probability for the ``duplication`` behavior.
DUPLICATION_PROB = 0.25


@dataclass(frozen=True)
class ByzantineBehavior:
    """One adversary implementation keyed by the protocol it targets.

    Besides corrupting replicas (``builder`` → the ``byzantine=`` map), a
    behavior may corrupt the *deployment* itself through ``spec_kwargs`` —
    extra :class:`~repro.harness.trial.DeploymentSpec` keyword arguments
    (e.g. ``duplicate_prob`` for network-level duplication) — so
    network-layer adversaries register here like every other one instead of
    being special-cased in the harness.
    """

    adversary: str
    protocol: Optional[str]  # None: applies to every protocol
    builder: BehaviorBuilder
    description: str = ""
    spec_kwargs: Tuple[Tuple[str, Any], ...] = ()

    def byzantine_map(
        self, protocol: str, config: ProtocolConfig
    ) -> Dict[ReplicaId, Any]:
        """The ``byzantine=`` deployment map realizing this behavior."""
        return dict(self.builder(protocol, config))

    def deployment_kwargs(self) -> Dict[str, Any]:
        """Extra DeploymentSpec kwargs this behavior contributes."""
        return dict(self.spec_kwargs)


_BEHAVIORS: Dict[Tuple[str, Optional[str]], ByzantineBehavior] = {}


def register_behavior(
    adversary: str,
    builder: BehaviorBuilder,
    protocol: Optional[str] = None,
    description: str = "",
    spec_kwargs: Tuple[Tuple[str, Any], ...] = (),
) -> ByzantineBehavior:
    """Register ``builder`` for ``adversary`` (optionally protocol-specific).

    ``protocol=None`` registers a wildcard applying to every protocol; an
    exact ``(adversary, protocol)`` entry always shadows the wildcard.
    ``spec_kwargs`` carries extra DeploymentSpec kwargs for behaviors that
    attack the deployment/network rather than (only) replicas.
    """
    key = (adversary, protocol)
    if key in _BEHAVIORS:
        raise ValueError(
            f"Byzantine behavior {adversary!r} for protocol {protocol!r} "
            "is already registered"
        )
    behavior = ByzantineBehavior(
        adversary=adversary,
        protocol=protocol,
        builder=builder,
        description=description,
        spec_kwargs=spec_kwargs,
    )
    _BEHAVIORS[key] = behavior
    return behavior


def behavior_for(adversary: str, protocol: str) -> ByzantineBehavior:
    """Resolve the behavior for one cell: exact entry, then wildcard."""
    behavior = _BEHAVIORS.get((adversary, protocol)) or _BEHAVIORS.get(
        (adversary, None)
    )
    if behavior is None:
        known = ", ".join(
            sorted({a for a, _p in _BEHAVIORS})
        )
        raise KeyError(
            f"no Byzantine behavior registered for adversary {adversary!r} "
            f"on protocol {protocol!r}; registered adversaries: {known}"
        )
    return behavior


def behavior_supported(adversary: str, protocol: str) -> bool:
    """Whether the (adversary, protocol) combination resolves to a behavior."""
    return (
        (adversary, protocol) in _BEHAVIORS
        or (adversary, None) in _BEHAVIORS
    )


def byzantine_map_for(
    adversary: str, protocol: str, config: ProtocolConfig
) -> Dict[ReplicaId, Any]:
    """The ``byzantine=`` deployment map for one matrix cell."""
    return behavior_for(adversary, protocol).byzantine_map(protocol, config)


def list_behaviors() -> List[Tuple[str, Optional[str]]]:
    """All registered (adversary, protocol) keys, sorted (None first)."""
    return sorted(_BEHAVIORS, key=lambda k: (k[0], k[1] or ""))


# ----------------------------------------------------------------------
# Protocol-agnostic behaviors
# ----------------------------------------------------------------------


def _no_replicas(protocol: str, config: ProtocolConfig) -> Dict[ReplicaId, Any]:
    return {}


def _honest_replica_factory(protocol: str):
    """A factory building the protocol's *honest* replica (for CrashReplica)."""
    if protocol == "probft":
        return None  # CrashReplica's built-in default
    from ..core.deployment import default_value

    if protocol == "pbft":
        from ..baselines.pbft.replica import PbftReplica as cls
    elif protocol == "hotstuff":
        from ..baselines.hotstuff.replica import HotStuffReplica as cls
    else:
        raise KeyError(f"unknown protocol {protocol!r}")

    def inner(replica_id, config, crypto, transport):
        return lambda: cls(
            replica_id=replica_id,
            config=config,
            crypto=crypto,
            transport=transport,
            my_value=default_value(replica_id),
        )

    return inner


def _crash_factory_for(protocol: str, crash_time: float):
    """Protocol-aware crash adversary: honest until ``crash_time``, then dead."""
    inner = _honest_replica_factory(protocol)

    def build(replica_id, config, crypto, transport):
        inner_factory = (
            inner(replica_id, config, crypto, transport) if inner else None
        )
        return CrashReplica(
            replica_id, config, crypto, transport, crash_time, inner_factory
        )

    return build


def _silent_leader(protocol: str, config: ProtocolConfig) -> Dict[ReplicaId, Any]:
    # Silent view-1 leader: the weakest attack that still forces the
    # synchronizer to act, meaningful for every protocol.
    return {0: silent_factory()}


def _crash_tail(protocol: str, config: ProtocolConfig) -> Dict[ReplicaId, Any]:
    return {
        r: _crash_factory_for(protocol, crash_time=CRASH_TIME)
        for r in range(config.n - config.f, config.n)
    }


register_behavior(
    "none", _no_replicas, description="No Byzantine replicas."
)
register_behavior(
    "targeted-scheduler",
    _no_replicas,
    description="Corrupts the network schedule, not any replica.",
)
register_behavior(
    "duplication",
    _no_replicas,
    description="The network duplicates messages; replicas stay honest.",
    spec_kwargs=(("duplicate_prob", DUPLICATION_PROB),),
)
register_behavior(
    "silent",
    _silent_leader,
    description="View-1 leader is Byzantine-silent; forces a view change.",
)
register_behavior(
    "crash",
    _crash_tail,
    description=f"The last f replicas crash at t={CRASH_TIME}.",
)


# ----------------------------------------------------------------------
# Protocol-specific forgery behaviors
# ----------------------------------------------------------------------


def _probft_equivocation(
    protocol: str, config: ProtocolConfig
) -> Dict[ReplicaId, Any]:
    byzantine, _plan = equivocation_byzantine_map(config)
    return byzantine


def _probft_flooding(
    protocol: str, config: ProtocolConfig
) -> Dict[ReplicaId, Any]:
    return {config.n - 1: flooding_factory()}


def _pbft_equivocation(
    protocol: str, config: ProtocolConfig
) -> Dict[ReplicaId, Any]:
    from ..baselines.pbft.adversary import pbft_equivocation_map

    byzantine, _plan = pbft_equivocation_map(config)
    return byzantine


def _pbft_flooding(
    protocol: str, config: ProtocolConfig
) -> Dict[ReplicaId, Any]:
    from ..baselines.pbft.adversary import pbft_flooding_factory

    return {config.n - 1: pbft_flooding_factory()}


def _hotstuff_equivocation(
    protocol: str, config: ProtocolConfig
) -> Dict[ReplicaId, Any]:
    from ..baselines.hotstuff.adversary import hotstuff_equivocation_map

    byzantine, _plan = hotstuff_equivocation_map(config)
    return byzantine


def _hotstuff_flooding(
    protocol: str, config: ProtocolConfig
) -> Dict[ReplicaId, Any]:
    from ..baselines.hotstuff.adversary import hotstuff_flooding_factory

    return {config.n - 1: hotstuff_flooding_factory()}


register_behavior(
    "equivocation",
    _probft_equivocation,
    protocol="probft",
    description="Figure-4c optimal split: equivocating leader + double-voters.",
)
register_behavior(
    "flooding",
    _probft_flooding,
    protocol="probft",
    description="Forged VRF samples, duplicated and fake-value votes.",
)
register_behavior(
    "equivocation",
    _pbft_equivocation,
    protocol="pbft",
    description="Equivocating pre-prepares + conflicting prepares/commits.",
)
register_behavior(
    "flooding",
    _pbft_flooding,
    protocol="pbft",
    description="Non-leader statements, fake values, duplicated votes.",
)
register_behavior(
    "equivocation",
    _hotstuff_equivocation,
    protocol="hotstuff",
    description="Conflicting view-leader proposals + forged-QC DECIDE.",
)
register_behavior(
    "flooding",
    _hotstuff_flooding,
    protocol="hotstuff",
    description="Non-leader proposals, forged QCs, duplicated votes.",
)
