"""Protocol-keyed Byzantine behavior registry.

The scenario matrix crosses *adversaries* with *protocols*, but an attack is
only meaningful if it speaks the target protocol's message dialect.  For
the protocols on the ProBFT replica skeleton (ProBFT and PBFT) the seats in
:mod:`repro.adversary.equivocation` and :mod:`repro.adversary.flooding` read
that dialect from the target's replica class, so each attack is one entry;
HotStuff's analogues (:mod:`repro.baselines.hotstuff.adversary`) forge
``HsProposal`` phase proposals and quorum certificates and register for
HotStuff alone.  This module is the dispatch layer that keeps that knowledge
out of the harness:

* :class:`ByzantineBehavior` — one registered adversary implementation: an
  adversary name, the protocol it targets (``None`` = every protocol), and
  a builder producing the ``byzantine=`` deployment map realizing it.
* :func:`register_behavior` — ``register_protocol``-style extension point;
  a newly registered adversary is a valid matrix axis value at once, and the
  ``adversary-complete`` matrix audits it.
* :func:`behavior_for` / :func:`byzantine_map_for` — resolution: an exact
  ``(adversary, protocol)`` entry wins over the ``(adversary, None)``
  wildcard, so silence, crashes, the targeted scheduler, network
  duplication and the skeleton's forgery seats register once, and HotStuff's
  forgeries shadow the last.

A builder that needs the target's honest replica (a crash seat, the
forgery seats) takes the ``replica_class`` of the deployment registered
under the protocol's name (:func:`repro.harness.trial.deployment_factory`).

Every (adversary × protocol) combination the matrix enumerates resolves
here — ``ScenarioMatrix.cells(supported_only=False)`` contains no
unsupported cells (pinned by ``tests/test_matrix_coverage.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..config import ProtocolConfig
from ..core.replica import ProBFTReplica
from ..types import ReplicaId
from .behaviors import crash_factory, silent_factory
from .equivocation import (
    ATTACK_VALUES,
    EquivocatingLeader,
    attack_seats,
    equivocation_byzantine_map,
    optimal_split,
)
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


def _replica_class(protocol: str) -> type:
    """The honest replica class of the registered deployment ``protocol``."""
    from ..harness.trial import deployment_factory

    return deployment_factory(protocol).replica_class


def _skeleton_replica(protocol: str) -> type:
    """``protocol``'s replica class, which the shared forgery seats speak
    through; only the ProBFT skeleton's hooks describe that dialect."""
    replica = _replica_class(protocol)
    if not issubclass(replica, ProBFTReplica):
        raise KeyError(
            f"protocol {protocol!r} is not on the ProBFT replica skeleton; "
            "register its own equivocation/flooding behaviors"
        )
    return replica


def _silent_leader(protocol: str, config: ProtocolConfig) -> Dict[ReplicaId, Any]:
    # Silent view-1 leader: the weakest attack that still forces the
    # synchronizer to act, meaningful for every protocol.
    return {0: silent_factory()}


def _crash_tail(protocol: str, config: ProtocolConfig) -> Dict[ReplicaId, Any]:
    crash = crash_factory(CRASH_TIME, _replica_class(protocol))
    return {r: crash for r in range(config.n - config.f, config.n)}


def _silent_tail(protocol: str, config: ProtocolConfig) -> Dict[ReplicaId, Any]:
    silent = silent_factory()
    return {r: silent for r in range(config.n - config.f, config.n)}


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
register_behavior(
    "silent-f",
    _silent_tail,
    description="The last f replicas are silent from the start.",
)


# ----------------------------------------------------------------------
# Forgery behaviors: one seat per attack on the ProBFT skeleton (ProBFT and
# PBFT), HotStuff's own analogues
# ----------------------------------------------------------------------


def _equivocation(protocol: str, config: ProtocolConfig) -> Dict[ReplicaId, Any]:
    byzantine, _plan = equivocation_byzantine_map(
        config, protocol=_skeleton_replica(protocol)
    )
    return byzantine


def _lone_leader(config: ProtocolConfig):
    """The Figure-4c leader seat and its split when it acts alone: no
    colluders, so the split's Byzantine side is the leader's seat only."""
    leader, _colluders = attack_seats(config)
    return leader, optimal_split(config.n, (leader,), *ATTACK_VALUES)


def _equivocating_leader(protocol: str, config: ProtocolConfig) -> Dict[ReplicaId, Any]:
    leader, plan = _lone_leader(config)
    replica = _skeleton_replica(protocol)
    return {leader: partial(EquivocatingLeader, strategy=plan, protocol=replica)}


def _flooding(protocol: str, config: ProtocolConfig) -> Dict[ReplicaId, Any]:
    return {config.n - 1: flooding_factory(protocol=_skeleton_replica(protocol))}


def _hotstuff_equivocation(
    protocol: str, config: ProtocolConfig
) -> Dict[ReplicaId, Any]:
    from ..baselines.hotstuff.adversary import hotstuff_equivocation_map

    byzantine, _plan = hotstuff_equivocation_map(config)
    return byzantine


def _hotstuff_equivocating_leader(protocol: str, config: ProtocolConfig):
    from ..baselines.hotstuff.adversary import EquivocatingHsLeader

    leader, plan = _lone_leader(config)
    return {leader: partial(EquivocatingHsLeader, strategy=plan)}


def _hotstuff_flooding(
    protocol: str, config: ProtocolConfig
) -> Dict[ReplicaId, Any]:
    from ..baselines.hotstuff.adversary import hotstuff_flooding_factory

    return {config.n - 1: hotstuff_flooding_factory()}


register_behavior(
    "equivocation",
    _equivocation,
    description=(
        "Figure-4c optimal split: equivocating leader + double-voters, in "
        "the target's dialect (protocols on the ProBFT skeleton)."
    ),
)
register_behavior(
    "equivocating-leader",
    _equivocating_leader,
    description="Figure-4c split by the view-1 leader alone, no colluders.",
)
register_behavior(
    "flooding",
    _flooding,
    description=(
        "Fake-value and duplicated votes, plus forged samples where votes "
        "carry one (protocols on the ProBFT skeleton)."
    ),
)
register_behavior(
    "equivocation",
    _hotstuff_equivocation,
    protocol="hotstuff",
    description="Conflicting view-leader proposals + forged-QC DECIDE.",
)
register_behavior(
    "equivocating-leader",
    _hotstuff_equivocating_leader,
    protocol="hotstuff",
    description="Conflicting view-1 proposals by the leader alone.",
)
register_behavior(
    "flooding",
    _hotstuff_flooding,
    protocol="hotstuff",
    description="Non-leader proposals, forged QCs, duplicated votes.",
)
