"""Byzantine adversary framework.

The paper assumes a *static corruption* adversary (§2.1): the set of faulty
replicas is fixed before execution; faulty replicas may collude and know each
other's keys, but cannot forge correct replicas' signatures or predict their
VRF samples.

Byzantine replicas are full endpoint objects (``start()`` /
``on_message(src, msg)``) built by factories, so the honest protocol code
path is never contaminated with attack logic.

* :mod:`repro.adversary.behaviors` — silent/crash replicas (a crash seat
  wraps the target protocol's own honest replica).
* :mod:`repro.adversary.equivocation` — the equivocating-leader strategies of
  Figure 4 (general / sub-optimal / optimal split) plus colluding
  double-voters, and the whole Figure-4c attack as a ``byzantine=`` map.
* :mod:`repro.adversary.flooding` — message-flooding replicas testing that
  correct replicas reject invalid samples/signatures.
* :mod:`repro.adversary.registry` — the protocol-keyed
  :class:`~repro.adversary.registry.ByzantineBehavior` registry dispatching
  each (adversary, protocol) matrix combination to its implementation.

The equivocation and flooding seats are written once for every protocol on
the ProBFT replica skeleton (ProBFT and PBFT): they take the protocol's
replica class and read its dialect from it — the proposal type from
``PROPOSE``, each vote and its recipients from the ``vote`` hook.  HotStuff,
whose votes go to the leader and whose leader forges quorum certificates,
keeps its own analogues in :mod:`repro.baselines.hotstuff.adversary`.
"""

from .behaviors import SilentReplica, CrashReplica, silent_factory, crash_factory
from .equivocation import (
    EquivocatingLeader,
    DoubleVoterReplica,
    SeatVotes,
    SplitStrategy,
    attack_seats,
    optimal_split,
    suboptimal_split,
    general_split,
    equivocation_byzantine_map,
)
from .flooding import FloodingReplica, flooding_factory
from .registry import (
    ByzantineBehavior,
    behavior_for,
    behavior_supported,
    byzantine_map_for,
    list_behaviors,
    register_behavior,
)

__all__ = [
    "SilentReplica",
    "CrashReplica",
    "silent_factory",
    "crash_factory",
    "EquivocatingLeader",
    "DoubleVoterReplica",
    "SeatVotes",
    "SplitStrategy",
    "attack_seats",
    "optimal_split",
    "suboptimal_split",
    "general_split",
    "equivocation_byzantine_map",
    "FloodingReplica",
    "flooding_factory",
    "ByzantineBehavior",
    "register_behavior",
    "behavior_for",
    "behavior_supported",
    "byzantine_map_for",
    "list_behaviors",
]
