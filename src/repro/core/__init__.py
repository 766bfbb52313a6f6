"""ProBFT — the paper's primary contribution (Algorithm 1).

* :mod:`repro.core.leader` — leader rotation and the proposal-selection rule
  (lines 7–12: newest prepared view, most frequent value).
* :mod:`repro.core.predicates` — ``safeProposal`` and ``validNewLeader``.
* :mod:`repro.core.replica` — the replica state machine.
* :mod:`repro.core.deployment` — the single-shot deployment base shared
  with the baselines: build n replicas on a simulated network and run a
  consensus instance.
* :mod:`repro.core.protocol` — :class:`ProBFTDeployment`: the base plus
  ProBFT's vote kernel.
"""

from .leader import leader_of, compute_proposal, mode_values
from .predicates import safe_proposal, valid_new_leader
from .replica import ProBFTReplica
from .protocol import ProBFTDeployment

__all__ = [
    "leader_of",
    "compute_proposal",
    "mode_values",
    "safe_proposal",
    "valid_new_leader",
    "ProBFTReplica",
    "ProBFTDeployment",
]
