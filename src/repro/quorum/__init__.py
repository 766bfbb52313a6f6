"""Quorum systems.

* :mod:`repro.quorum.probabilistic` — matching-message collectors for
  ProBFT's probabilistic quorums (``q = ⌈l·√n⌉`` distinct senders).
* :mod:`repro.quorum.deterministic` — deterministic quorum collectors
  (``⌈(n+f+1)/2⌉``) for NewLeader sets.
* :mod:`repro.quorum.certificates` — prepared certificates and the paper's
  ``prepared`` predicate.

In production, ProBFT's and PBFT's Prepare/Commit votes are counted in the
shared columnar state of :mod:`repro.core.columnar`, not here: the
set-based collectors count them only in the ``reference=True`` oracle and
in Byzantine wrappers.  HotStuff's votes, unicasts to the leader, are
counted here everywhere.
"""

from .probabilistic import QuorumCollector, ProbabilisticQuorumCollector
from .deterministic import DeterministicQuorumCollector
from .certificates import validate_prepared_certificate

__all__ = [
    "QuorumCollector",
    "ProbabilisticQuorumCollector",
    "DeterministicQuorumCollector",
    "validate_prepared_certificate",
]
