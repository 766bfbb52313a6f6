"""Quorum systems.

* :mod:`repro.quorum.probabilistic` — matching-message collectors for
  ProBFT's probabilistic quorums (``q = ⌈l·√n⌉`` distinct senders).
* :mod:`repro.quorum.deterministic` — deterministic quorum collectors
  (``⌈(n+f+1)/2⌉``) for NewLeader sets and the PBFT baseline.
* :mod:`repro.quorum.certificates` — prepared certificates and the paper's
  ``prepared`` predicate.
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
