"""View synchronization (the synchronizer abstraction of Bravo et al. [6]).

ProBFT (like single-shot PBFT in [6]) outsources view management to a
synchronizer that emits ``newView(v)`` notifications; after GST all correct
replicas eventually overlap in the same view long enough to decide.

* :mod:`repro.sync.timeouts` — timeout policies (fixed / linear / exponential).
* :mod:`repro.sync.synchronizer` — a wish-based synchronizer: replicas
  broadcast ``Wish(v)`` on timeout, relay on ``f+1`` wishes, and enter a view
  on ``2f+1`` wishes (Bracha-style amplification).  One algorithm over two
  wish-state backends: a per-replica ledger (the oracle, unit tests) and
  a column of the shared arrays below.
* :mod:`repro.sync.columns` — what every production deployment runs: the
  wish state of all correct replicas as shared numpy columns (per live view
  a packed seen-bitmap and a count vector, allocated by a trial's first
  wish) and the one bucket kernel that applies a whole Wish fan-out to them
  in a single call.  Protocol-agnostic: ProBFT, PBFT and HotStuff all get it
  from :class:`repro.core.deployment.Deployment`.

Both backends answer the only question the relay and enter rules ask — the
``k``-th highest view wished — identically; ``tests/test_sync.py`` runs every
synchronizer case against both and a hypothesis property compares them on
random wish schedules.
"""

from .timeouts import TimeoutPolicy, FixedTimeout, LinearTimeout, ExponentialTimeout
from .synchronizer import ViewSynchronizer, Wish

__all__ = [
    "TimeoutPolicy",
    "FixedTimeout",
    "LinearTimeout",
    "ExponentialTimeout",
    "ViewSynchronizer",
    "Wish",
]
