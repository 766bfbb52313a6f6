"""Streamlined ProBFT — the paper's second future-work direction (§7).

The paper closes: "we are particularly interested in leveraging ProBFT for
constructing [...] a streamlined blockchain consensus, eliminating the need
for a view-change sub-protocol."  This package is a working prototype of
that idea: a Streamlet-style chained protocol whose notarization quorums are
ProBFT's probabilistic quorums fed by VRF recipient samples.

Protocol sketch (per epoch, one ``timeout_policy`` duration, round-robin
leader):

1. the epoch leader proposes a block extending the longest notarized chain
   it knows;
2. every replica votes (once per epoch) for the first valid such proposal,
   multicasting its vote to a VRF-chosen sample of ``o·q`` replicas with
   seed ``phase_seed(epoch, "stream-vote")``;
3. a block seen with ``q = ⌈l√n⌉`` votes is *notarized*;
4. three notarized blocks in consecutive epochs finalize the chain up to the
   middle block (Streamlet's finalization rule).

There is **no view-change sub-protocol**: a silent/Byzantine leader simply
wastes its epoch, and the next epoch proceeds off local clocks.  Safety is
probabilistic exactly as in ProBFT — quorum intersection holds w.h.p. —
composed with Streamlet's chain reasoning.  Nothing lets a replica that
missed a notarization catch up, so under ``silent-f`` some correct replicas
can stall at height 0 while their peers finalize (DESIGN.md).

:class:`StreamDeployment` is a :class:`~repro.core.deployment.Deployment`
registered as the protocol ``"streamlined"``, so every surface that takes
a protocol — :class:`~repro.harness.trial.DeploymentSpec`, the matrix,
``repro run`` — runs it.  A trial decides at height 1: each replica's
decision is the height-1 block's hash, in that block's epoch.

This is an exploratory extension (the paper gives no specification); it is
implemented, tested for safety/liveness in the synchronous setting, and
measured (the §7 table of ``repro figures``), but is not part of the
paper's evaluated claims.
"""

from .block import Block, GENESIS
from .replica import StreamReplica
from .deployment import StreamDeployment

__all__ = ["Block", "GENESIS", "StreamReplica", "StreamDeployment"]
