"""Streamlined ProBFT — the paper's second future-work direction (§7).

The paper closes: "we are particularly interested in leveraging ProBFT for
constructing [...] a streamlined blockchain consensus, eliminating the need
for a view-change sub-protocol."  This package is a working prototype of
that idea: a Streamlet-style chained protocol whose notarization quorums are
ProBFT's probabilistic quorums fed by VRF recipient samples.

Protocol sketch (per epoch, fixed duration, round-robin leader):

1. the epoch leader proposes a block extending the longest notarized chain
   it knows;
2. every replica votes (once per epoch) for the first valid such proposal,
   multicasting its vote to a VRF-chosen sample of ``o·q`` replicas with
   seed ``epoch ‖ "vote"``;
3. a block seen with ``q = ⌈l√n⌉`` votes is *notarized*;
4. three notarized blocks in consecutive epochs finalize the chain up to the
   middle block (Streamlet's finalization rule).

There is **no view-change sub-protocol**: a silent/Byzantine leader simply
wastes its epoch, and the next epoch proceeds off local clocks.  Safety is
probabilistic exactly as in ProBFT — quorum intersection holds w.h.p. —
composed with Streamlet's chain reasoning.

This is an exploratory extension (the paper gives no specification); it is
implemented, tested for safety/liveness in the synchronous setting, and
measured (the §7 table of ``repro figures``), but is not part of the
paper's evaluated claims.
"""

from .block import Block, GENESIS
from .replica import StreamReplica
from .deployment import StreamDeployment

__all__ = ["Block", "GENESIS", "StreamReplica", "StreamDeployment"]
