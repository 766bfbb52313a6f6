#!/usr/bin/env python3
"""Streamlined ProBFT: a blockchain with no view-change sub-protocol (§7).

Sixteen replicas (three of them Byzantine-silent, including the very first
epoch leader) build a chain: every epoch a round-robin leader proposes a
block, replicas vote to VRF samples, q votes notarize, and three consecutive
notarized epochs finalize.  Failed leaders just waste an epoch — nobody
sends a NewLeader or Wish message, ever.

Run:  python examples/streamlined_chain.py
"""

from repro.adversary.behaviors import silent_factory
from repro.config import ProtocolConfig
from repro.streamlined import StreamDeployment


def main() -> None:
    config = ProtocolConfig(n=16, f=3)
    print("configuration:", config.describe())
    byzantine = [0, 14, 15]
    print(f"Byzantine (silent) replicas: {byzantine} — replica 0 leads epoch 1\n")

    silent = silent_factory()
    deployment = StreamDeployment(
        config, seed=11, byzantine={r: silent for r in byzantine}
    )
    deployment.run_until(
        lambda: deployment.min_finalized_height() >= 6, max_time=200
    )

    replica = deployment.replicas[1]
    print(f"epochs run:        {replica.current_epoch}")
    print(f"finalized height:  {deployment.min_finalized_height()}")
    print(f"chains consistent: {deployment.chains_consistent()}")
    stats = deployment.network.stats
    print(f"messages:          {dict(sorted(stats.sent_by_type.items()))}")
    print(f"view-change traffic: {stats.sent('Wish') + stats.sent('NewLeader')} "
          "(streamlined: none by construction)\n")

    print("finalized chain (replica 1):")
    for block in replica.finalized_chain:
        label = "genesis" if block.epoch == 0 else f"epoch {block.epoch:2d}"
        print(f"  {label}: {block.payload.decode():24} "
              f"hash={block.hash().hex()[:12]}…")
    skipped = [
        e for e in range(1, replica.current_epoch)
        if (e - 1) % config.n in byzantine
    ]
    print(f"\nepochs wasted by silent Byzantine leaders: {skipped[:8]}"
          f"{' …' if len(skipped) > 8 else ''}")


if __name__ == "__main__":
    main()
