#!/usr/bin/env python3
"""The paper's worst case: an equivocating Byzantine leader (Figure 4c).

Replica 0 leads view 1 and sends value A to half the correct replicas and
value B to the other half; all other Byzantine replicas collude by
double-voting for both values toward their VRF samples.  The example shows
how ProBFT defends itself:

* cross-group Prepare messages expose the leader-signed conflict, so many
  correct replicas block the view (Algorithm 1 lines 23-25);
* probabilistic quorums for either value are unlikely to complete on both
  sides (Theorem 7);
* the synchronizer elects a correct leader in view 2, which re-proposes any
  value that might have been decided (safeProposal) — so agreement holds.

Run:  python examples/byzantine_leader.py
"""

from repro.adversary.equivocation import equivocation_byzantine_map
from repro.config import ProtocolConfig
from repro.core.protocol import ProBFTDeployment
from repro.net.latency import ConstantLatency
from repro.sync.timeouts import FixedTimeout


def main() -> None:
    config = ProtocolConfig(n=40, f=8)
    print("configuration:", config.describe())
    print(f"Byzantine: leader (replica 0) + {config.f - 1} colluding double-voters\n")

    byzantine, plan = equivocation_byzantine_map(config)
    deployment = ProBFTDeployment(
        config,
        seed=7,
        latency=ConstantLatency(1.0),
        timeout_policy=FixedTimeout(20.0),
        byzantine=byzantine,
        trace=True,
    )
    deployment.run(max_time=5000)

    val1, val2 = plan.values
    group1 = [r for r in deployment.correct_ids if plan.group_of(r) == val1]
    group2 = [r for r in deployment.correct_ids if plan.group_of(r) == val2]
    print(f"attack: {val1!r} -> {len(group1)} correct replicas + all Byzantine")
    print(f"        {val2!r} -> {len(group2)} correct replicas + all Byzantine")

    blocked = [
        r
        for r, rep in deployment.correct_replicas().items()
        if any(event.kind == "block-view" for event in rep.trace)
    ]
    print(f"\nreplicas that caught the equivocation and blocked view 1: "
          f"{len(blocked)}/{len(deployment.correct_ids)}")

    decisions = {
        r: d for r, d in deployment.decisions.items()
        if r in deployment.correct_ids
    }
    by_view = {}
    for d in decisions.values():
        by_view.setdefault(d.view, []).append(d)
    for view in sorted(by_view):
        values = {d.value for d in by_view[view]}
        print(f"view {view}: {len(by_view[view])} decisions, values {sorted(values)}")

    print(f"\nall correct replicas decided: {deployment.all_correct_decided()}")
    print(f"AGREEMENT: {'OK' if deployment.agreement_ok else 'VIOLATED'} "
          f"(decided values: {sorted(deployment.decided_values())})")


if __name__ == "__main__":
    main()
