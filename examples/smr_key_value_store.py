#!/usr/bin/env python3
"""A replicated key-value store on ProBFT (the paper's future work, §7).

Replicas run a multi-slot state machine: each slot is an independent
ProBFT instance (domain-scoped messages and VRF seeds), decided commands
are applied in slot order, and two replicas are Byzantine-silent
throughout.  Clients submit through :class:`~repro.smr.client.SMRClient`,
which wraps every command in a unique ``(client_id, seq)`` request
envelope — two clients writing the same bytes are distinct requests —
and reports per-request commit latency once ``f + 1`` replicas apply it.

The second half drives the same machinery as a *service*: a closed-loop
client population (`repro.smr.workload`) measuring throughput and tail
latency, with leader-side batching amortizing consensus slots across
requests.

Run:  python examples/smr_key_value_store.py
"""

from repro.adversary.behaviors import silent_factory
from repro.config import ProtocolConfig
from repro.smr.app import KeyValueApp
from repro.smr.client import SMRClient, latency_accumulator
from repro.smr.service import SMRDeployment
from repro.smr.workload import ServingSpec, run_serving_trial


def replicated_store() -> None:
    config = ProtocolConfig(n=10, f=2)
    print("configuration:", config.describe())

    deployment = SMRDeployment(
        config,
        KeyValueApp,
        num_slots=6,
        seed=3,
        byzantine=dict.fromkeys([8, 9], silent_factory()),  # two silent members
    )
    alice = SMRClient(deployment)
    bob = SMRClient(deployment)
    requests = [
        alice.submit(b"SET user:1 alice"),
        bob.submit(b"SET user:2 bob"),
        alice.submit(b"SET balance:1 100"),
        bob.submit(b"DEL user:2"),
        # Same bytes as alice's write: a *distinct* request — identity is
        # (client_id, seq), not the payload.
        bob.submit(b"SET balance:1 100"),
        alice.submit(b"SET balance:1 250"),
    ]
    print(f"submitted {len(requests)} requests; replicas 8, 9 are silent\n")

    deployment.run(max_time=50_000)

    print(f"all slots applied: {deployment.all_applied()}")
    print(f"logs consistent:   {deployment.logs_consistent()}")
    print(f"states consistent: {deployment.snapshots_consistent()}")

    print("\nrequests (request id -> slot, commit latency):")
    for record in requests:
        print(
            f"  client {record.client_id} seq {record.seq}: "
            f"{record.payload!r:24} -> slot {record.slot}, "
            f"latency {record.latency:.1f}"
        )
    for client, name in ((alice, "alice"), (bob, "bob")):
        acc = latency_accumulator(client.requests)
        print(
            f"{name}: mean latency {acc.mean:.1f}, "
            f"p99 {acc.p99:.1f}, timed out {acc.incomplete}"
        )

    reference = deployment.replicas[0]
    print("\nfinal store state:", dict(reference.log.app.store))


def serving_benchmark() -> None:
    print("\n--- closed-loop serving trial (batched vs unbatched) ---")
    for label, batch_size, pipeline in (
        ("batched (batch=8, pipeline=4)", 8, 4),
        ("unbatched (pipeline=1)", 1, 1),
    ):
        spec = ServingSpec(
            load="high",
            num_clients=16,
            requests_per_client=3,
            batch_size=batch_size,
            pipeline=pipeline,
        )
        result = run_serving_trial(spec)
        print(
            f"{label:32} throughput {result.throughput:6.3f} req/t  "
            f"p50 {result.p50_latency:5.1f}  p99 {result.p99_latency:5.1f}  "
            f"completed {result.completed}/{result.issued}"
        )


def main() -> None:
    replicated_store()
    serving_benchmark()


if __name__ == "__main__":
    main()
