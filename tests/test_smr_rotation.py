"""Rotating slot leadership, open-loop arrivals, and recovery accounting.

Covers the ``leader_offset`` protocol knob and its per-slot rotation
wiring, the bit-identity contract (rotate-off cells match their pinned
golden rows), the rotation and batching ablations as same-run throughput
ratios, rotation-on determinism across engine backends, log/snapshot consistency with the equivocator parked at
every rotated seat, open-loop Poisson workloads at thousands of clients,
and the recovery satellites: recovered records excluded from latency
percentiles, majority-slot attribution under a divergent Byzantine
report, and the zero-throughput guard for recovered-only trials.
"""

import hashlib
import json
from functools import partial

import pytest

from repro.adversary.equivocation import (
    ATTACK_VALUES,
    EquivocatingLeader,
    optimal_split,
)
from repro.config import ProtocolConfig
from repro.core.deployment import KERNEL_STATS
from repro.core.leader import leader_of
from repro.errors import ConfigError
from repro.harness.parallel import ExperimentEngine
from repro.smr.app import CounterApp
from repro.smr.client import SMRClient, majority_slot
from repro.smr.replica import SlotStacks, slot_leader_offset
from repro.smr.service import SMRDeployment
from repro.smr.workload import (
    LOAD_LEVELS,
    ServingSpec,
    WorkloadGenerator,
    build_serving_deployment,
    run_serving_trial,
    serving_cells,
    serving_throughput,
)

from .helpers import run_serving_spec, serving_engine_trials

#: sha256 of the canonical JSON (sorted keys) of the six fixed-leader
#: closed-loop serving rows — adversary x load at seed 2024, every
#: ``ServingResult.row()`` column but the route counters.  The tail
#: columns follow ``percentile``'s interpolation, whose contract is the
#: bounded-and-monotone property in ``test_streaming_accumulators.py``.
FIXED_LEADER_ROWS_SHA256 = (
    "6f7f94d2addd9ef1beba36758bdf035c2be1182025168466f80b4caec25997b7"
)

# Mirrors tests/test_smr_serving.py: small but exercises batching,
# pipelining, and the closed loop.
SMALL = dict(num_clients=6, requests_per_client=3, max_time=5_000.0)


class TestLeaderOffset:
    def test_offset_zero_matches_historical_schedule(self):
        config = ProtocolConfig(n=9, f=2)
        for view in range(1, 20):
            assert leader_of(view, config) == (view - 1) % config.n

    def test_offset_shifts_schedule(self):
        config = ProtocolConfig(n=9, f=2, leader_offset=3)
        assert leader_of(1, config) == 3
        assert leader_of(7, config) == 0  # wraps past n
        for view in range(1, 20):
            assert leader_of(view, config) == (view - 1 + 3) % 9

    @pytest.mark.parametrize("offset", [-1, 9, 100])
    def test_offset_out_of_range_rejected(self, offset):
        with pytest.raises(ConfigError):
            ProtocolConfig(n=9, f=2, leader_offset=offset)

    def test_slot_leader_offset_rotation(self):
        n = 9
        # Rotation off: every slot keeps the historical view-1 leader 0.
        assert all(
            slot_leader_offset(slot, n, rotate_leaders=False) == 0
            for slot in range(1, 2 * n)
        )
        # Rotation on: view-1 leadership of slot s falls on (s + 1) mod n,
        # so n consecutive slots cover every seat exactly once.
        leaders = {
            (slot_leader_offset(slot, n, rotate_leaders=True)) % n
            for slot in range(1, n + 1)
        }
        assert leaders == set(range(n))


    def test_slot_configs_replace_a_callers_domain_and_offset(self):
        """Every slot instance runs on its own domain and rotation offset,
        whatever the deployment config carried: they are replaced, never
        composed."""
        from repro.core.protocol import ProBFTStack

        stacks = SlotStacks(
            ProtocolConfig(n=9, f=2, seed_domain="oops", leader_offset=4),
            3, True, (), ProBFTStack, None,
        )
        for slot in (1, 2, 3):
            config = stacks.slot_config(slot)
            assert config.seed_domain == f"slot-{slot}"
            assert config.leader_offset == slot_leader_offset(slot, 9, True)


class TestGoldenArtifactIdentity:
    """Rotate-off serving is bit-identical to its pinned golden rows, and
    the serving ablations hold as throughput ratios of the same run."""

    def test_matrix_rows_reproduce(self):
        rows = []
        for adversary in ("none", "equivocating-leader", "flooding"):
            for load in ("low", "high"):
                row = run_serving_trial(
                    ServingSpec(adversary=adversary, load=load, seed=2024)
                ).row()
                assert row.pop("protocol") == "probft"  # newer than the pin
                rows.append({k: v for k, v in row.items() if k not in KERNEL_STATS})
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode())
        assert digest.hexdigest() == FIXED_LEADER_ROWS_SHA256, rows

    def test_rotation_ablation_claim_holds(self):
        """With fixed leaders every slot starts under the equivocator and
        pays the (raised) view-change timeout; rotated, only the ~1/n it
        leads do: rotated >= 3x fixed throughput.  Measured 3.31x at the
        high-load preset (48 clients x 5), on seeds 0-5 and 2024 alike;
        smaller populations range 1.9-4.1x by seed and size."""
        throughput = {
            rotate: run_serving_trial(
                ServingSpec(
                    adversary="equivocating-leader", load="high", timeout=20.0,
                    rotate_leaders=rotate, seed=2024,
                )
            ).throughput
            for rotate in (False, True)
        }
        assert throughput[True] >= 3.0 * throughput[False], throughput

    def test_batching_ablation_claim_holds(self):
        """Batching and pipelining (8 commands a slot, 4 slots in flight)
        against one command a slot, one slot at a time: measured 5.48x at
        6 clients x 3 (5.1-5.5x on seeds 0-5; 26.6x at the high preset)."""
        size = dict(adversary="none", load="high", seed=2024, **SMALL)
        batched = run_serving_trial(ServingSpec(**size))
        unbatched = run_serving_trial(ServingSpec(batch_size=1, pipeline=1, **size))
        assert batched.completed == unbatched.completed == 18
        assert batched.throughput >= 4.0 * unbatched.throughput


class TestRotationDeterminism:
    def test_rotation_off_is_default_identity(self):
        base = run_serving_trial(ServingSpec(**SMALL))
        explicit = run_serving_trial(
            ServingSpec(rotate_leaders=False, **SMALL)
        )
        assert base.latencies == explicit.latencies
        assert base.row() == explicit.row()

    def test_rotation_on_serial_matches_pool(self):
        trials = serving_engine_trials(
            [
                ServingSpec(
                    adversary="equivocating-leader",
                    rotate_leaders=True,
                    **SMALL,
                ),
                ServingSpec(rotate_leaders=True, seed=1, **SMALL),
            ]
        )
        serial = ExperimentEngine(workers=0).map(run_serving_spec, trials)
        pool = ExperimentEngine(workers=2)
        try:
            pooled = pool.map(run_serving_spec, trials)
        finally:
            pool.close()
        for a, b in zip(serial, pooled):
            assert a.latencies == b.latencies
            assert a.row() == b.row()

    def test_rotation_lifts_equivocation_cell(self):
        """Rotation confines the equivocator to ~1/n of slots: the attacked
        cell's throughput strictly improves and its tail shrinks."""
        fixed = run_serving_trial(
            ServingSpec(adversary="equivocating-leader", **SMALL)
        )
        rotated = run_serving_trial(
            ServingSpec(
                adversary="equivocating-leader", rotate_leaders=True, **SMALL
            )
        )
        assert rotated.completed == fixed.completed
        assert rotated.logs_consistent
        assert rotated.throughput > fixed.throughput
        assert rotated.p99_latency < fixed.p99_latency

    def test_serving_cells_rotation_and_arrival_axes(self):
        cells = serving_cells(
            adversaries=["none"],
            loads=["high"],
            rotations=[False, True],
            arrivals=["closed", "open"],
        )
        assert len(cells) == 4
        assert {(c.rotate_leaders, c.arrival) for c in cells} == {
            (False, "closed"),
            (False, "open"),
            (True, "closed"),
            (True, "open"),
        }


class TestEquivocatorAtEveryRotatedSeat:
    """With rotation on, the Byzantine seat leads ~1/n of slots — wherever
    it sits — and equivocates in those alone.  Logs and snapshots must stay
    consistent for every seat."""

    @pytest.mark.parametrize("seat", range(9))
    def test_log_consistency(self, seat):
        cfg = ProtocolConfig(n=9, f=2)
        split = optimal_split(cfg.n, (seat,), *ATTACK_VALUES)
        dep = SMRDeployment(
            cfg,
            CounterApp,
            num_slots=4,
            seed=13,
            byzantine={seat: partial(EquivocatingLeader, strategy=split)},
            batch_size=2,
            rotate_leaders=True,
        )
        for i in range(8):
            dep.submit_to_all(b"ADD:%d" % (i % 4 + 1))
        dep.run(max_time=50_000)
        assert dep.all_applied(), seat
        assert dep.logs_consistent(), seat
        assert dep.snapshots_consistent(), seat


class TestOpenLoopArrivals:
    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
    def test_open_needs_a_finite_positive_rate(self, rate):
        with pytest.raises(ConfigError, match="offered_rate"):
            ServingSpec(arrival="open", offered_rate=rate)

    def test_unknown_arrival_rejected(self):
        with pytest.raises(ValueError, match="arrival"):
            ServingSpec(arrival="poisson", offered_rate=1.0)
        with pytest.raises(ValueError, match="arrival"):
            ServingSpec(arrival="poisson")

    def test_spec_defaults_rate_from_load(self):
        spec = ServingSpec(arrival="open", load="high")
        assert spec.workload().offered_rate == LOAD_LEVELS["high"]["offered_rate"]
        pinned = ServingSpec(arrival="open", offered_rate=2.5)
        assert pinned.workload().offered_rate == 2.5

    def test_open_loop_completes_and_is_deterministic(self):
        spec = ServingSpec(arrival="open", **SMALL)
        first = run_serving_trial(spec)
        second = run_serving_trial(spec)
        assert first.completed == spec.total_requests
        assert first.timed_out == 0
        assert first.logs_consistent
        assert first.arrival == "open"
        assert first.latencies == second.latencies
        assert first.row() == second.row()

    def test_open_loop_differs_from_closed(self):
        closed = run_serving_trial(ServingSpec(**SMALL))
        opened = run_serving_trial(ServingSpec(arrival="open", **SMALL))
        assert closed.latencies != opened.latencies

    def test_thousands_of_clients_complete(self):
        """The apply-watcher index keeps per-apply dispatch O(1), so an
        open-loop population in the thousands finishes in seconds."""
        spec = ServingSpec(
            arrival="open",
            num_clients=2000,
            requests_per_client=1,
            offered_rate=200.0,
            max_time=200_000.0,
        )
        result = run_serving_trial(spec)
        assert result.completed == 2000
        assert result.timed_out == 0
        assert result.logs_consistent


class TestRecoveredAccounting:
    """Satellites: recovered records must not pollute latency percentiles
    (S1), slot attribution survives a divergent Byzantine report (S2), and
    a recovered-only trial reports zero throughput with the recovered
    count explaining the gap (S3)."""

    def _run_once(self, spec):
        deployment = build_serving_deployment(spec)
        generator = WorkloadGenerator(deployment, spec, seed=spec.seed)
        generator.run(max_time=spec.max_time)
        return deployment, generator

    def test_recovered_excluded_from_latencies(self):
        spec = ServingSpec(**SMALL)
        deployment, first = self._run_once(spec)
        assert first.completed == spec.total_requests
        # A second generator over the same deployment re-issues the same
        # (client_id, seq) envelopes: every request completes from replayed
        # history with a meaningless zero latency.
        deployment._next_client_id = 0
        replay = WorkloadGenerator(deployment, spec, seed=spec.seed)
        replay.run(max_time=spec.max_time)
        assert replay.completed == spec.total_requests
        assert replay.latencies() == []
        acc = replay.latency_accumulator()
        assert acc.recovered == replay.completed
        assert acc.mean is None and acc.p99 is None
        summary = acc.summary()
        assert summary["recovered"] == replay.completed
        assert summary["incomplete"] == 0

    def test_recovered_only_trial_reports_zero_throughput(self):
        spec = ServingSpec(**SMALL)
        deployment, first = self._run_once(spec)
        live_tput = serving_throughput(first.records)
        assert live_tput > 0
        deployment._next_client_id = 0
        replay = WorkloadGenerator(deployment, spec, seed=spec.seed)
        replay.run(max_time=spec.max_time)
        # Every completion was recovered: no live serving happened, so the
        # throughput guard reports 0.0 and `recovered` explains the gap.
        assert serving_throughput(replay.records) == 0.0

    def test_result_row_surfaces_recovered_count(self):
        row = run_serving_trial(ServingSpec(**SMALL)).row()
        assert row["recovered"] == 0
        assert "rotate_leaders" in row and "arrival" in row

    def test_majority_slot_unit(self):
        assert majority_slot({0: 5}) == 5
        assert majority_slot({0: 5, 1: 5, 2: 7}) == 5
        # Ties break to the smallest slot, deterministically.
        assert majority_slot({0: 9, 1: 4}) == 4

    def test_client_slot_survives_divergent_byzantine_report(self):
        """One replica reporting a bogus slot for an ordered request must
        not become the record's slot attribution."""
        cfg = ProtocolConfig(n=9, f=2)
        dep = SMRDeployment(cfg, CounterApp, num_slots=2, seed=7, batch_size=1)
        client = SMRClient(dep)
        record = client.submit(b"ADD:1")
        assert record is not None
        # A Byzantine replica claims an absurd slot *first*; the honest
        # majority then applies the request in its real slot.
        bogus = max(dep.replicas) + 1  # id outside the honest set
        dep._record_apply(bogus, 999, record.command)
        dep.run(max_time=1_000)
        assert record.completed
        assert record.slot != 999
        assert record.slot == majority_slot(record.acked_by)

    def test_late_client_majority_slot_from_history(self):
        cfg = ProtocolConfig(n=9, f=2)
        dep = SMRDeployment(cfg, CounterApp, num_slots=1, seed=3, batch_size=1)
        issuer = SMRClient(dep)
        record = issuer.submit(b"ADD:2")
        dep.run(max_time=1_000)
        assert record.completed
        # Poison one replayed history entry, then re-attach: the majority
        # still pins the real slot.
        dep.applied[max(dep.replicas) + 1] = [(777, record.command)]
        late = SMRClient(dep, client_id=issuer.client_id)
        replayed = late.submit(b"ADD:2", seq=record.seq)
        assert replayed.recovered
        assert replayed.slot == record.slot != 777
