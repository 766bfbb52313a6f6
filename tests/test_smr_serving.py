"""Tests for the closed-loop SMR serving benchmark layer.

Covers the :mod:`repro.smr.workload` surface: workload/spec validation,
golden-seed determinism (in-process and across engine backends), the
adversary × load scenario cells, the batching throughput claim, and
log/snapshot consistency under Byzantine leaders at load.
"""

import pytest

from repro.config import ProtocolConfig
from repro.errors import ConfigError
from repro.harness.parallel import ExperimentEngine
from repro.smr.app import CounterApp
from repro.smr.service import SMRDeployment
from repro.smr.workload import (
    LOAD_LEVELS,
    SERVING_ADVERSARIES,
    ServingSpec,
    WorkloadGenerator,
    build_serving_deployment,
    run_serving_trial,
    serving_cells,
)

from .helpers import run_serving_spec, serving_engine_trials

# A small spec that still exercises batching, pipelining, and the closed
# loop, but completes in well under a second.
SMALL = dict(num_clients=6, requests_per_client=3, max_time=5_000.0)


class TestServingSpec:
    def test_total_requests(self):
        spec = ServingSpec(num_clients=5, requests_per_client=3)
        assert spec.total_requests == 15
        assert ServingSpec(load="low").total_requests == 12 * 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_clients": 0},
            {"requests_per_client": 0},
            {"think_time": -1.0},
            {"think_time": float("nan")},
            {"think_time": float("inf")},
            {"window": 0},
            {"retry_backoff": -1.0},
            {"retry_backoff": float("nan")},
            {"retry_backoff": float("inf")},
            {"arrival": "open", "offered_rate": 0.0},
            {"arrival": "open", "offered_rate": float("nan")},
            {"arrival": "open", "offered_rate": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ServingSpec(**kwargs)

    def test_unknown_adversary_rejected(self):
        with pytest.raises(ValueError):
            ServingSpec(adversary="gaslighting")

    def test_unknown_load_rejected(self):
        with pytest.raises(ValueError):
            ServingSpec(load="ludicrous")

    @pytest.mark.parametrize("protocol", ["hotstuff", "streamlined", "raft"])
    def test_a_protocol_that_cannot_serve_is_rejected(self, protocol):
        """HotStuff's stack names no replica class, streamlined has no
        stack, and an unregistered name has neither."""
        with pytest.raises(ConfigError, match=repr(protocol)):
            ServingSpec(protocol=protocol)
        with pytest.raises(ConfigError, match=repr(protocol)):
            SMRDeployment(ProtocolConfig(9), CounterApp, 1, protocol=protocol)

    def test_load_preset_with_overrides(self):
        spec = ServingSpec(load="low", num_clients=3)
        workload = spec.workload()
        assert workload.num_clients == 3  # explicit override wins
        assert workload.think_time == LOAD_LEVELS["low"]["think_time"]
        assert workload == spec.workload().workload()  # resolved once
        assert spec.think_time is None  # the spec itself keeps the preset's

    def test_slot_budget_covers_workload(self):
        spec = ServingSpec(**SMALL)
        assert spec.slots() > spec.total_requests
        assert ServingSpec(num_slots=7).slots() == 7

    def test_adversary_registry_shape(self):
        assert SERVING_ADVERSARIES["none"] is None
        assert SERVING_ADVERSARIES["equivocating-leader"][0] == 0
        assert SERVING_ADVERSARIES["flooding"][0] == 1


class TestWorkloadGenerator:
    def test_closed_loop_completes_all_requests(self):
        spec = ServingSpec(**SMALL)
        deployment = build_serving_deployment(spec)
        generator = WorkloadGenerator(deployment, spec, seed=0)
        generator.run(max_time=spec.max_time)
        assert generator.done()
        assert generator.completed == spec.total_requests
        assert deployment.logs_consistent()
        for record in generator.records:
            assert record.completed
            assert record.latency > 0
            assert len(record.acked_by) >= deployment.config.f + 1

    def test_unique_request_identities(self):
        spec = ServingSpec(**SMALL)
        deployment = build_serving_deployment(spec)
        generator = WorkloadGenerator(deployment, spec, seed=0)
        generator.run(max_time=spec.max_time)
        ids = [(r.client_id, r.seq) for r in generator.records]
        assert len(ids) == len(set(ids))

    def test_backpressure_surfaces_as_retries(self):
        # A one-deep queue against an eager 2-window population must refuse
        # some submissions; the closed loop retries them to completion.
        spec = ServingSpec(
            num_clients=8,
            requests_per_client=2,
            think_time=0.0,
            window=2,
            retry_backoff=0.5,
            max_pending=1,
            batch_size=1,
            pipeline=1,
            max_time=10_000.0,
        )
        deployment = build_serving_deployment(spec)
        generator = WorkloadGenerator(deployment, spec, seed=0)
        generator.run(max_time=spec.max_time)
        assert generator.done()
        assert generator.retries > 0

    def test_replayed_requests_complete_recovered_without_drawing(self):
        """A generator on a deployment that already ran re-issues the same
        (client_id, seq) envelopes: each completes from the replayed history
        at submission, and nothing but the pre-drawn arrivals reads an RNG."""
        spec = ServingSpec(arrival="open", **SMALL)
        deployment = build_serving_deployment(spec)
        WorkloadGenerator(deployment, spec, seed=0).run(max_time=spec.max_time)
        deployment._next_client_id = 0
        replay = WorkloadGenerator(deployment, spec, seed=0)
        replay.start()
        states = [state.rng.getstate() for state in replay._clients]
        replay.run(max_time=spec.max_time)
        assert [state.rng.getstate() for state in replay._clients] == states
        recovered = replay.latency_accumulator().recovered
        assert replay.completed == recovered == spec.total_requests
        assert all(r.recovered and r.latency == 0 for r in replay.records)
        assert replay.retries == 0

    def test_refused_submits_consume_no_sequence_number(self):
        spec = ServingSpec(
            num_clients=8, requests_per_client=3, think_time=0.0, window=2,
            retry_backoff=0.5, max_pending=1, batch_size=1, pipeline=1,
            max_time=10_000.0,
        )
        deployment = build_serving_deployment(spec)
        generator = WorkloadGenerator(deployment, spec, seed=0)
        generator.run(max_time=spec.max_time)
        assert generator.done() and generator.retries > 0
        for state in generator._clients:
            client = state.client
            assert [r.seq for r in client.requests] == [1, 2, 3]
            assert client.next_seq == 4

    def test_records_stay_in_global_submission_order(self):
        spec = ServingSpec(arrival="open", **SMALL)
        deployment = build_serving_deployment(spec)
        generator = WorkloadGenerator(deployment, spec, seed=0)
        generator.run(max_time=spec.max_time)
        records = generator.records
        times = [r.submitted_at for r in records]
        assert times == sorted(times)
        owners = [r.client_id for r in records]
        assert owners != sorted(owners)  # clients interleave
        for state in generator._clients:
            mine = [r for r in records if r.client_id == state.client.client_id]
            assert mine == state.client.requests

    def test_accumulator_counts_unissued_as_incomplete(self):
        spec = ServingSpec(**SMALL)
        deployment = build_serving_deployment(spec)
        generator = WorkloadGenerator(deployment, spec, seed=0)
        # Never run: nothing issued, everything incomplete.
        acc = generator.latency_accumulator()
        assert acc.completed == 0
        assert acc.incomplete == spec.total_requests
        assert acc.mean is None


class TestGoldenSeedDeterminism:
    def test_same_spec_same_latencies(self):
        spec = ServingSpec(**SMALL)
        first = run_serving_trial(spec)
        second = run_serving_trial(spec)
        assert first.latencies == second.latencies
        assert first.row() == second.row()

    def test_different_seed_different_latencies(self):
        base = ServingSpec(**SMALL)
        other = ServingSpec(seed=1, **SMALL)
        assert run_serving_trial(base).latencies != run_serving_trial(other).latencies

    def test_backends_agree(self):
        """The golden witness is bit-identical across engine backends."""
        trials = serving_engine_trials(
            [ServingSpec(**SMALL), ServingSpec(seed=1, **SMALL)]
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


class TestServingCells:
    def test_matrix_shape(self):
        cells = serving_cells()
        assert len(cells) == len(SERVING_ADVERSARIES) * len(LOAD_LEVELS)
        assert {c.adversary for c in cells} == set(SERVING_ADVERSARIES)
        assert {c.load for c in cells} == set(LOAD_LEVELS)

    @pytest.mark.parametrize("adversary", sorted(SERVING_ADVERSARIES))
    def test_cell_serves_under_adversary(self, adversary):
        spec = ServingSpec(adversary=adversary, **SMALL)
        result = run_serving_trial(spec)
        assert result.completed > 0
        assert result.throughput > 0
        assert result.logs_consistent
        assert result.mean_latency is not None

    def test_flooding_matches_no_fault_latency(self):
        """Flooded junk is rejected wholesale: the honest quorum path is
        untouched, so the latency profile matches the no-fault cell."""
        quiet = run_serving_trial(ServingSpec(**SMALL))
        noisy = run_serving_trial(ServingSpec(adversary="flooding", **SMALL))
        assert noisy.latencies == quiet.latencies

    def test_equivocation_costs_latency(self):
        honest = run_serving_trial(ServingSpec(**SMALL))
        attacked = run_serving_trial(
            ServingSpec(adversary="equivocating-leader", **SMALL)
        )
        assert attacked.completed > 0
        assert attacked.p99_latency > honest.p99_latency


class TestBatchingThroughput:
    def test_batching_beats_unbatched_pipeline_one(self):
        load = dict(num_clients=12, requests_per_client=3, max_time=20_000.0)
        batched = run_serving_trial(
            ServingSpec(batch_size=8, pipeline=4, **load)
        )
        unbatched = run_serving_trial(
            ServingSpec(batch_size=1, pipeline=1, **load)
        )
        assert batched.completed == unbatched.completed
        assert batched.throughput > unbatched.throughput


class TestByzantineConsistencyAtLoad:
    """Satellite: logs and snapshots stay consistent under equivocating and
    flooding leaders.  Uses small eager deployments driven to
    ``all_applied`` so every replica's state machine is drained before the
    snapshot comparison."""

    def run_deployment(self, adversary):
        cfg = ProtocolConfig(n=9, f=2)
        dep = SMRDeployment(
            cfg,
            CounterApp,
            num_slots=3,
            seed=13,
            byzantine=dict([SERVING_ADVERSARIES[adversary]]),
            batch_size=2,
        )
        for i in range(4):
            dep.submit_to_all(b"ADD:%d" % (i + 1))
        dep.run(max_time=50_000)
        return dep

    def test_equivocating_leader_consistency(self):
        dep = self.run_deployment("equivocating-leader")
        assert dep.all_applied()
        assert dep.logs_consistent()
        assert dep.snapshots_consistent()

    def test_flooding_consistency(self):
        dep = self.run_deployment("flooding")
        assert dep.all_applied()
        assert dep.logs_consistent()
        assert dep.snapshots_consistent()
        # The flooder contributed nothing: honest state is the sum applied.
        honest = [s for r, s in dep.snapshots().items() if r != 1]
        assert all(s == sum(range(1, 5)) for s in honest)


class TestServingBeyondSaturatedSamples:
    """Once the sample is smaller than n, a replica's termination in a view
    is only probabilistic — and the service has no decision catch-up."""

    @pytest.mark.xfail(
        strict=True,
        reason="a replica that misses a slot's commit quorum stays in that "
        "slot while its peers decide, stop the instance's timers and move "
        "on: missing decision catch-up (ROADMAP item 14), not backpressure",
    )
    def test_serving_n25_every_request_completes(self):
        for seed in range(3):
            result = run_serving_trial(
                ServingSpec(
                    n=25,
                    adversary="equivocating-leader",
                    rotate_leaders=True,
                    arrival="open",
                    offered_rate=6.0,
                    timeout=20.0,
                    batch_size=32,
                    max_pending=256,
                    num_clients=30,
                    requests_per_client=5,
                    seed=seed,
                    max_time=1_000.0,
                )
            )
            assert result.logs_consistent and result.retries == 0, seed
            assert result.timed_out == 0, (seed, result.timed_out)


#: Serving cells of ~100 requests: no fault and Byzantine (fixed and rotated
#: leadership), one open-loop Poisson cell, one n=16 cell and one PBFT cell.
ROUTE_CELLS = {
    "n9-none": dict(adversary="none"),
    "n9-equivocating": dict(adversary="equivocating-leader"),
    "n9-equivocating-rotated": dict(
        adversary="equivocating-leader", rotate_leaders=True
    ),
    "n9-open": dict(adversary="none", arrival="open"),
    "n16-none": dict(adversary="none", n=16, num_clients=8),
    "n9-pbft-equivocating-rotated": dict(
        protocol="pbft", adversary="equivocating-leader", rotate_leaders=True
    ),
}


class TestServingRoutes:
    """The serving path makes progress with agreeing logs under every
    arrival discipline, leadership policy and slot protocol, and runs on
    the kernels: each slot is an instance on the one stack, its groups
    walked or passed by their size."""

    @pytest.mark.parametrize("cell", ROUTE_CELLS.values(), ids=ROUTE_CELLS)
    def test_cell_completes_on_its_routes(self, cell):
        spec = ServingSpec(
            **{"load": "high", "num_clients": 20, "requests_per_client": 5, **cell}
        )
        result = run_serving_trial(spec)
        assert result.completed == spec.total_requests, result.completed
        assert result.throughput > 0 and result.logs_consistent
        assert result.timed_out == 0
        routes = result.kernel_stats
        if spec.n == 9:
            # An n=9 slot's groups (5-8 buckets of <= 8 recipients) are below
            # the pass's break-even: each is one walk.
            assert routes["vote_passes"] == 0 < routes["vote_chains"], routes
            assert routes["walked"] > 0, routes
            # So is a whole n=9 view change (<= 9 broadcasts of 8).
            assert routes["wish_passes"] == 0, routes
        else:
            # n=16: a phase is 15 buckets of 13 votes, one pass; the leader's
            # own Prepare lands alone and is walked.
            assert 0 < routes["vote_passes"] < routes["vectorised"], routes
            assert routes["walked"] <= routes["vote_chains"], routes
        if spec.adversary == "none":
            buckets = sum(routes[k] for k in ("vectorised", "walked", "declined"))
            assert routes["declined"] <= 0.1 * buckets, routes
