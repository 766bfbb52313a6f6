"""Tests for the unified trial lifecycle and the pooled CryptoContext.

Covers the two hard guarantees of the refactor:

* every trial (a DeploymentSpec, a matrix cell) is one lifecycle — same
  spec, same result;
* pooled crypto (shared registries + verification through a per-instance
  verdict table) is **bit-identical** to fresh per-deployment crypto,
  serially and across worker processes, and pool keying never leaks state
  across differing ``(n, master_seed)``;
* a verdict table lives exactly as long as its consensus instance.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from repro.config import ProtocolConfig
from repro.crypto.context import (
    CryptoContext,
    clear_crypto_pool,
    crypto_pool_stats,
)
from repro.crypto.hashing import digest, stable_encode
from repro.harness.trial import (
    DeploymentSpec,
    TrialContext,
    list_protocols,
    register_protocol,
    run_trial,
)
from repro.harness.parallel import ExperimentEngine
from repro.harness.registry import MatrixCell, run_matrix_cell

from .helpers import seeded_specs


def _fresh_result(protocol: str, domain: str, config: ProtocolConfig, seed: int):
    """Run one trial with an explicitly fresh (unpooled, unmemoized) context."""
    crypto = CryptoContext.create(config.n, master_seed=digest(domain, seed))
    spec = DeploymentSpec(
        protocol=protocol,
        config=config,
        seed=seed,
        max_time=5000,
        extra=(("crypto", crypto),),
    )
    return run_trial(spec)


class TestRunTrialDispatch:
    def test_unknown_protocol_raises_clear_keyerror(self):
        spec = DeploymentSpec(protocol="paxos", config=ProtocolConfig(n=4, f=1))
        with pytest.raises(KeyError, match="unknown protocol 'paxos'"):
            run_trial(spec)

    def test_duplicate_protocol_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_protocol("probft", lambda *a, **k: None)

    def test_registered_protocols(self):
        assert list_protocols() == ["hotstuff", "pbft", "probft"]

    def test_with_seed_changes_only_seed(self):
        spec = DeploymentSpec(protocol="probft", config=ProtocolConfig(n=4, f=1))
        reseeded = spec.with_seed(9)
        assert reseeded.seed == 9
        assert reseeded.protocol == spec.protocol
        assert reseeded.config == spec.config

    @pytest.mark.parametrize("protocol", ["probft", "pbft", "hotstuff"])
    def test_an_unknown_extra_is_refused_not_ignored(self, protocol):
        """``extra`` reaches the constructor as keyword arguments: a name no
        deployment takes fails the build instead of running another trial."""
        spec = DeploymentSpec(
            protocol=protocol,
            config=ProtocolConfig(n=4, f=1),
            extra=(("dissemination", "dense"),),
        )
        with pytest.raises(TypeError, match="dissemination"):
            spec.build()

    def test_context_is_idempotent_and_keeps_deployment(self):
        spec = DeploymentSpec(
            protocol="probft", config=ProtocolConfig(n=8, f=1), seed=3,
            max_time=5000,
        )
        context = TrialContext(spec)
        deployment = context.build()
        assert context.build() is deployment
        result = context.execute()
        assert context.execute() is result
        assert context.deployment is deployment
        assert deployment.all_correct_decided() == result.all_decided


class TestDeploymentTeardown:
    """A finished deployment is freed when its last holder lets go of it,
    by reference counting alone: a sweep must not pile up dead deployments
    for a later trial's full collection to pay for."""

    @staticmethod
    def _spec(protocol: str, adversary: str, reference: bool = False):
        from repro.harness.registry import MatrixCell, cell_deployment_spec

        cell = MatrixCell(protocol, adversary, "constant", n=16, f=5)
        spec = cell_deployment_spec(cell, seed=3, max_time=600.0)
        if reference:
            spec = dataclasses.replace(spec, extra=(("reference", True),))
        return spec

    @pytest.mark.parametrize("reference", [False, True])
    @pytest.mark.parametrize("adversary", ["none", "silent", "flooding"])
    @pytest.mark.parametrize("protocol", ["probft", "pbft", "hotstuff"])
    def test_dropped_context_leaves_no_cyclic_garbage(
        self, protocol, adversary, reference
    ):
        gc.collect()
        gc.disable()
        try:
            context = TrialContext(self._spec(protocol, adversary, reference))
            assert context.execute().agreement_ok
            deployment = weakref.ref(context.deployment)
            replica = weakref.ref(context.deployment.replicas[1])
            del context
            assert deployment() is None and replica() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("protocol", ["probft", "pbft", "hotstuff"])
    def test_a_chained_trial_holds_no_run_and_leaves_no_garbage(self, protocol):
        """Under continuous latency ``run()`` serves chains: the simulator
        holds their entries, items and receiver (the network) while one is
        delivered, and nothing of it afterwards — a kept receiver would be
        a simulator <-> network cycle in every deployment."""
        from repro.harness.registry import MatrixCell, cell_deployment_spec

        gc.collect()
        gc.disable()
        try:
            cell = MatrixCell(protocol, "none", "exponential", n=16, f=5)
            context = TrialContext(cell_deployment_spec(cell, seed=3, max_time=600.0))
            assert context.execute().all_decided
            sim = context.deployment.sim
            assert sim._run == [] and sim._chain is None and sim._stop_when is None
            if protocol == "probft":
                routes = context.deployment.vote_kernel_stats()
                assert 0 < 4 * routes["vote_chains"] <= routes["walked"]
            deployment = weakref.ref(context.deployment)
            network = weakref.ref(context.deployment.network)
            del context, sim
            assert deployment() is None and network() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("read_tag", [False, True])
    def test_a_vote_envelope_dies_with_its_deployment(self, read_tag):
        """An on-demand envelope points at the key registry and the counters
        — never at the verdict table whose born-valid entry pins it, nor at
        a scheme that holds the table: no cycle, freed by reference counting."""
        from repro.messages.probft import Prepare

        gc.collect()
        gc.disable()
        try:
            context = TrialContext(self._spec("probft", "none"))
            assert context.execute().all_decided
            deployment = context.deployment
            born = deployment.crypto.verdicts._entries["signature"]
            vote = next(
                envelope for envelope, _ in born.values()
                if isinstance(envelope.payload, Prepare)
            )
            counts = deployment.crypto.verdicts.counts
            if read_tag:
                assert len(vote.signature) == 32
                # Its own, and — to encode the payload — the embedded
                # leader statement's.
                assert counts.tags_computed == 2
            envelope = weakref.ref(vote)
            del vote, born
            assert envelope() is not None  # pinned by its verdict
            deployment.close()
            del context, deployment
            assert envelope() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_closed_deployment_stays_readable(self):
        context = TrialContext(self._spec("probft", "silent"))
        result = context.execute()
        deployment = context.deployment
        replica = deployment.replicas[1]
        stats = deployment.vote_kernel_stats()
        deployment.close()
        deployment.close()  # idempotent
        assert deployment.replicas == {} and deployment.sim.pending_events == 0
        assert deployment.all_correct_decided() and deployment.agreement_ok
        assert deployment.vote_kernel_stats() == stats
        assert deployment.network.stats.sent_total == result.total_messages
        assert deployment.sim.now == result.sim_time
        assert replica.decision is not None and replica.current_view == 2

    @pytest.mark.parametrize("reference", [False, True])
    @pytest.mark.parametrize("adversary", ["none", "equivocating-leader"])
    def test_serving_deployment_is_freed_by_reference_counting(
        self, adversary, reference
    ):
        """The SMR service sits on the same base: a served deployment, its
        generator, and every slot instance (retired by then or not) go away
        with their last holder — no collection needed, none left to do."""
        from repro.smr.workload import (
            ServingSpec,
            WorkloadGenerator,
            build_serving_deployment,
        )

        spec = ServingSpec(
            adversary=adversary, rotate_leaders=True, num_clients=6,
            requests_per_client=3, max_time=5_000.0,
        )
        gc.collect()
        gc.disable()
        try:
            deployment = build_serving_deployment(spec, reference=reference)
            generator = WorkloadGenerator(deployment, spec.workload(), seed=0)
            generator.run(max_time=spec.max_time)
            assert generator.done() and deployment.logs_consistent()
            replica = deployment.replicas[min(deployment.correct_ids)]
            last = replica.log.applied_up_to
            # Slot 1 is long retired (every correct replica applied it): the
            # record answers for it and the instance is gone already.
            assert replica.slot_replica(1).decision.view >= 1
            assert 1 not in replica._slots and 1 not in deployment.stack.stacks
            probes = [
                weakref.ref(obj)
                for obj in (deployment, replica, replica.slot_replica(last))
            ]
            del deployment, generator, replica
            assert [probe() for probe in probes] == [None, None, None]
            assert gc.collect() == 0 and not gc.garbage
        finally:
            gc.enable()

    def test_retirement_frees_a_slot_while_the_deployment_runs(self):
        from repro.smr.app import CounterApp
        from repro.smr.service import SMRDeployment

        gc.collect()
        gc.disable()
        try:
            deployment = SMRDeployment(
                ProtocolConfig(n=9, f=2), CounterApp, num_slots=6, seed=2
            )
            deployment.start()
            replica = deployment.replicas[1]
            instance = weakref.ref(replica.slot_replica(1))
            stack = weakref.ref(deployment.stack.stacks[1])
            deployment.run(max_time=5_000.0)
            assert deployment.all_applied()
            assert instance() is None and stack() is None
            assert replica.slot_replica(1).config.seed_domain == "slot-1"
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_closed_serving_deployment_stays_readable(self):
        from repro.smr.workload import ServingSpec, build_serving_deployment, serve

        spec = ServingSpec(num_clients=6, requests_per_client=3, max_time=5_000.0)
        deployment = build_serving_deployment(spec)
        result = serve(spec, deployment)
        replica = deployment.replicas[min(deployment.correct_ids)]
        deployment.close()
        deployment.close()  # idempotent
        assert deployment.replicas == {} and deployment.sim.pending_events == 0
        assert deployment.vote_kernel_stats() == result.kernel_stats
        assert deployment.network.stats.sent_total > 0
        last = replica.log.applied_up_to
        assert last >= 1 and replica.slot_replica(last).decision is not None
        assert not deployment.stack.stacks and not deployment.stack.decode._decoded

    def test_half_built_deployment_is_not_closed(self):
        from repro.core.protocol import ProBFTDeployment

        # What the interpreter runs when ``__init__`` raised half way.
        ProBFTDeployment.__new__(ProBFTDeployment).__del__()


class TestCryptoPoolDeterminism:
    """Pooled and fresh crypto must be bit-identical, per the ISSUE."""

    @pytest.mark.parametrize(
        "protocol,domain",
        [
            ("probft", "deployment"),
            ("pbft", "pbft-deployment"),
            ("hotstuff", "hotstuff-deployment"),
        ],
    )
    def test_pooled_matches_fresh_bitwise(self, protocol, domain):
        config = ProtocolConfig(n=10, f=2)
        fresh = _fresh_result(protocol, domain, config, seed=21)
        clear_crypto_pool()
        pooled_cold = run_trial(
            DeploymentSpec(protocol=protocol, config=config, seed=21, max_time=5000)
        )
        pooled_warm = run_trial(
            DeploymentSpec(protocol=protocol, config=config, seed=21, max_time=5000)
        )
        assert fresh == pooled_cold == pooled_warm
        stats = crypto_pool_stats()
        assert stats["hits"] >= 1  # the warm run reused the cold run's entry

    def test_pooled_matches_fresh_across_workers(self):
        """Serial and workers=2 runs of the equivocation cell are identical —
        each worker grows its own pool, none of which changes results."""
        cell = MatrixCell("probft", "equivocation", "constant", n=8, f=2)
        specs = seeded_specs(4, master_seed=5, params=(cell, 5000.0))
        serial = ExperimentEngine(workers=0).map(run_matrix_cell, specs)
        with ExperimentEngine(workers=2) as engine:
            pooled = engine.map(run_matrix_cell, specs)
        assert pooled == serial

    def test_pool_reuses_registry_only(self):
        clear_crypto_pool()
        a = CryptoContext.pooled(8, b"pool-key")
        b = CryptoContext.pooled(8, b"pool-key")
        # Only the immutable registry is shared: whatever remembers a
        # verdict belongs to one consensus instance (``instance()``), so
        # nothing can pin outputs or envelope graphs across deployments.
        assert a.registry is b.registry
        assert a.vrf is not b.vrf
        assert a.signatures is not b.signatures
        assert crypto_pool_stats() == {"hits": 1, "misses": 1, "size": 1}

    def test_finished_trial_retains_nothing(self):
        """Nothing outlives its trial: once the context is dropped, its VRF
        outputs and signed votes are collectable."""
        context = TrialContext(
            DeploymentSpec(
                protocol="probft",
                config=ProtocolConfig(n=100, f=10),
                seed=5,
                max_time=5000,
            )
        )
        assert context.execute().all_decided
        # A Prepare vote from replica 0's prepared certificate: validated
        # during the run, so the verdict table has pinned it and its sample.
        vote = context.deployment.replicas[0]._cert[0]
        output = vote.payload.sample
        stable_encode(vote)  # the encode cache lives on the objects too
        refs = [weakref.ref(vote), weakref.ref(output)]
        del context, vote, output
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_pool_keying_isolates_n_and_seed(self):
        clear_crypto_pool()
        base = CryptoContext.pooled(8, b"seed-A")
        other_seed = CryptoContext.pooled(8, b"seed-B")
        other_n = CryptoContext.pooled(9, b"seed-A")
        assert base is not other_seed and base is not other_n
        # Key material differs across pool keys and matches fresh derivation.
        for context, (n, seed) in (
            (base, (8, b"seed-A")),
            (other_seed, (8, b"seed-B")),
            (other_n, (9, b"seed-A")),
        ):
            fresh = CryptoContext.create(n, seed)
            assert context.n == n
            for r in range(n):
                assert (
                    context.registry.key_pair(r) == fresh.registry.key_pair(r)
                )
        assert (
            base.registry.key_pair(0) != other_seed.registry.key_pair(0)
        )

    def test_clear_pool_resets(self):
        CryptoContext.pooled(4, b"x")
        clear_crypto_pool()
        assert crypto_pool_stats() == {"hits": 0, "misses": 0, "size": 0}


class TestVerdictTableLifecycle:
    """The *validated once* table lives exactly as long as its consensus
    instance, and a tabled context computes what a plain one computes."""

    def test_tabled_context_matches_plain(self):
        fresh = CryptoContext.create(12, b"vrf-table")
        tabled = fresh.instance(ProtocolConfig(n=12))
        for replica in range(12):
            for seed_str in ("1||prepare", "1||commit", "2||prepare"):
                plain_out = fresh.vrf.prove(replica, seed_str, 5)
                tabled_out = tabled.vrf.prove(replica, seed_str, 5)
                assert plain_out == tabled_out
                assert tabled.vrf.verify(replica, seed_str, 5, tabled_out)
                assert tabled.vrf.verify(replica, seed_str, 5, plain_out)
                assert fresh.vrf.verify(replica, seed_str, 5, tabled_out)
        counts = tabled.verdicts.counts
        # What prove() returned was valid at birth; the plain context's
        # equal outputs are other objects and took the full replay.
        assert counts.born["vrf"] == 36 and counts.computed["vrf"] == 36
        assert counts.samples_expanded == 72

    def test_prove_outputs_bit_identical_on_golden_seeds(self):
        """Proving is a pure function of (replica, seed, s) over the
        immutable registry: a tabled prover's outputs (sample AND proof
        bytes) equal an untabled VRF's, however often they are asked for."""
        fresh = CryptoContext.create(10, b"prove-golden")
        tabled = fresh.instance(ProtocolConfig(n=10))
        golden = [
            (replica, f"{view}||{tag}", 4)
            for replica in (0, 3, 9)
            for view in (1, 2, 7)
            for tag in ("prepare", "commit")
        ]
        first = [tabled.vrf.prove(*args) for args in golden]
        again = [tabled.vrf.prove(*args) for args in golden]
        reference = [fresh.vrf.prove(*args) for args in golden]
        assert first == again == reference
        for out in first:
            assert isinstance(out.proof, bytes)

    def test_prove_with_explicit_key_never_registers(self):
        """The adversary's corrupted-key path must not be trusted at birth:
        an explicit key that differs from the registry's yields a different
        output even for a (replica, seed, s) triple already proven."""
        fresh = CryptoContext.create(6, b"prove-adv")
        tabled = fresh.instance(ProtocolConfig(n=6))
        honest = tabled.vrf.prove(2, "1||prepare", 3)
        entries = len(tabled.verdicts)
        wrong_key = b"\x07" * 32
        forged = tabled.vrf.prove_with(wrong_key, 2, "1||prepare", 3)
        assert forged != honest
        assert len(tabled.verdicts) == entries  # nothing registered
        assert forged == fresh.vrf.prove_with(wrong_key, 2, "1||prepare", 3)
        # And the forged output does not verify as replica 2.
        assert not tabled.vrf.verify(2, "1||prepare", 3, forged)

    def test_the_oracle_has_no_table(self):
        spec = DeploymentSpec(
            protocol="probft", config=ProtocolConfig(n=10, f=2), seed=1,
            max_time=5000, extra=(("reference", True),),
        )
        context = TrialContext(spec)
        assert context.execute().all_decided
        assert context.deployment.crypto.verdicts is None
        stats = context.deployment.crypto.signatures.cache_stats()
        # Table-free, every recipient recomputes — which reads honest tags:
        # the one counter an oracle moves (on counts of its own).
        assert stats.pop("tags_computed") > 0
        assert not any(stats.values())

    @pytest.mark.parametrize("protocol", ["probft", "pbft", "hotstuff"])
    def test_table_is_empty_after_close(self, protocol):
        context = TrialContext(
            DeploymentSpec(
                protocol=protocol, config=ProtocolConfig(n=16, f=5), seed=3,
                max_time=5000,
            )
        )
        assert context.execute().all_decided
        deployment = context.deployment
        table = deployment.crypto.verdicts
        assert table.config is deployment.config and len(table) > 0
        stats = deployment.vote_kernel_stats()
        assert stats["validated"] > 0 and stats["validated_reused"] > 0
        deployment.close()
        assert len(table) == 0
        assert deployment.vote_kernel_stats() == stats  # counts stay readable

    def test_delivered_vote_dies_with_its_deployment(self):
        """No collection needed: the table pins a vote for the life of the
        instance and not a moment longer."""
        gc.collect()
        gc.disable()
        try:
            context = TrialContext(
                DeploymentSpec(
                    protocol="probft", config=ProtocolConfig(n=100, f=10),
                    seed=5, max_time=5000,
                )
            )
            assert context.execute().all_decided
            deployment = context.deployment
            vote = deployment.replicas[0]._cert[0]
            table = deployment.crypto.verdicts
            assert table.get("vote", vote).valid  # delivered, so validated
            refs = [weakref.ref(vote), weakref.ref(vote.payload.sample)]
            del context, deployment, vote
            assert [ref() for ref in refs] == [None, None]
            assert len(table) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_slot_table_goes_when_the_slot_retires(self):
        from repro.smr.app import CounterApp
        from repro.smr.service import SMRDeployment

        gc.collect()
        gc.disable()
        try:
            deployment = SMRDeployment(
                ProtocolConfig(n=9, f=2), CounterApp, num_slots=6, seed=2
            )
            deployment.start()
            stack = deployment.stack.stacks[1]
            table = stack.crypto.verdicts
            assert table is not deployment.crypto.verdicts
            assert table.config is stack.config
            assert table.config.seed_domain == "slot-1"
            deployment.sim.run(until=1.5)  # slot 1's Propose is delivered
            assert len(table) > 0
            proposal = weakref.ref(deployment.replicas[1].slot_replica(1)._proposal)
            del stack
            deployment.run(max_time=5_000.0)
            assert deployment.all_applied()
            # Retired mid-run: nothing of slot 1 is pinned any more ...
            assert len(table) == 0 and proposal() is None
            assert not deployment.stack.stacks
            # ... and what its table did is still in the deployment's counts.
            counts = deployment.crypto.verdicts.counts
            assert counts is table.counts
            assert counts.computed["propose"] == 6  # one per slot
            stats = deployment.vote_kernel_stats()
            assert stats["propose_validations"] == 6
            assert stats["validated"] >= 6 + counts.computed["vote"] > 6
            assert len(deployment.crypto.verdicts) == 0  # only slots validate
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestWhatAVoteLeavesBehind:
    """A vote allocates what some reader later consumes: its membership set
    is built by the first ``i ∈ S`` question, and the vectorised route from
    a correct sender to its own sample never asks one."""

    @staticmethod
    def _context(adversary: str, latency: str, n: int, f: int, seed: int):
        from repro.harness.registry import MatrixCell, cell_deployment_spec

        cell = MatrixCell("probft", adversary, latency, n=n, f=f)
        return TrialContext(cell_deployment_spec(cell, seed=seed, max_time=600.0))

    @staticmethod
    def _proven(deployment):
        """``(prover, output)`` of every sample an honest replica proved."""
        born = deployment.crypto.verdicts._entries["vrf"]
        return [(key[1][0], entry[0]) for key, entry in born.items() if entry[1]]

    @staticmethod
    def _built(outputs) -> int:
        return sum("_members" in output.__dict__ for _, output in outputs)

    def test_fault_free_trial_builds_sets_only_for_self_sampled_votes(self):
        context = self._context("none", "constant", 100, 33, seed=4)
        result = context.execute()
        assert result.all_decided and result.max_view == 1
        routes = context.deployment.vote_kernel_stats()
        assert routes["vectorised"] > 0 and routes["declined"] == 0
        proven = self._proven(context.deployment)
        assert len(proven) == 2 * 100  # one Prepare and one Commit sample each
        self_sampled = sum(prover in output.sample for prover, output in proven)
        # Only a sender's delivery to itself asks ``i ∈ S`` (about s/n of
        # the votes); before, every delivered vote carried a built set.
        assert 0 < self_sampled < len(proven) // 2
        assert self._built(proven) <= self_sampled

    @pytest.mark.parametrize(
        "adversary,latency,route",
        [("equivocation", "constant", "declined"), ("none", "exponential", "walked")],
    )
    def test_routes_that_ask_still_match_the_oracle(self, adversary, latency, route):
        context = self._context(adversary, latency, 30, 5, seed=2)
        result = context.execute()
        oracle = self._context(adversary, latency, 30, 5, seed=2)
        oracle.spec = dataclasses.replace(oracle.spec, extra=(("reference", True),))
        assert result == oracle.execute()
        assert result.agreement_ok
        assert context.deployment.vote_kernel_stats()[route] > 0
        # These routes do ask, per recipient: the sets exist, one per output.
        proven = self._proven(context.deployment)
        assert self._built(proven) > 0
        for _, output in proven:
            if "_members" in output.__dict__:
                assert output.members() == frozenset(output.sample)
                assert output.members() is output.members()
