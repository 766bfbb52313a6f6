"""The production stack against the oracle, and the counters on its kernel.

Every single-shot deployment runs one stack: coalesced fan-outs handed to
the instance's kernel — for ProBFT the vote kernel over columnar state
(:mod:`repro.core.columnar`).  ``reference=True`` on the deployment base
(reachable through ``DeploymentSpec.extra`` only) builds the oracle
instead — per-recipient delivery, :meth:`ProBFTReplica.on_message`,
set-based collectors, and a **table-free** crypto context: where production
validates each message object once through its instance's verdict table
(:mod:`repro.crypto.verdicts`), the oracle recomputes every signature, VRF
proof, ``safeProposal`` and certificate for every recipient.  The contract
is that the two produce **equal** :class:`~repro.harness.trial.RunResult`\\ s
for the same seed: same decisions, views, message and byte statistics, same
simulated time — so every test here, the serving grid included, also proves
*table ≡ recomputation*: a stale or mis-keyed verdict would show as a
difference.  (The recomputing oracle costs this file ~25 s of tier-1 over a
tabled one; all of it runs table-free, the n=60 and n=100 cells too.)

Each comparison builds a *fresh* spec per run via
:func:`~repro.harness.registry.cell_deployment_spec`: a DeploymentSpec
carries seeded latency/chaos objects whose RNG streams advance as the
simulation runs, so replaying a used spec would compare against an
advanced stream, not against the oracle.
"""

from __future__ import annotations

import pytest

from repro.adversary.behaviors import silent_factory
from repro.config import ProtocolConfig
from repro.core.deployment import KERNEL_STATS
from repro.core.leader import leader_of
from repro.core.protocol import ProBFTDeployment
from repro.harness.registry import (
    ADVERSARIES,
    LATENCIES,
    PROTOCOLS,
    MatrixCell,
    ScenarioMatrix,
    cell_deployment_spec,
)
from repro.harness.parallel import derive_seed
from repro.harness.trial import DeploymentSpec, TrialContext, run_trial, summarize
from repro.net.latency import ExponentialLatency
from repro.sync.synchronizer import Wish
from repro.sync.timeouts import FixedTimeout

from .helpers import (
    deliver_bucket,
    make_commit,
    make_prepare,
    make_propose,
    make_statement,
    quorum_new_leaders,
    reference_spec,
)

MAX_TIME = 600.0


def _cells(
    n: int, protocols=PROTOCOLS, adversaries=ADVERSARIES, latencies=LATENCIES
):
    return ScenarioMatrix(
        name="identity",
        protocols=tuple(protocols),
        adversaries=tuple(adversaries),
        latencies=tuple(latencies),
        n=n,
        track_bytes=True,
    ).cells()


def _pair(cell: MatrixCell, seed: int):
    """(production deployment, production result, oracle result)."""

    def spec():
        return cell_deployment_spec(cell, seed=seed, max_time=MAX_TIME)

    context = TrialContext(spec())
    production = context.execute()
    oracle = run_trial(reference_spec(spec()))
    return context.deployment, production, oracle


# ----------------------------------------------------------------------
# RunResult identity over the whole scenario matrix
# ----------------------------------------------------------------------


class TestMatrixIdentity:
    @pytest.mark.parametrize("latency", LATENCIES)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_every_cell_equals_the_oracle(self, protocol, latency):
        """3 protocols x 7 adversaries x 4 latency models at n=30, 2 seeds.

        The kernel-sensitive adversaries are all here:
        equivocation (view flagging, the kernel declines), flooding (forged
        statements must NOT flag views; invalid votes are never
        counted), duplication (per-target duplicate draws, the
        kernel declines every bucket), the targeted scheduler
        (per-recipient eligibility), and under the continuous latency
        models every vote bucket is a singleton.
        """
        cells = _cells(30, protocols=(protocol,), latencies=(latency,))
        assert len(cells) == len(ADVERSARIES)
        for cell in cells:
            for seed in (0, 1):
                _, production, oracle = _pair(cell, seed)
                assert production == oracle, (cell.label, seed)

    @pytest.mark.parametrize("latency", ["constant", "exponential"])
    def test_the_leader_broadcasts_one_propose(self, latency):
        """The proposal has one way out: the view-1 leader broadcasts one
        Propose object to the n-1 others, and it is validated once."""
        (cell,) = _cells(
            30, protocols=("probft",), adversaries=("none",), latencies=(latency,)
        )
        deployment, production, oracle = _pair(cell, 3)
        assert production == oracle
        assert production.all_decided and production.max_view == 1
        assert production.messages_by_type["Propose"] == cell.n - 1
        assert deployment.vote_kernel_stats()["propose_validations"] == 1

    @pytest.mark.parametrize("latency", ["constant", "exponential"])
    def test_silent_view1_leader_decides_in_view_2(self, latency):
        """The view-change path: Wish storms, NewLeader certificates read
        back out of the columnar slots, buffered future-view votes."""
        (cell,) = _cells(
            60, protocols=("probft",), adversaries=("silent",), latencies=(latency,)
        )
        _, production, oracle = _pair(cell, 0)
        assert production == oracle
        assert production.all_decided and production.max_view == 2

    @pytest.mark.parametrize("latency", ["constant", "exponential"])
    def test_traces_are_identical(self, latency):
        """``trace=True``: every replica records the same events at the same
        simulated times, whichever stack delivered its votes."""
        traces = []
        for reference in (False, True):
            deployment = ProBFTDeployment(
                ProtocolConfig(n=30),
                seed=5,
                latency=ExponentialLatency(mean=1.0, cap=5.0, seed=5)
                if latency == "exponential"
                else None,
                timeout_policy=FixedTimeout(30.0),
                byzantine={0: silent_factory()},
                trace=True,
                reference=reference,
            ).run(max_time=MAX_TIME)
            assert deployment.all_correct_decided()
            traces.append(
                {r: rep.trace for r, rep in deployment.correct_replicas().items()}
            )
        assert traces[0] == traces[1]
        assert any(e.kind == "decide" for e in traces[0][1])


# ----------------------------------------------------------------------
# What each deployment installs
# ----------------------------------------------------------------------


class TestStackWiring:
    def _spec(self, protocol):
        cell = MatrixCell(protocol, "none", "constant", n=14, f=2)
        return cell_deployment_spec(cell, seed=0, max_time=MAX_TIME)

    def test_probft_installs_its_table(self):
        from repro.core.columnar import ColumnarVoteDispatch
        from repro.messages.probft import Commit, Prepare
        from repro.sync.synchronizer import Wish

        deployment = self._spec("probft").build()  # closes when let go of
        stack, network = deployment.stack, deployment.network
        assert type(stack.votes) is ColumnarVoteDispatch
        assert network.kernels == {
            Wish: stack.wishes, Prepare: stack.votes, Commit: stack.votes
        }
        assert network._inspect == stack.votes.inspect

    def test_baselines_coalesce_and_run_the_wish_kernel(self):
        # PBFT is ProBFT's skeleton: its broadcast votes ride the vote
        # kernel.  HotStuff's votes are unicasts to the leader, so its table
        # holds the wish kernel alone, and nothing inspects its sends.
        from repro.core.columnar import ColumnarVoteDispatch
        from repro.messages.pbft import PbftCommit, PbftPrepare
        from repro.sync.synchronizer import Wish

        deployment = self._spec("pbft").build()
        stack, network = deployment.stack, deployment.network
        assert type(stack.votes) is ColumnarVoteDispatch
        assert network.kernels == {
            Wish: stack.wishes, PbftPrepare: stack.votes, PbftCommit: stack.votes
        }
        assert network._inspect == stack.votes.inspect
        deployment = self._spec("hotstuff").build()
        stack, network = deployment.stack, deployment.network
        assert network.kernels == {Wish: stack.wishes}
        assert network._inspect is None

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_correct_synchronizers_share_one_set_of_columns(self, protocol):
        from repro.sync.synchronizer import WishLedger

        deployment = self._spec(protocol).build()
        columns = deployment.stack.wishes.columns
        backends = [r.synchronizer._wishes for r in deployment.replicas.values()]
        assert all(b._columns is columns for b in backends)
        # ... and cost nothing until somebody wishes.
        deployment.run(max_time=MAX_TIME)
        assert deployment.max_decision_view == 1 and columns.nbytes == 0
        oracle = reference_spec(self._spec(protocol)).build()
        assert oracle.stack is None
        assert all(
            type(r.synchronizer._wishes) is WishLedger
            for r in oracle.replicas.values()
        )

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_oracle_installs_nothing(self, protocol):
        from repro.quorum.probabilistic import ProbabilisticQuorumCollector

        deployment = reference_spec(self._spec(protocol)).build()
        assert deployment.network.kernels is None
        assert deployment.crypto.verdicts is None  # every check recomputed
        if protocol == "probft":
            deployment.run(max_time=MAX_TIME)
            collector = deployment.replicas[1]._commit_collectors[1]
            assert type(collector) is ProbabilisticQuorumCollector

    def test_probft_n500_trial_decides(self):
        """One ProBFT n=500 trial completes and decides (CI budget)."""
        cell = MatrixCell("probft", "none", "constant", n=500, f=99)
        result = run_trial(cell_deployment_spec(cell, seed=7, max_time=300.0))
        assert result.all_decided and result.agreement_ok


# ----------------------------------------------------------------------
# The kernel's singleton branch, driven one bucket at a time
# ----------------------------------------------------------------------


class _Recorder:
    """A Byzantine endpoint that records what it is handed."""

    def __init__(self):
        self.received = []

    def start(self):
        pass

    def on_message(self, src, message):
        self.received.append((src, message))


class TestSingletonBranch:
    """n=8 (saturated samples: everyone is in every sample, q=6), replica 7
    Byzantine so ``has_byz`` holds; the run is paused at t=1.5, when every
    correct replica has voted and holds two Prepares (the leader's, sent at
    t=0, and its own) with the other multicasts still in flight."""

    BYZ = 7

    @pytest.fixture
    def paused(self):
        recorder = _Recorder()
        deployment = ProBFTDeployment(
            ProtocolConfig(n=8, f=1),
            seed=1,
            timeout_policy=FixedTimeout(30.0),
            byzantine={self.BYZ: lambda *args: recorder},
        )
        deployment.start()
        deployment.sim.run(until=1.5)  # Propose lands at t=1; Prepares at t=2
        replicas = deployment.correct_replicas()
        assert all(r._voted and r.current_view == 1 for r in replicas.values())
        return deployment, recorder

    def _prepare(self, deployment, sender, view=1):
        statement = deployment.replicas[1]._proposal.payload.statement
        if view != 1:
            from .helpers import make_statement

            statement = make_statement(
                deployment.crypto, deployment.config, view, b"later"
            )
        return make_prepare(deployment.crypto, deployment.config, sender, statement)

    def test_byzantine_recipient_gets_the_plain_handler(self, paused):
        deployment, recorder = paused
        vote = self._prepare(deployment, sender=2)
        # (The leader's Prepare, 7 votes at t=1, was walked before the pause.)
        walked = deployment.vote_kernel_stats()["walked"]
        assert deliver_bucket(deployment.network.kernels, 2, vote, [self.BYZ]) == 1
        assert recorder.received[-1] == (2, vote)
        assert deployment.vote_kernel_stats()["walked"] == walked + 1

    def test_future_view_vote_is_buffered(self, paused):
        deployment, _ = paused
        vote = self._prepare(deployment, sender=2, view=2)
        assert deliver_bucket(deployment.network.kernels, 2, vote, [3]) == 1
        assert deployment.replicas[3]._future_buffer[2] == [(2, vote)]
        # ... exactly like the oracle's handler:
        oracle = ProBFTDeployment(
            ProtocolConfig(n=8, f=1), seed=1, reference=True
        )
        oracle.start()
        oracle.replicas[3].on_message(2, vote)
        assert oracle.replicas[3]._future_buffer[2] == [(2, vote)]

    def test_stale_and_unstarted_recipients_drop(self, paused):
        deployment, _ = paused
        fresh = ProBFTDeployment(ProtocolConfig(n=8, f=1), seed=1)  # view 0
        vote = self._prepare(deployment, sender=2)
        assert deliver_bucket(fresh.network.kernels, 2, vote, [3]) == 0
        assert not fresh.replicas[3]._future_buffer
        slot = deployment.stack.state.peek(True, 1, vote.payload.value)
        before = int(slot.counts[3])
        deployment.replicas[3]._on_new_view(2)  # the synchronizer's upcall
        assert deliver_bucket(deployment.network.kernels, 2, vote, [3]) == 0
        assert int(slot.counts[3]) == before

    def test_replayed_envelope_counts_once(self, paused):
        deployment, _ = paused
        vote = self._prepare(deployment, sender=2)
        collector = deployment.replicas[3]._prepare_collectors.get(1)
        value = deployment.replicas[3]._cur_val
        before = collector.senders(value)
        assert 2 not in before
        for _ in range(3):
            assert deliver_bucket(deployment.network.kernels, 2, vote, [3]) == 1
        assert collector.senders(value) == before | {2}
        assert collector.count(value) == len(before) + 1

    def test_quorum_completes_on_a_singleton_delivery(self, paused):
        deployment, _ = paused
        replica = deployment.replicas[3]
        q = deployment.config.q
        collector = replica._prepare_collectors.get(1)
        held = collector.messages(replica._cur_val)
        assert [m.signer for m in held] == [0, 3]
        votes = [self._prepare(deployment, sender=s) for s in (1, 2, 4, 5)]
        assert len(held) + len(votes) == q
        for vote in votes[:-1]:
            deliver_bucket(deployment.network.kernels, vote.signer, vote, [3])
        assert replica.prepared_view == 0
        deliver_bucket(deployment.network.kernels, votes[-1].signer, votes[-1], [3])
        assert replica.prepared_view == 1
        # The certificate is the first q envelopes in arrival order — what
        # the oracle's collector would hand NewLeader.
        assert replica._cert == held + tuple(votes)
        # A (q+1)-th vote is pruned (the view is committed): not delivered.
        extra = self._prepare(deployment, sender=6)
        assert deliver_bucket(deployment.network.kernels, 6, extra, [3]) == 0
        assert replica._cert == held + tuple(votes)

    def test_deciding_singleton_delivery_trips_the_stop_probe(self):
        """Under continuous latency the last decision arrives in a singleton
        bucket; the run must end on that very event, as the oracle's does."""
        cell = MatrixCell("probft", "none", "exponential", n=30, f=5)
        deployment, production, oracle = _pair(cell, 2)
        assert production == oracle and production.all_decided
        assert production.sim_time == production.last_decision_time
        stats = deployment.vote_kernel_stats()
        assert stats["walked"] > 0 and stats["declined"] == 0

    def test_commit_quorum_decides(self, paused):
        deployment, _ = paused
        replica = deployment.replicas[3]
        q = deployment.config.q
        for s in (1, 2, 4, 5):
            vote = self._prepare(deployment, sender=s)
            deliver_bucket(deployment.network.kernels, s, vote, [3])
        assert replica.prepared_view == 1
        statement = replica._proposal.payload.statement
        for s in range(q):
            assert replica.decision is None
            commit = make_commit(deployment.crypto, deployment.config, s, statement)
            deliver_bucket(deployment.network.kernels, s, commit, [3])
        assert replica.decision is not None and replica.decision.view == 1
        assert deployment.decisions[3] is replica.decision


# ----------------------------------------------------------------------
# Fallbacks are counted, not guessed
# ----------------------------------------------------------------------


class TestVoteKernelStats:
    def _run(
        self, adversary: str, latency: str, n: int = 60, seed: int = 0,
        protocol: str = "probft",
    ):
        (cell,) = _cells(
            n, protocols=(protocol,), adversaries=(adversary,), latencies=(latency,)
        )
        context = TrialContext(cell_deployment_spec(cell, seed, MAX_TIME))
        result = context.execute()
        assert result.agreement_ok
        return context.deployment, result

    @pytest.mark.parametrize("protocol", ["probft", "pbft"])
    def test_constant_latency_is_all_vectorised(self, protocol):
        deployment, result = self._run("none", "constant", protocol=protocol)
        stats = deployment.vote_kernel_stats()
        assert result.all_decided
        # (But the leader's own Prepare: it votes on its proposal at t=0, so
        # its Prepare lands alone, a small group, one walk.)
        assert stats["declined"] == 0 and stats["walked"] == 1
        assert stats["vectorised"] > 0

    @pytest.mark.parametrize("protocol", ["probft", "pbft"])
    def test_exponential_latency_is_singleton(self, protocol):
        deployment, result = self._run("none", "exponential", protocol=protocol)
        stats = deployment.vote_kernel_stats()
        assert result.all_decided and stats["declined"] == 0
        buckets = stats["vectorised"] + stats["walked"]
        assert stats["walked"] >= 0.9 * buckets

    @pytest.mark.parametrize("protocol", ["probft", "pbft"])
    def test_duplication_declines_every_vote_bucket(self, protocol):
        deployment, _ = self._run("duplication", "constant", protocol=protocol)
        stats = deployment.vote_kernel_stats()
        assert stats["declined"] > 0 and stats["wish_declined"] == 0
        assert stats["vectorised"] == 0 and stats["walked"] == 0

    def test_pbft_at_scale_rides_the_array_pass(self):
        """PBFT's n=300 phases (~90k broadcast votes each) are passes."""
        deployment, result = self._run("none", "constant", n=300, protocol="pbft")
        stats = deployment.vote_kernel_stats()
        assert result.all_decided and result.max_view == 1
        assert stats["vote_passes"] > 0 and stats["declined"] == 0

    def test_equivocation_declines_only_flagged_views(self):
        from repro.core.replica import prevalidate_vote

        (cell,) = _cells(
            30, protocols=("probft",), adversaries=("equivocation",),
            latencies=("constant",),
        )
        deployment = cell_deployment_spec(cell, 0, MAX_TIME).build()
        kernels = deployment.network.kernels
        kernel = deployment.stack.votes
        declined_views, applied_views = set(), set()

        def watching(run, pos, probe, advance):
            before = kernel.declined
            took = kernel(run, pos, probe, advance)
            for count, (_, message, _) in zip(took, run[pos:]):
                token = prevalidate_vote(deployment.config, deployment.crypto, message)
                if token is not None:
                    # (A declined bucket is the last one answered.)
                    counted = count < 0 and kernel.declined > before
                    (declined_views if counted else applied_views).add(token.view)
            return took

        # The stack's table, with every vote kind going to the watched kernel.
        watched = {k: watching if e is kernel else e for k, e in kernels.items()}
        deployment.network.use_kernel(watched, deployment.stack.inspect)
        deployment.run(max_time=MAX_TIME)
        flagged = kernel._equivocal
        assert declined_views and declined_views <= flagged
        # The deciding view is not flagged and goes through the kernel.
        assert deployment.all_correct_decided()
        assert deployment.max_decision_view in applied_views - flagged
        stats = deployment.vote_kernel_stats()
        assert stats["declined"] > 0 and stats["vectorised"] > 0

    def test_oracle_has_no_kernel(self):
        cell = MatrixCell("probft", "none", "constant", n=14, f=2)
        context = TrialContext(
            reference_spec(cell_deployment_spec(cell, 0, MAX_TIME))
        )
        context.execute()
        assert context.deployment.vote_kernel_stats() == dict.fromkeys(
            KERNEL_STATS, 0
        )

    def test_stats_stay_off_run_result(self):
        import dataclasses

        from repro.harness.trial import RunResult

        names = {f.name for f in dataclasses.fields(RunResult)}
        assert not names & set(KERNEL_STATS)
        assert not any("kernel" in name for name in names)


# ----------------------------------------------------------------------
# The view-change path: the wish kernel and the shared Propose verdict
# ----------------------------------------------------------------------


def _spec_pair(make_spec):
    """(production deployment, production result, oracle result) of a spec
    factory (fresh spec per run: specs carry seeded RNG streams)."""
    context = TrialContext(make_spec())
    production = context.execute()
    oracle = run_trial(reference_spec(make_spec()))
    return context.deployment, production, oracle


class TestViewChangeIdentity:
    @pytest.mark.parametrize("latency", ["constant", "uniform", "exponential"])
    @pytest.mark.parametrize("adversary", ["silent", "crash"])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_forced_view_change_equals_the_oracle(self, protocol, adversary, latency):
        """Every protocol runs the shared wish kernel; silent leaders and
        crashed tails are the two cells whose trials cross it."""
        (cell,) = _cells(
            30, protocols=(protocol,), adversaries=(adversary,), latencies=(latency,)
        )
        deployment, production, oracle = _pair(cell, 2)
        assert production == oracle
        assert production.all_decided
        stats = deployment.vote_kernel_stats()
        wishes = production.messages_by_type.get("Wish", 0)
        assert (wishes > 0) == (production.max_view > 1)
        if adversary == "silent":
            assert production.max_view == 2
        if wishes:
            assert stats["wish_declined"] == 0
            # One bucket per fan-out under constant latency; one per
            # recipient, or nearly, under the continuous models.
            route = "wish_vectorised" if latency == "constant" else "wish_scalar"
            assert stats[route] > 0
            if latency == "constant":
                assert stats["wish_scalar"] == 0

    @pytest.mark.parametrize("latency", ["constant", "exponential"])
    def test_silent_leader_under_a_leader_offset(self, latency):
        config = ProtocolConfig(n=30, f=9, leader_offset=11)
        leader = leader_of(1, config)
        assert leader == 11

        def make_spec():
            return DeploymentSpec(
                protocol="probft",
                config=config,
                seed=4,
                latency=ExponentialLatency(mean=1.0, cap=5.0, seed=4)
                if latency == "exponential"
                else None,
                timeout_policy=FixedTimeout(30.0),
                byzantine={leader: silent_factory()},
                track_bytes=True,
                max_time=MAX_TIME,
            )

        _, production, oracle = _spec_pair(make_spec)
        assert production == oracle
        assert production.all_decided and production.max_view == 2

    def test_silent_leader_on_a_duplicating_network_declines(self):
        """A recipient may appear twice in a bucket: every Wish bucket takes
        the per-recipient loop over the same columns, and is counted."""
        import dataclasses

        (cell,) = _cells(
            30, protocols=("probft",), adversaries=("silent",), latencies=("constant",)
        )

        def make_spec():
            return dataclasses.replace(
                cell_deployment_spec(cell, seed=8, max_time=MAX_TIME),
                duplicate_prob=0.3,
            )

        deployment, production, oracle = _spec_pair(make_spec)
        assert production == oracle
        assert production.all_decided and production.max_view == 2
        stats = deployment.vote_kernel_stats()
        assert stats["wish_declined"] > 0
        assert stats["wish_vectorised"] == 0 and stats["wish_scalar"] == 0
        assert stats["declined"] > 0 and stats["vectorised"] == 0

    def test_fault_free_view_1_miss(self):
        """No fault at all: this n=100 seed just misses its view-1 quorums
        (ProBFT terminates a view only with high probability).  Some
        replicas prepared in view 1, so the NewLeader messages carry real
        certificates and the view-2 Propose justification is the most
        expensive thing in the trial to validate — once."""
        cell = MatrixCell("probft", "none", "constant", n=100, f=33)
        deployment, production, oracle = _pair(cell, derive_seed(7, 25))
        assert production == oracle
        assert production.all_decided and production.max_view == 2
        assert any(
            1 in r._committed_views for r in deployment.correct_replicas().values()
        )
        stats = deployment.vote_kernel_stats()
        # The view-1 and the view-2 proposal, one validation each.
        assert stats["propose_validations"] == 2
        assert stats["wish_vectorised"] > 0 and stats["wish_scalar"] == 0

    def test_counters_per_view(self):
        """n-1 Wish buckets per view change, one safeProposal per view."""
        (cell,) = _cells(
            60, protocols=("probft",), adversaries=("silent",), latencies=("constant",)
        )
        deployment, production, _ = _pair(cell, 0)
        assert production.max_view == 2
        stats = deployment.vote_kernel_stats()
        assert stats["wish_vectorised"] == 59  # every correct replica's Wish(2)
        assert stats["propose_validations"] == 1  # view 1 had no proposal
        assert production.messages_by_type["Wish"] == 59 * 59


class _FarWisher:
    """Byzantine replica that only ever broadcasts wishes for ``views``."""

    def __init__(self, replica_id, config, crypto, transport, views):
        self._sign = lambda view: crypto.signatures.sign(
            replica_id, Wish(view=view, domain=config.seed_domain)
        )
        self._transport = transport
        self._views = views

    def start(self):
        for view in self._views:
            self._transport.broadcast(self._sign(view))

    def on_message(self, src, message):
        pass


class TestBoundedWishState:
    N, F = 31, 10

    def _spec(self):
        """The view-1 leader wishes 1,000 distinct far-future views and
        10**9; the other f-1 Byzantine replicas wish 10**9 and 10**9 + 1."""
        def wisher(views):
            return lambda *args: _FarWisher(*args, views=views)

        byzantine = {0: wisher(list(range(1000, 2000)) + [10**9])}
        for r in range(self.N - self.F + 1, self.N):
            byzantine[r] = wisher([10**9, 10**9 + 1])
        return DeploymentSpec(
            protocol="probft",
            config=ProtocolConfig(n=self.N, f=self.F),
            seed=3,
            timeout_policy=FixedTimeout(30.0),
            byzantine=byzantine,
            max_time=MAX_TIME,
        )

    def test_far_future_wishes_allocate_no_slots(self):
        deployment = self._spec().build()
        columns = deployment.stack.wishes.columns
        deployment.run(max_time=29.0)  # every far wish delivered, none honest
        assert deployment.network.stats.sent_by_type["Wish"] == (
            1001 + 2 * (self.F - 1)
        ) * (self.N - 1)
        assert columns.live_views == []
        assert len(columns._far) == self.F
        # f wishers trigger nothing, however far they wish.
        replicas = deployment.correct_replicas().values()
        assert all(r.synchronizer._max_wish_sent == 0 for r in replicas)
        deployment.run(max_time=30.5)  # the timers fired: Wish(2) in flight
        assert columns.live_views == [2]
        n = self.N
        per_view = n * ((n + 63) // 64) * 8 + 4 * n
        far_record = self.F * 8 * n
        assert columns.nbytes <= per_view + far_record + 32 * n
        deployment.run(max_time=MAX_TIME)
        assert deployment.all_correct_decided()
        # Everybody has passed view 2: its slot is gone again.
        assert columns.live_views == []
        production = summarize("probft", deployment)
        oracle = run_trial(reference_spec(self._spec()))
        assert production == oracle
        assert production.all_decided and production.max_view >= 2


class TestSharedProposeVerdict:
    """n=8, f=1, replica 1 (the view-2 leader) Byzantine: a Propose whose
    justification contains one NewLeader with a broken signature."""

    @pytest.fixture
    def view2(self):
        import dataclasses

        deployment = ProBFTDeployment(
            ProtocolConfig(n=8, f=1),
            seed=1,
            timeout_policy=FixedTimeout(1000.0),
            byzantine={1: lambda *args: _Recorder()},
        )
        crypto, config = deployment.crypto, deployment.config
        quorum = list(quorum_new_leaders(crypto, config, view=2))
        good = make_propose(crypto, config, 2, b"fine", tuple(quorum), signer=1)
        quorum[2] = dataclasses.replace(
            quorum[2],
            payload=dataclasses.replace(quorum[2].payload, prepared_view=1),
        )
        forged = make_propose(crypto, config, 2, b"forged", tuple(quorum), signer=1)
        return deployment, forged, good

    def test_forged_justification_is_rejected_everywhere_once(self, view2):
        deployment, forged, good = view2
        correct = deployment.correct_replicas().values()
        deployment.start()
        # Delivered while everyone is still in view 1: buffered for view 2.
        deployment.network.broadcast(1, forged)
        deployment.sim.run(until=1.5)
        assert all(r._future_buffer[2] == [(1, forged)] for r in correct)
        assert deployment.vote_kernel_stats()["propose_validations"] == 1  # view 1's
        for replica in correct:
            replica._on_new_view(2)  # the synchronizer's upcall
        deployment.sim.run(until=1.6)  # the zero-delay replays
        assert not any(r._voted for r in correct)
        assert deployment.vote_kernel_stats()["propose_validations"] == 2
        # The same object again, now as a current-view bucket, and once more
        # by unicast: the verdict stands and nothing is recomputed.
        deployment.network.broadcast(1, forged)
        deployment.network.send(1, 3, forged)
        deployment.sim.run(until=3.0)
        assert not any(r._voted for r in correct)
        assert deployment.vote_kernel_stats()["propose_validations"] == 2
        # A well-formed proposal from the same leader is accepted by all.
        deployment.network.broadcast(1, good)
        deployment.sim.run(until=4.5)
        assert all(r._voted and r._cur_val == b"fine" for r in correct)
        assert deployment.vote_kernel_stats()["propose_validations"] == 3

    def test_the_oracle_rejects_it_per_recipient(self, view2):
        _, forged, _ = view2
        oracle = ProBFTDeployment(
            ProtocolConfig(n=8, f=1),
            seed=1,
            timeout_policy=FixedTimeout(1000.0),
            byzantine={1: lambda *args: _Recorder()},
            reference=True,
        )
        oracle.start()
        for replica in oracle.correct_replicas().values():
            replica._on_new_view(2)
            replica.on_message(1, forged)
            assert not replica._voted
        assert oracle.vote_kernel_stats()["propose_validations"] == 0

    def test_a_verdict_is_never_read_off_the_message(self, view2):
        """Equal content in a different object is validated again."""
        import copy

        from repro.core.predicates import safe_proposal

        deployment, forged, _ = view2
        args = (deployment.config, deployment.crypto)
        validations = deployment.crypto.verdicts.counts.computed
        assert safe_proposal(forged, *args) is False
        twin = copy.copy(forged)
        assert twin == forged and twin is not forged
        assert safe_proposal(twin, *args) is False
        assert validations["propose"] == 2
        assert safe_proposal(forged, *args) is False
        assert validations["propose"] == 2


# ----------------------------------------------------------------------
# Serving: every SMR slot is an instance on the same stack
# ----------------------------------------------------------------------


def _serving_pair(**spec_fields):
    """(production deployment, its result, oracle deployment, its result)."""
    from repro.smr.workload import ServingSpec, build_serving_deployment, serve

    spec = ServingSpec(**spec_fields)
    production = build_serving_deployment(spec)
    oracle = build_serving_deployment(spec, reference=True)
    return production, serve(spec, production), oracle, serve(spec, oracle)


def _assert_same_run(production, result, oracle, expected, label):
    assert result == expected, label  # ServingResult, ``latencies`` included
    assert result.latencies == expected.latencies, label
    assert production.sim.now == oracle.sim.now, label
    stats, oracle_stats = production.network.stats, oracle.network.stats
    assert stats.sent_total == oracle_stats.sent_total, label
    assert stats.sent_by_type == oracle_stats.sent_by_type, label
    assert expected.kernel_stats == dict.fromkeys(KERNEL_STATS, 0), label


def _slot_views(deployment):
    """Decision view of every slot the first correct replica applied."""
    witness = deployment.replicas[min(deployment.correct_ids)]
    return [
        witness.slot_replica(s).decision.view
        for s in range(1, witness.log.applied_up_to + 1)
    ]


class TestServingIdentity:
    LOAD = dict(num_clients=8, requests_per_client=3, max_time=3_000.0)

    @pytest.mark.parametrize("pipeline,batch_size", [(1, 1), (4, 8), (4, 32)])
    @pytest.mark.parametrize("arrival", ["closed", "open"])
    @pytest.mark.parametrize("rotate_leaders", [False, True])
    @pytest.mark.parametrize(
        "adversary", ["none", "equivocating-leader", "flooding"]
    )
    def test_every_cell_equals_the_oracle(
        self, adversary, rotate_leaders, arrival, pipeline, batch_size
    ):
        for n in (9, 16):
            cell = dict(
                n=n,
                adversary=adversary,
                rotate_leaders=rotate_leaders,
                arrival=arrival,
                pipeline=pipeline,
                batch_size=batch_size,
            )
            production, result, oracle, expected = _serving_pair(
                seed=n, **cell, **self.LOAD
            )
            _assert_same_run(production, result, oracle, expected, cell)
            assert result.completed > 0 and result.logs_consistent, cell
            assert result.kernel_stats["walked"] > 0, cell

    @pytest.mark.parametrize("n", [9, 16])
    def test_view_changes_inside_slots_recover_identically(self, n):
        """ROADMAP item 1 rider: a seeded fuzz (75 seeds) with batching
        and rotation on, a faulty seat that forces view changes (an equivocating or a
        silent-when-leading leader) and every slot's decision view read
        back: slots that needed a view change end in agreeing logs, the
        same way on both stacks."""
        recovered = 0
        for seed in range(50 if n == 9 else 25):
            cell = dict(
                n=n,
                seed=seed,
                adversary=("equivocating-leader", "flooding")[seed % 2],
                rotate_leaders=True,
                arrival=("closed", "open")[seed // 2 % 2],
                batch_size=2,
                num_clients=4 + n // 2,  # enough slots to reach the faulty
                requests_per_client=4,  # seat's turn (slot n - 1 or n)
                timeout=6.0,
                max_time=600.0,
            )
            production, result, oracle, expected = _serving_pair(**cell)
            _assert_same_run(production, result, oracle, expected, cell)
            assert production.logs_consistent(), cell
            views = _slot_views(production)
            assert views == _slot_views(oracle), cell
            recovered += sum(1 for view in views if view > 1)
        assert recovered >= 20  # the fuzz does cross the view-change path


class TestPbftSlots:
    """The slot protocol is a registered name whose stack's
    ``replica_class`` every slot runs: ``protocol="pbft"`` serves PBFT
    slots, with every seat in PBFT's dialect and every leader check on the
    slot's rotated schedule."""

    LOAD = dict(seed=3, num_clients=8, requests_per_client=3, max_time=3_000.0)

    @pytest.mark.parametrize("rotate_leaders", [False, True])
    @pytest.mark.parametrize("n", [9, 16])
    def test_every_cell_equals_the_oracle(self, n, rotate_leaders):
        from repro.baselines.pbft.replica import PbftReplica

        probft_none = _serving_pair(n=n, **self.LOAD)[0].network.stats.sent_total
        sent = {}
        for adversary in ("none", "equivocating-leader", "flooding"):
            cell = dict(n=n, adversary=adversary, rotate_leaders=rotate_leaders)
            production, result, oracle, expected = _serving_pair(
                protocol="pbft", **cell, **self.LOAD
            )
            assert production.stack.protocol is oracle.stack.protocol is PbftReplica
            assert result.protocol == "pbft" and result.row()["protocol"] == "pbft"
            _assert_same_run(production, result, oracle, expected, cell)
            assert result.completed == result.issued == 24, cell
            assert result.logs_consistent, cell
            sent[adversary] = production.network.stats.sent_total
        # The flooder fires on PBFT's proposals: its sends are on top.
        assert sent["flooding"] > sent["none"], sent
        # Broadcast votes: PBFT's slots cost more than ProBFT's sampled ones
        # once samples no longer cover everyone (n=9 saturates them).
        assert sent["none"] > probft_none if n == 16 else sent["none"] == probft_none


class TestSlotRouter:
    """The SMR router declines what it cannot hand a slot's kernels whole,
    and counts it."""

    def _deployment(self):
        from repro.smr.app import CounterApp
        from repro.smr.service import SMRDeployment

        deployment = SMRDeployment(
            ProtocolConfig(n=9, f=2), CounterApp, num_slots=12, seed=4,
            eager_slots=False,
        )
        deployment.start()
        return deployment

    def _prepare(self, deployment, slot, sender=3):
        from repro.smr.replica import SlotEnvelope

        config = deployment.stack.slot_config(slot)
        statement = make_statement(deployment.crypto, config, 1, b"x")
        vote = make_prepare(deployment.crypto, config, sender, statement)
        return SlotEnvelope(slot, vote)

    def test_vote_bucket_for_a_slot_a_recipient_has_not_opened(self):
        deployment = self._deployment()
        router = deployment.network.kernels  # SlotEnvelope -> the router
        for r in (1, 2):  # only these two have opened slot 1
            deployment.replicas[r]._ensure_slot(1)
        envelope = self._prepare(deployment, 1)
        assert deliver_bucket(router, 3, envelope, [1, 2]) == 2
        assert deliver_bucket(router, 3, envelope, [1, 2, 4]) == -1
        stats = deployment.vote_kernel_stats()
        assert stats["walked"] == 1 and stats["declined"] == 1
        # The per-recipient route is where replica 4 opens the slot.
        deployment.replicas[4].on_message(3, envelope)
        assert deployment.replicas[4].slot_replica(1).current_view == 1

    def test_out_of_window_slot_is_each_replicas_own_call(self):
        deployment = self._deployment()
        envelope = self._prepare(deployment, 9)  # window is slots 1..5
        deployment.network.multicast(3, [1, 2], envelope)  # opens the stack
        deployment.sim.run(until=2.0)
        stats = deployment.vote_kernel_stats()
        assert stats["declined"] == 1 and stats["vectorised"] == 0
        assert deployment.replicas[1].slot_replica(9) is None
        assert not deployment.stack.stacks[9].replicas

    def test_invalid_vote_bucket_is_declined_not_applied(self):
        from repro.smr.replica import SlotEnvelope

        deployment = self._deployment()
        for r in deployment.correct_ids:
            deployment.replicas[r]._ensure_slot(1)
        foreign = self._prepare(deployment, 2).inner  # another slot's domain
        dsts = [1, 2, 4]
        envelope = SlotEnvelope(1, foreign)
        assert deliver_bucket(deployment.network.kernels, 3, envelope, dsts) == -1
        assert deployment.vote_kernel_stats()["declined"] == 1

    def test_retired_slot_drops_late_envelopes(self):
        deployment = self._deployment()
        deployment.submit_to_all(b"INC")
        deployment.run_until(lambda: deployment.stack.retired >= 1, 1_000.0)
        record = deployment.replicas[1].slot_replica(1)
        assert record.decision.view == 1 and 1 not in deployment.stack.stacks
        late = self._prepare(deployment, 1)
        assert deployment.stack.slot_of(late) is None
        assert deliver_bucket(deployment.network.kernels, 3, late, [1, 2]) == 0
        deployment.replicas[1].on_message(3, late)
        assert deployment.replicas[1].slot_replica(1) is record
        # Retired slots keep counting in the route totals.
        assert deployment.vote_kernel_stats()["walked"] > 0
