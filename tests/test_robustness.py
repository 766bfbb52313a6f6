"""Robustness / failure-injection tests: duplication, mixed faults, scale."""

import pytest

from repro.adversary.behaviors import crash_factory, silent_factory
from repro.adversary.flooding import flooding_factory
from repro.config import ProtocolConfig
from repro.core.invariants import audit_deployment
from repro.core.protocol import ProBFTDeployment
from repro.net.faults import PreGstChaos
from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.sync.timeouts import FixedTimeout


class TestMessageDuplication:
    @pytest.mark.parametrize("dup", [0.1, 0.4])
    def test_duplication_preserves_correctness(self, dup):
        dep = ProBFTDeployment(
            ProtocolConfig(n=16, f=3), seed=1, duplicate_prob=dup
        )
        dep.run(max_time=2000)
        assert dep.all_correct_decided()
        assert dep.agreement_ok
        assert audit_deployment(dep).ok

    def test_duplicates_actually_delivered(self):
        sim = Simulator()
        net = Network(sim, 2, duplicate_prob=0.5, duplicate_seed=3)
        received = []
        net.register(0, lambda s, m: received.append(m))
        net.register(1, lambda s, m: received.append(m))
        for i in range(100):
            net.send(0, 1, f"m{i}")
        sim.run()
        assert len(received) > 110  # ~50% duplicated

    def test_invalid_duplicate_prob(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Network(sim, 2, duplicate_prob=1.0)


class TestMixedFaults:
    def test_silent_plus_crash_plus_flooder(self):
        """Budget of f split across three different fault behaviours."""
        cfg = ProtocolConfig(n=16, f=3)
        dep = ProBFTDeployment(
            cfg,
            seed=5,
            timeout_policy=FixedTimeout(25.0),
            byzantine={
                13: silent_factory(),
                14: crash_factory(crash_time=1.5),
                15: flooding_factory(),
            },
        )
        dep.run(max_time=3000)
        assert dep.all_correct_decided()
        assert dep.agreement_ok
        assert audit_deployment(dep).ok

    def test_faults_plus_chaos_plus_duplication(self):
        cfg = ProtocolConfig(n=13, f=4)
        dep = ProBFTDeployment(
            cfg,
            seed=6,
            latency=UniformLatency(0.5, 2.0, seed=6),
            gst=30.0,
            chaos=PreGstChaos(max_extra=25.0, seed=6),
            timeout_policy=FixedTimeout(30.0),
            duplicate_prob=0.15,
            byzantine={11: silent_factory(), 12: flooding_factory()},
        )
        dep.run(max_time=5000)
        assert dep.all_correct_decided()
        assert dep.agreement_ok


class TestScale:
    def test_n_200_decides_quickly(self):
        """A laptop-scale 'big' deployment still decides in 3 steps."""
        cfg = ProtocolConfig(n=200, f=40)
        dep = ProBFTDeployment(cfg, seed=2)
        dep.run(max_time=500)
        assert dep.all_correct_decided()
        assert dep.agreement_ok
        # Message complexity advantage at this size: < 25% of PBFT.
        from repro.analysis.messages import pbft_messages

        # Integer rounding (q=29, s=50 at n=200) puts the ratio at ~25.3%.
        assert dep.network.stats.sent_total < 0.27 * pbft_messages(200)

    def test_minimum_system_n4(self):
        cfg = ProtocolConfig(n=4, f=1)
        dep = ProBFTDeployment(cfg, seed=3)
        dep.run(max_time=500)
        assert dep.all_correct_decided()
        assert dep.agreement_ok


class TestSeededAgreementSweep:
    """A mini-fuzz: many seeds, adversarial conditions, agreement must hold."""

    @pytest.mark.parametrize("seed", range(8))
    def test_equivocation_plus_chaos_never_disagrees(self, seed):
        from repro.adversary.equivocation import equivocation_byzantine_map

        cfg = ProtocolConfig(n=15, f=3)
        byzantine, _plan = equivocation_byzantine_map(cfg)
        dep = ProBFTDeployment(
            cfg,
            seed=seed,
            latency=UniformLatency(0.5, 1.5, seed=seed),
            timeout_policy=FixedTimeout(25.0),
            byzantine=byzantine,
        )
        dep.run(max_time=5000)
        assert dep.agreement_ok
        assert audit_deployment(dep).ok


#: Sample "ids" that are not 32-bit replica ids: the packed encoding has no
#: room for them.  The last two are not even hashable / not even a sample.
MALFORMED_IDS = (-1, 2**32, "a", 1.5)


def _malformed_votes(crypto, config, signer, statement):
    """Prepare and Commit envelopes around samples that cannot be packed:
    forged ones (made-up tag) and ones ``signer`` signed with its own key."""
    from repro.crypto.signatures import Signed
    from repro.crypto.vrf import VRFOutput
    from repro.messages.probft import Commit, Prepare

    samples = [
        VRFOutput(
            sample=(bad,) + tuple(range(config.sample_size - 1)),
            proof=b"\x00" * 32,
        )
        for bad in MALFORMED_IDS
    ]
    samples.append(VRFOutput(sample=([1],) * config.sample_size, proof=b"\x00" * 32))
    samples.append(None)  # not a VRFOutput at all
    votes = []
    for sample in samples:
        for kind in (Prepare, Commit):
            payload = kind(statement=statement, sample=sample)
            votes.append(Signed(payload, signer, b"\x01" * 32))
            votes.append(crypto.signatures.sign(signer, payload))
    return votes


class _MalformedVoter:
    """Byzantine seat: answers the first proposal it sees by multicasting
    votes whose samples are not replica ids to everyone."""

    def __init__(self, replica_id, config, crypto, transport):
        self.id = replica_id
        self.config = config
        self._crypto = crypto
        self._transport = transport
        self.sent = 0

    def start(self):
        pass

    def on_message(self, src, message):
        from repro.messages.probft import Propose

        if self.sent or not isinstance(getattr(message, "payload", None), Propose):
            return
        everyone = [d for d in range(self.config.n) if d != self.id]
        for vote in _malformed_votes(
            self._crypto, self.config, self.id, message.payload.statement
        ):
            self._transport.multicast(everyone, vote)
            self.sent += 1


class TestMalformedSamples:
    """An envelope that cannot be canonically encoded the packed way is an
    invalid envelope, never a crash: rejected at validation, dropped by the
    handler, and harmless to a whole production trial."""

    @staticmethod
    def _cluster():
        from repro.net.latency import ConstantLatency

        dep = ProBFTDeployment(
            ProtocolConfig(n=8, f=1), seed=0, latency=ConstantLatency(1.0),
            timeout_policy=FixedTimeout(1000.0),
        )
        dep.start()
        return dep

    def test_prevalidation_says_invalid(self):
        from repro.core.replica import prevalidate_vote

        from .helpers import make_statement

        dep = self._cluster()
        statement = make_statement(dep.crypto, dep.config, 1, b"v")
        votes = _malformed_votes(dep.crypto, dep.config, 5, statement)
        assert len(votes) == 4 * (len(MALFORMED_IDS) + 2)
        for vote in votes:
            token = prevalidate_vote(dep.config, dep.crypto, vote)
            assert token is None or token.valid is False, vote
        # The four unpackable shapes are votes (judged invalid), not noise.
        assert all(
            prevalidate_vote(dep.config, dep.crypto, vote).valid is False
            for vote in votes[: 4 * len(MALFORMED_IDS)]
        )

    def test_verifiers_reject_instead_of_raising(self):
        from repro.crypto.signatures import Signed
        from repro.crypto.vrf import VRFOutput

        crypto = self._cluster().crypto
        for sample in [(-1, 2), ("a", 1.5), 7, None]:
            output = VRFOutput(sample=sample, proof=b"\x00" * 32)
            assert crypto.vrf.verify(3, "1||prepare", 2, output) is False
        unencodable = Signed(object(), 3, b"\x01" * 32)
        assert crypto.signatures.verify(unencodable) is False

    def test_on_message_drops_them_silently(self):
        from .helpers import make_propose, make_statement

        dep = self._cluster()
        replica = dep.replicas[3]
        replica.on_message(0, make_propose(dep.crypto, dep.config, 1, b"v"))
        assert replica._voted
        sent = dep.network.stats.sent_total
        statement = make_statement(dep.crypto, dep.config, 1, b"v")
        for vote in _malformed_votes(dep.crypto, dep.config, 5, statement):
            replica.on_message(5, vote)
        assert dep.network.stats.sent_total == sent
        assert replica._prepare_collectors.get(1).count(b"v") == 0
        assert replica._commit_collectors.get(1).count(b"v") == 0
        assert not replica.view_blocked and replica.decision is None

    @pytest.mark.parametrize("latency", ["constant", "exponential"])
    def test_production_trial_decides_and_equals_its_oracle(self, latency):
        import dataclasses

        from repro.harness.registry import MatrixCell, cell_deployment_spec
        from repro.harness.trial import TrialContext

        from .helpers import reference_spec

        def context(reference):
            cell = MatrixCell("probft", "none", latency, n=30, f=5, track_bytes=True)
            spec = dataclasses.replace(
                cell_deployment_spec(cell, seed=6, max_time=600.0),
                byzantine={29: _MalformedVoter},
            )
            return TrialContext(reference_spec(spec) if reference else spec)

        production, oracle = context(False), context(True)
        result = production.execute()
        assert result == oracle.execute()
        assert result.all_decided and result.agreement_ok
        # The seat did multicast every shape (sender side: signing and byte
        # accounting survived them), and the kernel declined what it saw.
        assert production.deployment.replicas[29].sent == 4 * (len(MALFORMED_IDS) + 2)
        assert result.total_bytes > 0
        assert production.deployment.vote_kernel_stats()["declined"] > 0


#: "Views" that are not integers.  A Byzantine seat can sign anything with
#: its own key; comparing one of these with a view number raises.
MALFORMED_VIEWS = ("1", None, [1], 1.5)


def _malformed_view_messages(protocol, crypto, config, signer):
    """Every message type of ``protocol`` that names a view, around each
    non-integer "view", signed by ``signer`` with its own key (the path a
    Byzantine seat has: ``sign_with``, never born valid)."""
    from repro.crypto.vrf import phase_seed
    from repro.messages.base import ProposalStatement
    from repro.messages.hotstuff import (
        HsNewView, HsProposal, HsQuorumCert, HsVote, HsVotePayload,
    )
    from repro.messages.pbft import PbftCommit, PbftNewLeader, PbftPrepare, PbftPropose
    from repro.messages.probft import Commit, NewLeader, Prepare, Propose
    from repro.sync.synchronizer import Wish

    key = crypto.registry.key_pair(signer).private_key

    def sign(payload):
        return crypto.signatures.sign_with(key, signer, payload)

    def sample(tag):
        return crypto.vrf.prove_with(
            key, signer, phase_seed(1, tag, config.seed_domain), config.sample_size
        )

    messages = []
    for view in MALFORMED_VIEWS:
        statement = sign(ProposalStatement(view, b"v", config.seed_domain))
        messages.append(sign(Wish(view=view, domain=config.seed_domain)))
        if protocol == "probft":
            messages += [
                sign(Prepare(statement=statement, sample=sample("prepare"))),
                sign(Commit(statement=statement, sample=sample("commit"))),
                sign(Propose(view=view, statement=statement, justification=None)),
                sign(Propose(view=1, statement=statement, justification=None)),
                sign(NewLeader(view, 0, None, (), config.seed_domain)),
                # ... and, for the leader of view 2, a non-integer view inside.
                sign(NewLeader(2, view, b"v", (), config.seed_domain)),
            ]
        elif protocol == "pbft":
            messages += [
                sign(PbftPrepare(statement=statement)),
                sign(PbftCommit(statement=statement)),
                sign(PbftPropose(view=view, statement=statement, justification=None)),
                sign(PbftPropose(view=1, statement=statement, justification=None)),
                sign(PbftNewLeader(view, 0, None, ())),
                sign(PbftNewLeader(2, view, b"v", ())),
            ]
        else:
            messages += [
                sign(HsNewView(view=view, prepare_qc=None)),
                sign(HsProposal(view=view, value=b"v", phase="prepare", justify=None)),
                sign(HsVote(vote=sign(HsVotePayload(view, b"v", "prepare")))),
                sign(HsNewView(2, HsQuorumCert(view, b"v", "prepare", ()))),
            ]
    return messages


def _malformed_view_seat(protocol):
    class Seat:
        """Byzantine seat: multicasts every malformed-view message to
        everyone as soon as the run starts."""

        def __init__(self, replica_id, config, crypto, transport):
            self.id = replica_id
            self._build = lambda: _malformed_view_messages(
                protocol, crypto, config, replica_id
            )
            self._everyone = [d for d in range(config.n) if d != replica_id]
            self._transport = transport
            self.sent = 0

        def start(self):
            for message in self._build():
                self._transport.multicast(self._everyone, message)
                self.sent += 1

        def on_message(self, src, message):
            pass

    return Seat


class TestMalformedViews:
    """A message whose view is not an ``int`` is malformed: every entry point
    drops it before the first comparison — never a ``TypeError`` out of an
    honest replica or a kernel."""

    @staticmethod
    def _cluster(protocol):
        from repro.harness.registry import MatrixCell, cell_deployment_spec

        cell = MatrixCell(protocol, "none", "constant", n=8, f=1)
        dep = cell_deployment_spec(cell, seed=0, max_time=600.0).build()
        dep.start()
        return dep

    def test_prevalidation_says_not_a_vote(self):
        from repro.core.replica import prevalidate_vote
        from repro.messages.probft import Commit, Prepare

        dep = self._cluster("probft")
        votes = [
            m
            for m in _malformed_view_messages("probft", dep.crypto, dep.config, 5)
            if isinstance(m.payload, (Prepare, Commit))
        ]
        assert len(votes) == 2 * len(MALFORMED_VIEWS)
        for vote in votes:
            token = prevalidate_vote(dep.config, dep.crypto, vote)
            assert token is None or token.valid is False, vote

    @pytest.mark.parametrize("protocol", ["probft", "pbft", "hotstuff"])
    def test_handlers_drop_them_silently(self, protocol):
        dep = self._cluster(protocol)
        replica = dep.replicas[3]
        sent = dep.network.stats.sent_total
        messages = _malformed_view_messages(protocol, dep.crypto, dep.config, 5)
        for message in messages:
            replica.on_message(5, message)
            replica.synchronizer.on_wish(5, message)
        assert dep.network.stats.sent_total == sent  # nothing answered
        assert replica.current_view == 1 and replica.decision is None
        # ... and through the network: the vote and wish kernels.  The run they land in decides in view 1 regardless.
        for message in messages:
            dep.network.multicast(5, [0, 1, 2, 3, 4, 6, 7], message)
        dep.sim.run(until=20.0)
        assert all(r.decision is not None for r in dep.replicas.values())
        assert replica.current_view == 1
        assert not getattr(replica, "view_blocked", False)

    @pytest.mark.parametrize("latency", ["constant", "exponential"])
    @pytest.mark.parametrize("adversary", ["none", "silent"])
    @pytest.mark.parametrize("protocol", ["probft", "pbft", "hotstuff"])
    def test_production_trial_decides_and_equals_its_oracle(
        self, protocol, adversary, latency
    ):
        """``silent``: the view-1 leader says nothing, so the run enters
        view 2 and its leader replays what the seat sent for that view."""
        import dataclasses

        from repro.harness.registry import MatrixCell, cell_deployment_spec
        from repro.harness.trial import TrialContext

        from .helpers import reference_spec

        def context(reference):
            cell = MatrixCell(protocol, adversary, latency, n=30, f=5)
            spec = cell_deployment_spec(cell, seed=6, max_time=600.0)
            spec = dataclasses.replace(
                spec,
                byzantine={**spec.byzantine, 29: _malformed_view_seat(protocol)},
            )
            return TrialContext(reference_spec(spec) if reference else spec)

        production, oracle = context(False), context(True)
        result = production.execute()
        assert result == oracle.execute()
        assert result.all_decided and result.agreement_ok
        assert result.max_view == (1 if adversary == "none" else 2)
        assert production.deployment.replicas[29].sent > 4 * len(MALFORMED_VIEWS)


#: Proposal "values" that cannot be hashed (quorums are keyed by value), and
#: a statement that is not a signed ``ProposalStatement`` at all.
UNHASHABLE_VALUES = ([1], {"a": 1}, ((1, [2]),))
JUNK_STATEMENT = "junk"


def _malformed_proposal_messages(crypto, config, signer, view=1):
    """A Propose, a Prepare and a Commit around each malformed statement,
    signed by ``signer`` with its own key — the leader's, when the seat
    leads ``view``."""
    from repro.crypto.vrf import phase_seed
    from repro.messages.base import ProposalStatement
    from repro.messages.probft import Commit, Prepare, Propose

    key = crypto.registry.key_pair(signer).private_key

    def sign(payload):
        return crypto.signatures.sign_with(key, signer, payload)

    def sample(tag):
        return crypto.vrf.prove_with(
            key, signer, phase_seed(view, tag, config.seed_domain), config.sample_size
        )

    statements = [
        sign(ProposalStatement(view, value, config.seed_domain))
        for value in UNHASHABLE_VALUES
    ] + [JUNK_STATEMENT]
    messages = []
    for statement in statements:
        messages += [
            sign(Propose(view=view, statement=statement, justification=None)),
            sign(Prepare(statement=statement, sample=sample("prepare"))),
            sign(Commit(statement=statement, sample=sample("commit"))),
        ]
    return messages


class _MalformedProposer:
    """Byzantine seat: multicasts every malformed-proposal message to
    everyone as soon as the run starts (as the view-1 leader when it sits
    in seat 0: the proposals are then under the leader's signature)."""

    def __init__(self, replica_id, config, crypto, transport):
        self.id = replica_id
        self._build = lambda: _malformed_proposal_messages(crypto, config, replica_id)
        self._everyone = [d for d in range(config.n) if d != replica_id]
        self._transport = transport
        self.sent = 0

    def start(self):
        for message in self._build():
            self._transport.multicast(self._everyone, message)
            self.sent += 1

    def on_message(self, src, message):
        pass


class TestMalformedProposals:
    """A statement whose value is no ``bytes`` (here: cannot even be
    hashed), or that is no signed ``ProposalStatement``, does not conform:
    the Propose or vote around it is dropped whole — not a proposal, not a
    vote, not evidence of equivocation, even under the leader's key — and
    never a ``TypeError`` / ``AttributeError`` out of an honest replica, the
    vote kernel (its ``inspect`` included) or the oracle."""

    @staticmethod
    def _cluster(reference=False):
        from repro.harness.registry import MatrixCell, cell_deployment_spec

        from .helpers import reference_spec

        cell = MatrixCell("probft", "none", "constant", n=8, f=1)
        spec = cell_deployment_spec(cell, seed=0, max_time=600.0)
        dep = (reference_spec(spec) if reference else spec).build()
        dep.start()
        return dep

    def test_validation_says_no(self):
        from repro.core.predicates import safe_proposal
        from repro.core.replica import prevalidate_vote
        from repro.messages.probft import Propose

        dep = self._cluster()
        for signer in (0, 5):  # the view-1 leader, and somebody else
            messages = _malformed_proposal_messages(dep.crypto, dep.config, signer)
            assert len(messages) == 3 * (len(UNHASHABLE_VALUES) + 1)
            for message in messages:
                if isinstance(message.payload, Propose):
                    assert safe_proposal(message, dep.config, dep.crypto) is False
                    assert prevalidate_vote(dep.config, dep.crypto, message) is None
                    continue
                # Not a vote at all, judged once.
                assert prevalidate_vote(dep.config, dep.crypto, message) is None
        # The verdicts are the table's: asked again, nothing is recomputed.
        computed = dict(dep.crypto.verdicts.counts.computed)
        for message in messages:
            if isinstance(message.payload, Propose):
                safe_proposal(message, dep.config, dep.crypto)
            else:
                prevalidate_vote(dep.config, dep.crypto, message)
        assert dict(dep.crypto.verdicts.counts.computed) == computed

    @pytest.mark.parametrize("reference", [False, True])
    @pytest.mark.parametrize("signer", [0, 5])
    def test_entry_points_drop_them(self, signer, reference):
        dep = self._cluster(reference)
        replica = dep.replicas[3]
        sent = dep.network.stats.sent_total
        messages = _malformed_proposal_messages(dep.crypto, dep.config, signer)
        for message in messages:
            replica.on_message(signer, message)
        assert dep.network.stats.sent_total == sent  # nobody voted
        assert not replica._voted and not replica.view_blocked
        # ... and through the network: the vote kernel (or the oracle's
        # collectors), beside the honest leader's proposal.
        for message in messages:
            dep.network.multicast(signer, [d for d in range(8) if d != signer], message)
        dep.run(max_time=600.0)
        assert all(r.decision is not None for r in dep.replicas.values())
        # Not even under the leader's key (seat 0 also proposed honestly) are
        # they a second statement: no correct replica votes for a value that
        # is no ``bytes``, so it cannot be half of a split.  View 1 decides.
        assert dep.max_decision_view == 1
        if not reference:
            assert dep.vote_kernel_stats()["declined"] == 0  # no vote buckets

    def test_a_voted_replica_ignores_the_leaders_unhashable_statement(self):
        """The leader did sign a second statement, but not a conforming one:
        it is no evidence, and the view goes on."""
        from .helpers import make_propose

        dep = self._cluster()
        replica = dep.replicas[3]
        replica.on_message(0, make_propose(dep.crypto, dep.config, 1, b"v"))
        assert replica._voted and not replica.view_blocked
        vote = _malformed_proposal_messages(dep.crypto, dep.config, 0)[1]
        replica.on_message(0, vote)
        assert not replica.view_blocked
        assert replica._prepare_collectors.get(1).count(b"v") == 0

    @pytest.mark.parametrize("latency", ["constant", "exponential"])
    @pytest.mark.parametrize("seat", [0, 29])
    def test_production_trial_decides_and_equals_its_oracle(self, seat, latency):
        """Seat 0 leads view 1 and proposes nothing well-formed, so the run
        decides in view 2; seat 29 is a bystander and view 1 decides."""
        import dataclasses

        from repro.harness.registry import MatrixCell, cell_deployment_spec
        from repro.harness.trial import TrialContext

        from .helpers import reference_spec

        def context(reference):
            cell = MatrixCell("probft", "none", latency, n=30, f=5)
            spec = dataclasses.replace(
                cell_deployment_spec(cell, seed=6, max_time=600.0),
                byzantine={seat: _MalformedProposer},
            )
            return TrialContext(reference_spec(spec) if reference else spec)

        production, oracle = context(False), context(True)
        result = production.execute()
        assert result == oracle.execute()
        assert result.all_decided and result.agreement_ok
        assert result.max_view == (2 if seat == 0 else 1)
        assert production.deployment.replicas[seat].sent == 3 * (len(UNHASHABLE_VALUES) + 1)


#: Junk a Byzantine seat can put where a message carries structure.
JUNK_SHAPES = ("x", None, [1], {"a": 1}, ((1, [2]),))


def _junk_shape_messages(protocol, crypto, config, signer, view=1):
    """PBFT / HotStuff messages signed by ``signer`` with its own key (the
    leader's, when the seat leads ``view``) around each junk shape: as the
    leader-signed *value* of a PBFT vote, in place of a statement, a QC, a
    QC's votes or an ``HsVote``'s signed vote."""
    from repro.messages.base import ProposalStatement
    from repro.messages.hotstuff import (
        HsNewView, HsProposal, HsQuorumCert, HsVote, HsVotePayload,
    )
    from repro.messages.pbft import PbftCommit, PbftPrepare, PbftPropose

    key = crypto.registry.key_pair(signer).private_key

    def sign(payload):
        return crypto.signatures.sign_with(key, signer, payload)

    messages = []
    for junk in JUNK_SHAPES:
        if protocol == "pbft":
            statements = [junk]
            # ("x" and None are no values either — not bytes: TestValueDomain.)
            if junk in UNHASHABLE_VALUES:
                statements.append(sign(ProposalStatement(view, junk, config.seed_domain)))
            for statement in statements:
                messages += [
                    sign(PbftPropose(view=view, statement=statement, justification=None)),
                    sign(PbftPrepare(statement=statement)),
                    sign(PbftCommit(statement=statement)),
                ]
        else:
            votes = (sign(HsVotePayload(view, b"v", "prepare")), junk)
            qcs = [HsQuorumCert(view, b"v", "prepare", junk),
                   HsQuorumCert(view, b"v", "prepare", votes)]
            if junk is not None:  # (no QC at all is what view 1 carries)
                qcs.append(junk)
            for qc in qcs:
                messages += [
                    sign(HsProposal(view=view, value=b"v", phase="prepare", justify=qc)),
                    sign(HsProposal(view=view, value=b"v", phase="pre-commit", justify=qc)),
                    sign(HsNewView(view=view, prepare_qc=qc)),
                ]
            messages += [
                sign(HsVote(vote=junk)),
                sign(HsVote(vote=sign(junk))),
            ]
    return messages


def _junk_shape_seat(protocol):
    class Seat:
        """Byzantine seat: multicasts every junk-shape message to everyone
        as soon as the run starts (under the view-1 leader's signature when
        it sits in seat 0)."""

        def __init__(self, replica_id, config, crypto, transport):
            self.id = replica_id
            self._build = lambda: _junk_shape_messages(protocol, crypto, config, replica_id)
            self._everyone = [d for d in range(config.n) if d != replica_id]
            self._transport = transport
            self.sent = 0

        def start(self):
            for message in self._build():
                self._transport.multicast(self._everyone, message)
                self.sent += 1

        def on_message(self, src, message):
            pass

    return Seat


class TestJunkShapes:
    """A PBFT vote whose leader-signed value cannot key a quorum, a junk
    ``justify`` / QC / ``HsQuorumCert.votes``, an ``HsVote`` around something
    that is no signed vote: malformed, and dropped at the message's first
    inspection — never a ``TypeError`` / ``AttributeError`` out of an honest
    replica or out of ``sim.run``."""

    @staticmethod
    def _cluster(protocol, reference=False):
        from repro.harness.registry import MatrixCell, cell_deployment_spec

        from .helpers import reference_spec

        cell = MatrixCell(protocol, "none", "constant", n=8, f=1)
        spec = cell_deployment_spec(cell, seed=0, max_time=600.0)
        dep = (reference_spec(spec) if reference else spec).build()
        dep.start()
        return dep

    @pytest.mark.parametrize("reference", [False, True])
    @pytest.mark.parametrize("signer", [0, 5])
    @pytest.mark.parametrize("protocol", ["pbft", "hotstuff"])
    def test_entry_points_drop_them(self, protocol, signer, reference):
        dep = self._cluster(protocol, reference)
        sent = dep.network.stats.sent_total
        messages = _junk_shape_messages(protocol, dep.crypto, dep.config, signer)
        # To a bystander and to the view-1 leader (HotStuff's votes and
        # NewViews are the leader's to read).
        for replica in (dep.replicas[3], dep.replicas[0]):
            for message in messages:
                replica.on_message(signer, message)
            assert replica.current_view == 1 and replica.decision is None
        assert dep.network.stats.sent_total == sent  # nothing answered
        # ... and through the network, beside the honest run.
        for message in messages:
            dep.network.multicast(signer, [d for d in range(8) if d != signer], message)
        dep.run(max_time=600.0)
        assert all(r.decision is not None for r in dep.replicas.values())
        assert dep.max_decision_view == 1

    def test_validation_says_no_once_per_object(self):
        from repro.baselines.pbft.predicates import pbft_safe_proposal, pbft_vote_token
        from repro.messages.pbft import PbftPropose

        dep = self._cluster("pbft")
        messages = _junk_shape_messages("pbft", dep.crypto, dep.config, 0)
        assert len(messages) == 3 * (len(JUNK_SHAPES) + len(UNHASHABLE_VALUES))

        def judge(message):
            if isinstance(message.payload, PbftPropose):
                return pbft_safe_proposal(message, dep.config, dep.crypto)
            return pbft_vote_token(dep.config, dep.crypto, message)

        assert not any(judge(message) for message in messages)
        # The verdicts are the table's: asked again, nothing is recomputed.
        computed = dict(dep.crypto.verdicts.counts.computed)
        assert not any(judge(message) for message in messages)
        assert dict(dep.crypto.verdicts.counts.computed) == computed

    @pytest.mark.parametrize("latency", ["constant", "exponential"])
    @pytest.mark.parametrize("seat", [0, 29])
    @pytest.mark.parametrize("protocol", ["pbft", "hotstuff"])
    def test_production_trial_decides_and_equals_its_oracle(self, protocol, seat, latency):
        """Seat 0 leads view 1 and says nothing well-formed, so the run
        decides in view 2; seat 29 is a bystander and view 1 decides."""
        import dataclasses

        from repro.harness.registry import MatrixCell, cell_deployment_spec
        from repro.harness.trial import TrialContext

        from .helpers import reference_spec

        def context(reference):
            cell = MatrixCell(protocol, "none", latency, n=30, f=5)
            spec = dataclasses.replace(
                cell_deployment_spec(cell, seed=6, max_time=600.0),
                byzantine={seat: _junk_shape_seat(protocol)},
            )
            return TrialContext(reference_spec(spec) if reference else spec)

        production, oracle = context(False), context(True)
        result = production.execute()
        assert result == oracle.execute()
        assert result.all_decided and result.agreement_ok
        assert result.max_view == (2 if seat == 0 else 1)
        assert production.deployment.replicas[seat].sent == len(
            _junk_shape_messages(protocol, production.deployment.crypto,
                                 production.deployment.config, seat)
        )


#: Leader-signed "values" outside the value domain ``Value = bytes``.
NOT_BYTES = (None, 12345, "x", (1, 2), 1.5)


class HashRaises(bytes):
    def __hash__(self):
        raise RuntimeError("hostile __hash__")


class EqRaises(bytes):
    __hash__ = bytes.__hash__

    def __eq__(self, other):
        raise RuntimeError("hostile __eq__")


#: ``bytes`` subclasses that pass ``isinstance(v, bytes)`` and raise from the
#: first dict key, set member or comparison they become.
HOSTILE_BYTES = (HashRaises(b"v"), EqRaises(b"v"))


def _junk_value_leader(protocol, value):
    """A view-1 leader that proposes ``value`` to everyone, correctly signed,
    and nothing else (HotStuff: the honest replica with ``value`` as its
    own, so it also drives the phases of its proposal)."""
    if protocol == "hotstuff":
        from repro.baselines.hotstuff.replica import HotStuffReplica

        return lambda rid, config, crypto, transport: HotStuffReplica(
            rid, config, crypto, transport, my_value=value
        )

    class Seat:
        def __init__(self, replica_id, config, crypto, transport):
            self.id, self._config = replica_id, config
            self._crypto, self._transport = crypto, transport

        def start(self):
            from repro.messages.base import ProposalStatement
            from repro.messages.pbft import PbftPropose
            from repro.messages.probft import Propose

            sign = lambda payload: self._crypto.signatures.sign(self.id, payload)
            statement = sign(ProposalStatement(1, value, self._config.seed_domain))
            kind = Propose if protocol == "probft" else PbftPropose
            self._transport.broadcast(
                sign(kind(view=1, statement=statement, justification=None))
            )

        def on_message(self, src, message):
            pass

    return Seat


def _unsampled_prepares(crypto, config, seat):
    """40 Prepares the seat signs itself around a statement of the (silent,
    colluding) view-1 leader, each with a "sample" that is no VRF output."""
    from repro.messages.base import ProposalStatement
    from repro.messages.probft import Prepare

    leader_key = crypto.registry.key_pair(0).private_key
    statement = crypto.signatures.sign_with(
        leader_key, 0, ProposalStatement(1, b"x", config.seed_domain)
    )
    key = crypto.registry.key_pair(seat).private_key
    prepare = Prepare(statement=statement, sample=5)
    return tuple(crypto.signatures.sign_with(key, seat, prepare) for _ in range(40))


#: What a Byzantine NewLeader claims prepared in view 1, as ``(prepared_value,
#: cert)``: a value that is no ``bytes`` (unhashable, or a ``bytes`` whose
#: hash raises) with an empty certificate, or a certificate that is no tuple
#: of signed Prepares.  Each is sent under both protocols but the last (a
#: PBFT Prepare has no sample).
JUNK_CLAIMS = {
    "list": lambda crypto, config, seat: ([b"x"], ()),
    "dict": lambda crypto, config, seat: ({"a": 1}, ()),
    "HashRaises": lambda crypto, config, seat: (HashRaises(b"x"), ()),
    "cert=5": lambda crypto, config, seat: (b"x", 5),
    "cert=unsampled": lambda crypto, config, seat: (
        b"x", _unsampled_prepares(crypto, config, seat)
    ),
}
JUNK_CLAIM_CASES = [
    pytest.param(protocol, name, id=f"{name}-{protocol}")
    for name in JUNK_CLAIMS
    for protocol in ("probft", "pbft")
    if not (protocol == "pbft" and name == "cert=unsampled")  # no samples
]


def _junk_new_leader_seat(protocol, claim):
    """A Byzantine seat that signs a NewLeader for view 2 making the claim
    ``claim`` about view 1, and sends it to view 2's leader (replica 1) at
    t=1: early, so it is buffered and replayed."""
    if protocol == "probft":
        from repro.messages.probft import NewLeader as kind
    else:
        from repro.messages.pbft import PbftNewLeader as kind

    class Seat:
        def __init__(self, replica_id, config, crypto, transport):
            self.id, self._config = replica_id, config
            self._crypto, self._transport = crypto, transport

        def start(self):
            self._transport.schedule(1.0, self._send)

        def _send(self):
            value, cert = JUNK_CLAIMS[claim](self._crypto, self._config, self.id)
            fields = dict(view=2, prepared_view=1, prepared_value=value, cert=cert)
            if protocol == "probft":
                fields["domain"] = self._config.seed_domain
            self._transport.send(1, self._crypto.signatures.sign(self.id, kind(**fields)))

        def on_message(self, src, message):
            pass

    return Seat


class TestValueDomain:
    """A value is ``bytes``: ``None`` stands for "nothing prepared" and SMR
    decodes every decided value as a batch.  A leader-signed proposal of
    anything else is malformed at its first inspection, so the view times
    out and the next leader decides — it used to stall every correct
    replica (``None``: 0 of 29 decided) or crash them when SMR decoded it."""

    def test_statements_and_shapes_say_no(self):
        from repro.baselines.pbft.predicates import pbft_safe_proposal
        from repro.core.predicates import safe_proposal
        from repro.crypto.signatures import Signed
        from repro.messages.base import ProposalStatement, conforms
        from repro.messages.hotstuff import HsQuorumCert, HsVotePayload
        from repro.messages.pbft import PbftPropose
        from repro.messages.probft import Propose

        from .helpers import make_crypto

        config = ProtocolConfig(n=8, f=1)
        crypto = make_crypto(config).instance(config)
        assert conforms(ProposalStatement(1, b"v"), ProposalStatement)
        for value in NOT_BYTES + HOSTILE_BYTES:
            statement = crypto.signatures.sign(
                0, ProposalStatement(1, value, config.seed_domain)
            )
            assert not conforms(statement, Signed[ProposalStatement])
            propose = crypto.signatures.sign(0, Propose(1, statement, None))
            assert safe_proposal(propose, config, crypto) is False
            pbft = crypto.signatures.sign(0, PbftPropose(1, statement, None))
            assert not conforms(pbft, Signed, crypto.verdicts)
            assert pbft_safe_proposal(pbft, config, crypto) is False
            vote = crypto.signatures.sign(0, HsVotePayload(1, value, "prepare"))
            assert not conforms(vote, Signed[HsVotePayload])
            qc = HsQuorumCert(1, value, "prepare", ())
            assert not conforms(qc, HsQuorumCert)

    @pytest.mark.parametrize(
        "name", ["bytes", "Signed", "ProposalStatement", "HsVotePayload", "HsQuorumCert"]
    )
    def test_a_class_shape_is_an_exact_type(self, name):
        """Every class a message names conforms with its own instances and
        no subclass's: a subclass may override ``__hash__`` / ``__eq__``."""
        from repro.crypto.signatures import Signed
        from repro.messages.base import ProposalStatement, conforms
        from repro.messages.hotstuff import HsQuorumCert, HsVotePayload

        statement = ProposalStatement(1, b"v")
        good = {
            "bytes": b"v", "Signed": Signed(statement, 0, b""),
            "ProposalStatement": statement,
            "HsVotePayload": HsVotePayload(1, b"v", "prepare"),
            "HsQuorumCert": HsQuorumCert(1, b"v", "prepare", ()),
        }[name]
        cls = type(good)
        hint = Signed[ProposalStatement] if cls is Signed else cls
        sub = type("Sub", (cls,), {})
        assert conforms(good, hint)
        assert not conforms(sub.__new__(sub), hint)

    @pytest.mark.parametrize("latency", ["constant", "exponential"])
    @pytest.mark.parametrize("protocol", ["probft", "pbft", "hotstuff"])
    def test_a_none_leader_is_a_silent_one(self, protocol, latency):
        self._decides_like_a_silent_leader(protocol, latency, None)

    @pytest.mark.parametrize("latency", ["constant", "exponential"])
    @pytest.mark.parametrize("value", HOSTILE_BYTES, ids=lambda v: type(v).__name__)
    def test_a_hotstuff_vote_for_a_bytes_subclass_is_dropped(self, value, latency):
        """A HotStuff vote signs its own value: a voter that votes for the
        leader's value as a hostile subclass used to crash the leader's vote
        collector.  The vote does not conform (``Signed[HsVotePayload]``);
        view 1 decides."""
        import dataclasses

        from repro.core.leader import leader_of
        from repro.harness.registry import MatrixCell, cell_deployment_spec
        from repro.harness.trial import run_trial
        from repro.messages.hotstuff import HsProposal, HsVote, HsVotePayload

        from .helpers import reference_spec

        class Voter:
            def __init__(self, replica_id, config, crypto, transport):
                self.id, self._config = replica_id, config
                self._crypto, self._transport = crypto, transport

            def start(self):
                pass

            def on_message(self, src, message):
                proposal = getattr(message, "payload", None)
                if not isinstance(proposal, HsProposal):
                    return
                sign = lambda payload: self._crypto.signatures.sign(self.id, payload)
                hostile = type(value)(proposal.value)
                vote = sign(HsVotePayload(proposal.view, hostile, proposal.phase))
                self._transport.send(
                    leader_of(proposal.view, self._config), sign(HsVote(vote))
                )

        def spec():
            cell = MatrixCell("hotstuff", "none", latency, n=30, f=5)
            return dataclasses.replace(
                cell_deployment_spec(cell, seed=3, max_time=600.0),
                byzantine={7: Voter},
            )

        result = run_trial(spec())
        assert result == run_trial(reference_spec(spec()))
        assert result.all_decided and result.agreement_ok and result.max_view == 1

    @pytest.mark.parametrize("latency", ["constant", "exponential"])
    @pytest.mark.parametrize("protocol", ["probft", "pbft", "hotstuff"])
    @pytest.mark.parametrize("value", HOSTILE_BYTES, ids=lambda v: type(v).__name__)
    def test_a_hostile_bytes_leader_is_a_silent_one(self, value, protocol, latency):
        """A ``Value`` is exactly ``bytes``: a subclass used to crash every
        honest replica (a raising ``__hash__``: all three protocols) or be
        decided (a raising ``__eq__``: ProBFT, PBFT; HotStuff crashed)."""
        self._decides_like_a_silent_leader(protocol, latency, value)

    @staticmethod
    def _decides_like_a_silent_leader(protocol, latency, value):
        """n=30, f=5, seed 3: the trial decides after view 1, exactly in the
        views a silent view-1 leader's trial decides in, and `==` its oracle."""
        import dataclasses

        from repro.harness.registry import MatrixCell, cell_deployment_spec
        from repro.harness.trial import TrialContext, run_trial

        from .helpers import reference_spec

        def spec(adversary="none"):
            cell = MatrixCell(protocol, adversary, latency, n=30, f=5)
            base = cell_deployment_spec(cell, seed=3, max_time=600.0)
            if adversary != "none":
                return base
            return dataclasses.replace(
                base, byzantine={0: _junk_value_leader(protocol, value)}
            )

        context = TrialContext(spec())
        result = context.execute()
        assert result == run_trial(reference_spec(spec()))
        assert result.all_decided and result.agreement_ok
        assert min(result.decision_views) == 2
        assert result.decision_views == run_trial(spec("silent")).decision_views
        decided = [d.value for d in context.deployment.decisions.values()]
        assert all(type(value) is bytes for value in decided)

    @pytest.mark.parametrize("protocol,claim", JUNK_CLAIM_CASES)
    def test_a_junk_prepared_value_is_an_invalid_new_leader(self, protocol, claim):
        """A NewLeader whose ``prepared_value`` is no ``bytes``, or whose
        ``cert`` is no tuple of signed Prepares, does not conform, and is
        dropped before its certificate is looked at (the certificate's
        verdict is keyed by the value).  Each used to crash view 2's leader,
        which replays it from its buffer when view 2 starts: the values
        ProBFT's, ``cert=5`` both protocols' (``len`` / iteration), and
        ``cert=unsampled`` ProBFT's (the certificate check read the sample's
        ids before verifying it)."""
        import dataclasses

        from repro.harness.registry import MatrixCell, cell_deployment_spec
        from repro.harness.trial import run_trial

        from .helpers import reference_spec

        def spec():
            cell = MatrixCell(protocol, "silent", "constant", n=10, f=3)
            base = cell_deployment_spec(cell, seed=1, max_time=600.0)
            seat = _junk_new_leader_seat(protocol, claim)
            return dataclasses.replace(base, byzantine={**base.byzantine, 9: seat})

        result = run_trial(spec())
        assert result == run_trial(reference_spec(spec()))
        assert result.all_decided and result.agreement_ok
        assert result.decision_views == (2,)

    @pytest.mark.parametrize("reference", [False, True])
    @pytest.mark.parametrize(
        "value", [None, 5, [1], HashRaises(b"b"), EqRaises(b"b")],
        ids=lambda v: type(v).__name__,
    )
    def test_a_leaders_second_statement_of_no_value_is_no_evidence(
        self, value, reference
    ):
        """Seat 0 leads view 1 with a valid Propose(b"a"), then at t=1.5
        broadcasts its own Prepare around a second statement of its for view
        1 whose value is no ``bytes``.  That Prepare does not conform, so it
        is dropped whole — no correct replica votes for such a value, so it
        cannot be half of a split.  It used to be evidence: view 1 blocked
        and the trial decided in views (2, 3), or the ``==`` of the
        equivocation check raised out of every replica that had voted."""
        import dataclasses

        from repro.harness.registry import MatrixCell, cell_deployment_spec
        from repro.harness.trial import run_trial

        from .helpers import reference_spec

        class Seat:
            def __init__(self, replica_id, config, crypto, transport):
                self.id, self._config = replica_id, config
                self._crypto, self._transport = crypto, transport

            def start(self):
                from repro.messages.base import ProposalStatement
                from repro.messages.probft import Propose

                sign = lambda payload: self._crypto.signatures.sign(self.id, payload)
                statement = sign(ProposalStatement(1, b"a", self._config.seed_domain))
                self._transport.broadcast(sign(Propose(1, statement, None)))
                self._transport.schedule(1.5, self._second_statement)

            def _second_statement(self):
                from repro.crypto.vrf import phase_seed
                from repro.messages.base import ProposalStatement
                from repro.messages.probft import Prepare

                config, crypto = self._config, self._crypto
                key = crypto.registry.key_pair(self.id).private_key
                statement = crypto.signatures.sign_with(
                    key, self.id, ProposalStatement(1, value, config.seed_domain)
                )
                sample = crypto.vrf.prove_with(
                    key, self.id, phase_seed(1, "prepare", config.seed_domain),
                    config.sample_size,
                )
                prepare = Prepare(statement=statement, sample=sample)
                self._transport.broadcast(crypto.signatures.sign_with(key, self.id, prepare))

            def on_message(self, src, message):
                pass

        cell = MatrixCell("probft", "none", "constant", n=30, f=5)
        spec = dataclasses.replace(
            cell_deployment_spec(cell, seed=3, max_time=600.0), byzantine={0: Seat}
        )
        result = run_trial(reference_spec(spec) if reference else spec)
        assert result.all_decided and result.agreement_ok
        assert result.decision_views == (1,)

    @pytest.mark.parametrize("reference", [False, True])
    @pytest.mark.parametrize("hostile", ["__hash__", "__eq__"])
    def test_a_hostile_int_in_a_sample_is_an_invalid_vote(self, hostile, reference):
        """Seat 7 answers the Propose with a Prepare whose sample is its own
        with the first id an ``int`` subclass whose ``hostile`` raises.  The
        VRF verifies only a tuple of exact ``int`` ids: the vote is invalid.
        It used to raise out of the verification (``__eq__``, both stacks),
        or out of the oracle's ``i ∈ S`` (``__hash__``)."""
        import dataclasses

        from repro.harness.registry import MatrixCell, cell_deployment_spec
        from repro.harness.trial import run_trial

        from .helpers import reference_spec

        def raises(*args):
            raise RuntimeError(f"hostile {hostile}")

        members = {"__hash__": raises} if hostile == "__hash__" else {
            "__eq__": raises, "__hash__": int.__hash__,
        }
        HostileInt = type("HostileInt", (int,), members)

        class Seat:
            def __init__(self, replica_id, config, crypto, transport):
                self.id, self._config = replica_id, config
                self._crypto, self._transport = crypto, transport

            def start(self):
                pass

            def on_message(self, src, message):
                from repro.crypto.vrf import VRFOutput, phase_seed
                from repro.messages.probft import Prepare, Propose

                if not isinstance(getattr(message, "payload", None), Propose):
                    return
                config, crypto = self._config, self._crypto
                key = crypto.registry.key_pair(self.id).private_key
                honest = crypto.vrf.prove_with(
                    key, self.id, phase_seed(1, "prepare", config.seed_domain),
                    config.sample_size,
                )
                sample = (HostileInt(honest.sample[0]),) + tuple(honest.sample[1:])
                prepare = Prepare(
                    statement=message.payload.statement,
                    sample=VRFOutput(sample=sample, proof=honest.proof),
                )
                self._transport.multicast(
                    [d for d in range(config.n) if d != self.id],
                    crypto.signatures.sign_with(key, self.id, prepare),
                )

        cell = MatrixCell("probft", "none", "constant", n=30, f=5)
        spec = dataclasses.replace(
            cell_deployment_spec(cell, seed=3, max_time=600.0), byzantine={7: Seat}
        )
        result = run_trial(reference_spec(spec) if reference else spec)
        assert result.all_decided and result.agreement_ok
        assert result.decision_views == (1,)

    @pytest.mark.parametrize("value", NOT_BYTES)
    def test_serving_under_a_junk_value_leader(self, value, monkeypatch):
        """n=9 serving, the fixed view-1 leader of every slot proposes one
        non-bytes value to everyone: every request completes, logs agree,
        and the oracle runs the same — no honest replica decodes junk."""
        import repro.adversary.equivocation as equivocation
        from repro.adversary.equivocation import SplitStrategy
        from repro.smr.workload import ServingSpec, build_serving_deployment, serve

        monkeypatch.setattr(
            equivocation, "optimal_split",
            lambda n, byzantine, a, b: SplitStrategy(((value, frozenset(range(n))),)),
        )
        spec = ServingSpec(
            adversary="equivocating-leader", rotate_leaders=False, load="high",
            num_clients=12, requests_per_client=4, seed=5,
        )
        result = serve(spec, build_serving_deployment(spec))
        assert result.completed == spec.total_requests == 48
        assert result.timed_out == 0 and result.logs_consistent
        oracle = serve(spec, build_serving_deployment(spec, reference=True))
        assert oracle == result and oracle.latencies == result.latencies
