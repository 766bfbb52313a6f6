"""Validated once per message, not once per delivery.

Every production consensus instance validates through one verdict table
(:mod:`repro.crypto.verdicts`): what a recipient checks about a message that
does not depend on the recipient is computed once per message *object* and
looked up on every later delivery.  These tests pin the mechanism by its
counters — how many checks ran is a function of the messages sent, never of
how many recipients or time buckets they reached — and its two safety
properties: a verdict is about one object (an equal-looking copy is checked
from scratch) and an entry keeps that object alive (an ``id()`` is never
recycled under it).  That tabled runs *equal* table-free ones is
``tests/test_reference_identity.py``; the table's lifetime is
``tests/test_trial_lifecycle.py``.
"""

from __future__ import annotations

import functools

import pytest

from repro.config import ProtocolConfig
from repro.core.deployment import KERNEL_STATS
from repro.core.protocol import ProBFTDeployment
from repro.core.replica import prevalidate_vote
from repro.crypto.context import CryptoContext
from repro.crypto.signatures import Signed
from repro.crypto.verdicts import VerdictTable
from repro.crypto.vrf import VRFOutput
from repro.harness.registry import MatrixCell, cell_deployment_spec
from repro.harness.trial import TrialContext
from repro.messages.base import ProposalStatement
from repro.messages.probft import Prepare
from repro.sync.timeouts import FixedTimeout

from .helpers import deliver_bucket, make_prepare, reference_spec

MAX_TIME = 600.0

#: The per-message verdicts of each protocol: one per distinct message
#: object at most.  (Signatures, VRF proofs, certificates and QCs are parts
#: of messages and counted under their own kinds.)
MESSAGE_KINDS = {
    "probft": ("vote", "propose", "new_leader"),
    "pbft": ("vote", "propose", "new_leader"),
    "hotstuff": ("proposal",),
}


def _run(protocol, adversary, latency, n, seed=0):
    """A finished production trial, with every message object it sent:
    ``(deployment, result, {id: message})`` — one entry per fan-out or
    unicast *object*, however many recipients it had."""
    cell = MatrixCell(protocol, adversary, latency, n=n, f=(n - 1) // 3)
    context = TrialContext(cell_deployment_spec(cell, seed, MAX_TIME))
    deployment = context.build()
    network = deployment.network
    sent = {}
    send, multicast, broadcast = network.send, network.multicast, network.broadcast

    def spy_send(src, dst, message):
        sent[id(message)] = (src, message)  # pinned: ids stay distinct
        return send(src, dst, message)

    def spy_multicast(src, targets, message):
        sent[id(message)] = (src, message)
        return multicast(src, targets, message)

    def spy_broadcast(src, message, include_self=False):
        # (A fully wired network's broadcast skips ``multicast``.)
        sent[id(message)] = (src, message)
        return broadcast(src, message, include_self)

    network.send, network.multicast = spy_send, spy_multicast
    network.broadcast = spy_broadcast
    return deployment, context.execute(), sent


class TestValidationsFollowMessages:
    @pytest.mark.parametrize("latency", ["constant", "exponential"])
    @pytest.mark.parametrize("protocol", ["probft", "pbft", "hotstuff"])
    def test_computed_at_most_once_per_message_object(self, protocol, latency):
        """n=100, fault-free: under constant latency a fan-out is one
        bucket, under exponential latency one bucket per recipient — the
        number of validations is the same function of the messages sent."""
        deployment, result, sent = _run(protocol, "none", latency, n=100)
        assert result.all_decided and result.agreement_ok
        counts = deployment.crypto.verdicts.counts
        per_message = sum(counts.computed[k] for k in MESSAGE_KINDS[protocol])
        assert 0 < per_message <= len(sent)
        # Nothing honest is ever recomputed: every signature and VRF output
        # in a fault-free run was valid at birth.
        assert counts.computed["signature"] == 0 and counts.computed["vrf"] == 0
        stats = deployment.vote_kernel_stats()
        validated, reused = counts.totals()
        assert (stats["validated"], stats["validated_reused"]) == (validated, reused)
        # Work follows messages; deliveries only look verdicts up.
        delivered = deployment.network.stats.delivered_total
        assert validated <= 2 * len(sent)
        if protocol != "hotstuff":  # HotStuff's votes are unicasts
            assert delivered > 10 * len(sent)
        if protocol == "probft" and latency == "exponential":
            # One bucket per delivery, one lookup per bucket.
            assert stats["walked"] > 0.9 * delivered
            assert reused >= stats["walked"] - validated

    def test_probft_counts_are_exact_and_equal_under_both_models(self):
        n = 100
        seen = {}
        for latency in ("constant", "exponential"):
            deployment, result, sent = _run("probft", "none", latency, n=n)
            assert result.max_view == 1
            counts = deployment.crypto.verdicts.counts
            votes = [
                m for _, m in sent.values() if prevalidate_vote(
                    deployment.config, CryptoContext.create(1), m
                ) is not None
            ]
            # One token per vote object that reached anyone before the run
            # stopped (the last Commits are still in flight), one proposal.
            assert 0.9 * len(votes) <= counts.computed["vote"] <= len(votes) <= 2 * n
            assert counts.computed["propose"] == 1
            assert counts.samples_expanded == len(votes)  # proving only
            seen[latency] = deployment.vote_kernel_stats()
            # A group's tokens are looked up before its stops run, so the
            # pass the run stops in has validated the buckets it did not
            # reach: one group ahead at most, never more than were sent
            # (the votes and the proposal).
            assert seen[latency]["validated"] <= len(votes) + 1
        # Exponential latency: (nearly) every bucket is a singleton, and
        # the token is looked up per bucket instead of recomputed.
        assert seen["exponential"]["walked"] > 20 * seen["exponential"]["validated"]
        assert seen["constant"]["walked"] == 1  # (the leader's lone Prepare)

    @pytest.mark.parametrize("protocol", ["probft", "pbft", "hotstuff"])
    def test_view_change_validates_each_new_leader_and_wish_once(self, protocol):
        """A silent view-1 leader: n NewLeader unicasts, one Propose whose
        justification is those very objects, n(n-1) Wish deliveries."""
        deployment, result, sent = _run(protocol, "silent", "exponential", n=40)
        assert result.all_decided and result.max_view == 2
        counts = deployment.crypto.verdicts.counts
        per_message = sum(counts.computed[k] for k in MESSAGE_KINDS[protocol])
        assert 0 < per_message <= len(sent)
        assert counts.computed["signature"] == 0  # honest wishes: born valid
        # n-1 Wish objects, (n-1)^2 deliveries: every one that is not stale
        # or a replay (those are dropped before any crypto) is one lookup.
        wishes = result.messages_by_type["Wish"]
        assert wishes == 39 * 39
        assert counts.reused["signature"] > 0.5 * wishes

    @pytest.mark.parametrize("protocol", ["probft", "pbft", "hotstuff"])
    def test_counters_are_in_kernel_stats_for_every_protocol(self, protocol):
        assert {"validated", "validated_reused"} <= set(KERNEL_STATS)
        deployment, _, _ = _run(protocol, "none", "exponential", n=16)
        stats = deployment.vote_kernel_stats()
        assert stats["validated"] > 0
        assert stats["validated_reused"] > stats["validated"]
        oracle = TrialContext(
            reference_spec(
                cell_deployment_spec(
                    MatrixCell(protocol, "none", "exponential", n=16, f=5), 0, MAX_TIME
                )
            )
        )
        oracle.execute()
        assert oracle.deployment.vote_kernel_stats() == dict.fromkeys(KERNEL_STATS, 0)

    def test_serving_rows_sum_the_counters_over_slots(self):
        from repro.smr.workload import ServingSpec, run_serving_trial

        result = run_serving_trial(
            ServingSpec(num_clients=6, requests_per_client=3, max_time=5_000.0)
        )
        routes = result.kernel_stats
        assert routes["propose_validations"] == result.slots_applied
        assert routes["validated"] > routes["propose_validations"]
        assert routes["validated_reused"] > routes["validated"]
        assert {"validated", "validated_reused"} <= set(result.row())


class TestAdversarialCells:
    """The two cells whose adversaries build votes of their own."""

    def test_flooding_every_forged_vote_is_validated_once_and_rejected(self):
        n = 30
        deployment, result, sent = _run("probft", "flooding", "constant", n=n, seed=2)
        assert result.all_decided and result.agreement_ok
        (flooder,) = deployment.byzantine_ids
        table = deployment.crypto.verdicts
        counts = table.counts
        flood = [m for src, m in sent.values() if src == flooder]
        assert len(flood) == 4  # four objects, sprayed burst x (n-1) times
        tokens = [table.get("vote", m) for m in flood]
        assert [t.valid for t in tokens].count(True) == 1  # the duplicated one
        votes = [m for _, m in sent.values() if isinstance(m.payload, Prepare)
                 or type(m.payload).__name__ == "Commit"]
        assert counts.computed["vote"] <= len(votes)
        # The flooder signs with its own registry key (valid signatures on
        # forged content); what is recomputed is its hand-built sample, once
        # as a Prepare sample and once as a Commit sample.
        assert counts.computed["signature"] == 0
        assert counts.computed["vrf"] == 2
        # Rejected at every recipient: the flooder appears in nobody's
        # quorums except through its one valid Prepare.
        fake = b"flood-value"
        for replica in deployment.correct_replicas().values():
            assert replica._prepare_collectors.get(1).count(fake) == 0
            assert flooder not in replica._commit_collectors.get(1).senders(
                replica.decision.value
            )
        deliveries = 3 * 3 * (n - 1)  # three invalid objects, burst 3
        assert counts.reused["vote"] >= deliveries - 3

    def test_equivocation_validates_per_object_in_flagged_views_too(self):
        """Flagged views are declined by the kernel: every recipient comes
        through ``on_message`` and still pays one lookup, not a validation."""
        deployment, result, sent = _run(
            "probft", "equivocation", "constant", n=30, seed=0
        )
        assert result.agreement_ok and result.all_decided
        counts = deployment.crypto.verdicts.counts
        stats = deployment.vote_kernel_stats()
        assert stats["declined"] > 0
        per_message = sum(counts.computed[k] for k in MESSAGE_KINDS["probft"])
        assert per_message <= len(sent)
        assert counts.reused["vote"] > 3 * counts.computed["vote"]
        # The colluders sign the leader's statements with its corrupted key
        # (``sign_with``): never trusted at birth, verified once per object
        # — not once per recipient.  Their samples are honestly proven.
        assert 0 < counts.computed["signature"] <= len(sent)
        assert counts.reused["signature"] > counts.computed["signature"]
        assert counts.computed["vrf"] == 0


def _rebuilt(vote: Signed, **sample_fields) -> Signed:
    """An adversary-built twin of a vote: every object new, every field
    equal (``sample_fields`` tamper with the VRF output)."""
    payload = vote.payload
    statement = payload.statement
    inner = statement.payload
    sample = dict(
        sample=tuple(payload.sample.sample), proof=bytes(payload.sample.proof)
    )
    sample.update(sample_fields)
    return Signed(
        payload=Prepare(
            statement=Signed(
                payload=ProposalStatement(inner.view, inner.value, inner.domain),
                signer=statement.signer,
                signature=bytes(statement.signature),
            ),
            sample=VRFOutput(**sample),
        ),
        signer=vote.signer,
        signature=bytes(vote.signature),
    )


class TestVerdictsAreAboutOneObject:
    """n=8 (saturated samples), paused at t=1.5: every correct replica has
    voted and holds two Prepares, the rest are in flight."""

    @pytest.fixture
    def paused(self):
        deployment = ProBFTDeployment(
            ProtocolConfig(n=8, f=1), seed=1, timeout_policy=FixedTimeout(30.0)
        )
        deployment.start()
        deployment.sim.run(until=1.5)
        statement = deployment.replicas[1]._proposal.payload.statement
        vote = make_prepare(deployment.crypto, deployment.config, 2, statement)
        return deployment, vote

    def test_an_equal_copy_is_validated_from_scratch(self, paused):
        deployment, vote = paused
        kernel = functools.partial(deliver_bucket, deployment.network.kernels)
        counts = deployment.crypto.verdicts.counts
        assert kernel(2, vote, [3], None) == 1
        before = dict(counts.computed)
        assert before["vote"] >= 1 and before.get("signature", 0) == 0
        twin = _rebuilt(vote)
        assert twin == vote and twin is not vote
        assert kernel(2, twin, [4], None) == 1
        # Token, both signatures and the VRF proof: all recomputed ...
        assert counts.computed["vote"] == before["vote"] + 1
        assert counts.computed["signature"] == 2
        assert counts.computed["vrf"] == before.get("vrf", 0) + 1
        # ... and found valid, as a replayed honest vote is.
        collector = deployment.replicas[4]._prepare_collectors.get(1)
        assert 2 in collector.senders(vote.payload.value)
        # The second delivery of the twin is a lookup again.
        assert kernel(2, twin, [5], None) == 1
        assert counts.computed["vote"] == before["vote"] + 1

    def test_a_tampered_copy_stays_rejected_at_every_recipient(self, paused):
        deployment, vote = paused
        kernel = functools.partial(deliver_bucket, deployment.network.kernels)
        counts = deployment.crypto.verdicts.counts
        assert kernel(2, vote, [3], None) == 1  # the honest original: valid
        forged = _rebuilt(vote, proof=b"\x00" * 32)
        computed = counts.computed["vote"]
        correct = sorted(deployment.correct_ids - {2})
        value = vote.payload.value
        held = {
            r: deployment.replicas[r]._prepare_collectors.get(1).senders(value)
            for r in correct
        }
        for _ in range(3):
            for r in correct:
                assert kernel(2, forged, [r], None) == -1  # declined: invalid
                deployment.replicas[r].on_message(2, forged)
        assert counts.computed["vote"] == computed + 1
        assert counts.reused["vote"] >= 2 * 3 * len(correct) - 1
        for r in correct:
            collector = deployment.replicas[r]._prepare_collectors.get(1)
            assert collector.senders(value) == held[r]
        # The verdict about the forgery says nothing about the original.
        assert kernel(2, vote, [4], None) == 1
        assert 2 in deployment.replicas[4]._prepare_collectors.get(1).senders(value)

    def test_a_verdict_is_for_the_instance_it_was_computed_in(self, paused):
        """A table answers for one config only: asked about another
        instance (an SMR slot, a test's second domain) it recomputes."""
        deployment, vote = paused
        crypto, config = deployment.crypto, deployment.config
        counts = crypto.verdicts.counts
        assert prevalidate_vote(config, crypto, vote).valid
        computed = counts.computed["vote"]
        other = config.with_params(seed_domain="elsewhere")
        for _ in range(2):
            assert not prevalidate_vote(other, crypto, vote).valid
        assert counts.computed["vote"] == computed
        assert prevalidate_vote(config, crypto, vote).valid


class TestEntriesPinTheirObject:
    def test_churn_never_serves_a_dead_objects_verdict(self):
        """Allocate-and-drop churn: CPython hands a freed object's address
        to the next allocation of its size, so an unpinned ``id()`` key
        would answer for a stranger.  The entry holds its object: every
        fresh object misses, and gets its own verdict."""
        crypto = CryptoContext.create(4, b"churn").instance(ProtocolConfig(n=4))
        key = crypto.registry.key_pair(0).private_key
        wrong = b"\x07" * 32
        ids = set()
        for i in range(2000):
            good = i % 2 == 0
            envelope = crypto.signatures.sign_with(
                key if good else wrong, 0, ("m", i // 2)
            )
            assert crypto.verdicts.get("signature", envelope) is None
            assert crypto.signatures.verify(envelope) is good
            assert crypto.signatures.verify(envelope) is good
            ids.add(id(envelope))
            del envelope
        assert len(ids) == 2000 == len(crypto.verdicts)  # no id came back
        assert crypto.verdicts.counts.computed["signature"] == 2000

    def test_ids_do_recycle_once_nothing_pins_them(self):
        """The control: with the table emptied between objects the same
        churn reuses addresses, which is what pinning protects against."""
        table = VerdictTable()
        ids = set()
        for i in range(2000):
            envelope = Signed(payload=("m", i), signer=0, signature=b"")
            table.put("signature", envelope, True)
            ids.add(id(envelope))
            del envelope
            table.clear()
        assert len(ids) < 2000


def _tags(deployment) -> int:
    return deployment.crypto.signatures.cache_stats()["tags_computed"]


def _tags_read(protocol, adversary, latency, n, seed=0, **cell_fields):
    """One cell on both stacks (equal results asserted):
    ``(result, tags computed in production, tags computed by the oracle)``."""
    cell = MatrixCell(protocol, adversary, latency, n=n, f=(n - 1) // 3, **cell_fields)
    spec = cell_deployment_spec(cell, seed, MAX_TIME)
    production, oracle = TrialContext(spec), TrialContext(reference_spec(spec))
    result = production.execute()
    assert result == oracle.execute()
    assert result.all_decided and result.agreement_ok
    born = production.deployment.crypto.verdicts.counts.born["signature"]
    assert born > n  # envelopes were made: the count below is not vacuous
    return result, _tags(production.deployment), _tags(oracle.deployment)


class TestTagsFollowReaders:
    """An honest envelope's tag is computed for its first reader.  On the
    production stack it has none — ``sign()``-made envelopes are valid at
    birth and accepted by identity — so a trial computes no tag at all,
    whatever the adversary; the table-free oracle re-verifies per recipient
    and pays one tag per envelope it looks at."""

    @pytest.mark.parametrize("latency", ["constant", "exponential"])
    def test_fault_free_trial_computes_no_tag(self, latency):
        result, production, oracle = _tags_read("probft", "none", latency, n=100)
        assert result.max_view == 1
        assert production == 0
        # The oracle verified every vote that reached anyone, the leader's
        # statement and its Propose: one tag per envelope, not per recipient.
        assert 0.9 * 2 * 100 <= oracle <= 2 * 100 + 2

    @pytest.mark.parametrize("protocol", ["probft", "pbft", "hotstuff"])
    def test_view_change_computes_no_tag(self, protocol):
        result, production, oracle = _tags_read(protocol, "silent", "constant", n=30)
        assert result.max_view == 2
        assert production == 0 and oracle >= 3 * 29  # wishes, NewLeaders, votes

    @pytest.mark.parametrize("adversary", ["equivocation", "flooding"])
    def test_adversaries_that_build_votes_make_no_honest_tag_read(self, adversary):
        """Forgeries come from ``sign_with``, whose tag is computed at once
        (and read by the first verification, as ever): not counted."""
        _, production, oracle = _tags_read("probft", adversary, "constant", n=30)
        assert production == 0 and oracle > 30

    def test_serving_trial_with_equivocating_leader_computes_no_tag(self):
        from repro.smr.workload import ServingSpec, build_serving_deployment, serve

        spec = ServingSpec(
            n=9, adversary="equivocating-leader", rotate_leaders=True, timeout=20.0,
            arrival="open", offered_rate=6.0, num_clients=10, requests_per_client=3,
            batch_size=32, max_pending=256, seed=7,
        )
        production = build_serving_deployment(spec)
        oracle = build_serving_deployment(spec, reference=True)
        result = serve(spec, production)
        assert result == serve(spec, oracle)
        assert result.completed == 30 and result.logs_consistent
        assert production.crypto.verdicts.counts.born["signature"] > 100
        assert _tags(production) == 0 and _tags(oracle) > 100

    def test_byte_tracking_reads_every_sent_tag_once(self):
        """Sizing a message encodes it, tag included: with ``track_bytes``
        the sender's accounting is the first reader, on both stacks, and
        the byte counts agree."""
        result, production, oracle = _tags_read(
            "probft", "none", "constant", n=30, track_bytes=True
        )
        assert result.total_bytes > 0
        sized = 2 * 30 + 2  # every vote, the statement (inside them), the Propose
        assert production == sized and oracle == sized


class TestCollectorsFollowQuorums:
    """A replica builds a quorum collector when the first vote for a (view,
    phase) arrives, not one per delivered vote to throw away."""

    @pytest.mark.parametrize("protocol", ["pbft", "hotstuff"])
    @pytest.mark.parametrize("adversary", ["none", "silent"])
    def test_constructions_are_bounded_by_replicas_views_phases(
        self, monkeypatch, protocol, adversary
    ):
        from repro.quorum.probabilistic import QuorumCollector

        built = []
        init = QuorumCollector.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(QuorumCollector, "__init__", counting)
        n = 10
        deployment, result, _ = _run(protocol, adversary, "exponential", n=n)
        assert result.all_decided and result.max_view == (2 if adversary == "silent" else 1)
        votes = sum(
            count
            for kind, count in deployment.network.stats.delivered_by_type.items()
            if kind in ("PbftPrepare", "PbftCommit", "PbftNewLeader", "HsVote", "HsNewView")
        )
        # Per view: four vote phases at the leader alone (HotStuff), plus the
        # leader's NewView collector.  PBFT's votes land in the shared
        # columnar state, so only a view-change leader's NewLeader collector
        # is built: none in a view-1 trial.
        views = result.max_view
        if protocol == "pbft":
            assert len(built) <= views - 1 < votes / 3
        else:
            assert 0 < len(built) <= views * (4 + 1) < votes / 3
