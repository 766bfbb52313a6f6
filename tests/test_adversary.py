"""Tests for the Byzantine adversary framework."""

import pytest

from repro.adversary.behaviors import CrashReplica, crash_factory, silent_factory
from repro.adversary.equivocation import (
    equivocation_byzantine_map,
    general_split,
    optimal_split,
    suboptimal_split,
)
from repro.config import ProtocolConfig
from repro.core.protocol import ProBFTDeployment
from repro.net.latency import ConstantLatency
from repro.sync.timeouts import FixedTimeout

from .helpers import cell_deployment


def attack_deployment(config, timeout, seed=0, **kwargs):
    """The Figure-4c attack deployment (``kwargs``: the map's options)."""
    byzantine, plan = equivocation_byzantine_map(config, **kwargs)
    deployment = ProBFTDeployment(
        config, seed=seed, timeout_policy=FixedTimeout(timeout), byzantine=byzantine
    )
    return deployment, plan


class TestSplitStrategies:
    def test_optimal_split_shape(self):
        byz = [0, 8, 9]
        plan = optimal_split(10, byz, b"a", b"b")
        (v1, g1), (v2, g2) = plan.assignments
        assert v1 == b"a" and v2 == b"b"
        # Byzantine replicas are in both groups.
        for b in byz:
            assert b in g1 and b in g2
        # Correct replicas split disjointly and evenly-ish.
        correct1 = g1 - set(byz)
        correct2 = g2 - set(byz)
        assert not correct1 & correct2
        assert len(correct1 | correct2) == 7
        assert abs(len(correct1) - len(correct2)) <= 1

    def test_suboptimal_split_covers_everyone(self):
        plan = suboptimal_split(10, b"a", b"b")
        (v1, g1), (v2, g2) = plan.assignments
        assert g1 | g2 == set(range(10))
        assert not g1 & g2

    def test_general_split_properties(self):
        plan = general_split(20, [b"a", b"b", b"c"], seed=1)
        assert len(plan.assignments) == 3
        all_members = set()
        for _v, members in plan.assignments:
            all_members |= members
        assert len(all_members) <= 20  # some replicas may be omitted

    def test_general_split_needs_two_values(self):
        with pytest.raises(ValueError):
            general_split(10, [b"only"])

    def test_group_of(self):
        plan = optimal_split(10, [0], b"a", b"b")
        assert plan.group_of(0) in (b"a", b"b")
        assert plan.group_of(1) is not None


class TestSilentAndCrash:
    def test_silent_replica_sends_nothing(self):
        dep = ProBFTDeployment(
            ProtocolConfig(n=10, f=2),
            byzantine={5: silent_factory()},
            timeout_policy=FixedTimeout(30.0),
        )
        dep.run(max_time=1000)
        assert dep.network.stats.sent_by_replica[5] == 0
        assert dep.all_correct_decided()

    def test_crash_replica_stops_at_crash_time(self):
        dep = ProBFTDeployment(
            ProtocolConfig(n=10, f=2),
            latency=ConstantLatency(1.0),
            byzantine={9: crash_factory(crash_time=1.5)},
            timeout_policy=FixedTimeout(30.0),
        )
        dep.run(max_time=1000, stop_when_decided=False)
        replica: CrashReplica = dep.replicas[9]
        assert replica.crashed

    def test_f_crashes_tolerated(self):
        dep = cell_deployment("probft", "crash", 13, 4)
        assert dep.all_correct_decided()
        assert dep.agreement_ok

    @pytest.mark.parametrize("protocol", ["probft", "pbft", "hotstuff"])
    def test_crash_seats_wrap_the_protocols_own_replica(self, protocol):
        from repro.harness.trial import deployment_factory

        dep = cell_deployment(protocol, "crash", 10, 3)
        honest = deployment_factory(protocol).replica_class
        for seat in (7, 8, 9):
            assert type(dep.replicas[seat]._inner) is honest

    @pytest.mark.parametrize("latency", ["constant", "exponential"])
    @pytest.mark.parametrize("protocol", ["probft", "pbft", "hotstuff"])
    def test_silent_f_every_correct_replica_decides(self, protocol, latency):
        """The last f seats silent from the start (one registration for
        every protocol): every correct replica still decides, in agreement.
        How many views ProBFT needs for it is recorded in DESIGN.md, not
        asserted here."""
        for seed in (1, 2, 3):
            dep = cell_deployment(
                protocol, "silent-f", 16, 5, seed=seed, latency=latency
            )
            assert dep.byzantine_ids == frozenset(range(11, 16))
            sent = dep.network.stats.sent_by_replica
            assert all(sent[r] == 0 for r in dep.byzantine_ids)
            assert dep.all_correct_decided(), seed
            assert dep.agreement_ok, seed


class TestEquivocationAttack:
    def test_attack_never_violates_agreement(self):
        """The headline safety property, hammered across seeds."""
        for seed in range(10):
            dep, _plan = attack_deployment(ProtocolConfig(n=20, f=4), 20.0, seed)
            dep.run(max_time=5000)
            assert dep.agreement_ok, f"violation at seed {seed}"
            assert dep.all_correct_decided()

    def test_attack_sends_two_proposals(self):
        dep, plan = attack_deployment(ProtocolConfig(n=12, f=2), 20.0)
        dep.run(max_time=30)
        assert len(plan.values) == 2
        # The equivocating leader sent Propose messages.
        assert dep.network.stats.sent_by_replica[0] > 0

    def test_some_replicas_block_the_view(self):
        """Cross-group votes expose the equivocation to someone."""
        blocked_any = False
        for seed in range(5):
            dep, _ = attack_deployment(ProtocolConfig(n=20, f=4), 1000.0, seed)
            dep.run(max_time=20, stop_when_decided=False)
            blocked = [
                r
                for r, rep in dep.correct_replicas().items()
                if rep.view_blocked
            ]
            blocked_any = blocked_any or bool(blocked)
        assert blocked_any

    def test_decisions_follow_split_values(self):
        dep, plan = attack_deployment(ProtocolConfig(n=20, f=4), 20.0)
        dep.run(max_time=5000)
        decided = dep.decided_values()
        # Whatever was decided must be one of the attack values (a correct
        # view-2 leader re-proposes a prepared attack value) or a fresh
        # correct-leader value if nothing was prepared.
        assert len(decided) <= 1

    @pytest.mark.parametrize(
        "plan",
        [
            optimal_split(10, [0, 8, 9], b"a", b"b"),
            suboptimal_split(10, b"a", b"b"),
            general_split(10, [b"a", b"b", b"c"], seed=3),
        ],
        ids=["optimal", "suboptimal", "general"],
    )
    def test_leader_unicasts_each_proposal_in_replica_order(self, plan):
        """One Propose object per assignment, sent to its group in ascending
        replica order and never to the leader itself: one unicast each, so
        the event order is the per-destination send order."""
        from repro.adversary.equivocation import EquivocatingLeader
        from repro.messages.probft import Propose

        from .helpers import make_crypto

        class Recorder:
            def __init__(self):
                self.sent = []

            def send(self, dst, message):
                self.sent.append((dst, message))

        config = ProtocolConfig(n=10, f=3)
        transport = Recorder()
        EquivocatingLeader(
            0, config, make_crypto(config), transport, plan,
            support_own_proposals=False,
        ).start()
        expected = [
            (dst, value)
            for value, group in plan.assignments
            for dst in sorted(group)
            if dst != 0
        ]
        assert [(d, m.payload.value) for d, m in transport.sent] == expected
        for value, _ in plan.assignments:
            sent = {id(m) for _, m in transport.sent if m.payload.value == value}
            assert len(sent) == 1
        assert all(isinstance(m.payload, Propose) for _, m in transport.sent)

    @pytest.mark.parametrize(
        "strategy",
        [
            None,
            suboptimal_split(24, b"attack-A", b"attack-B"),
            general_split(24, [b"attack-A", b"attack-B", b"attack-C"], seed=5),
        ],
        ids=["optimal", "suboptimal", "general"],
    )
    def test_every_figure4_strategy_keeps_agreement(self, strategy):
        """Each Figure-4 leader strategy against the full protocol (n=24,
        f=4, unit latency): no violation and every correct replica decides."""
        config = ProtocolConfig(n=24, f=4)
        byzantine, _plan = equivocation_byzantine_map(config, strategy=strategy)
        for seed in range(6):
            dep = ProBFTDeployment(
                config,
                seed=seed,
                latency=ConstantLatency(1.0),
                timeout_policy=FixedTimeout(20.0),
                byzantine=byzantine,
            )
            dep.run(max_time=5000)
            assert dep.agreement_ok, seed
            assert dep.all_correct_decided(), seed

    def test_needs_at_least_one_byzantine(self):
        with pytest.raises(ValueError):
            equivocation_byzantine_map(ProtocolConfig(n=10, f=0))


class TestFlooding:
    def test_flooding_does_not_corrupt_consensus(self):
        dep = cell_deployment("probft", "flooding", 10, 2)
        assert dep.all_correct_decided()
        assert dep.agreement_ok
        assert dep.decided_values() == {b"value-0"}

    def test_flood_messages_are_rejected_not_counted(self):
        """Forged votes never contribute to quorums: decisions still need
        the normal number of steps, and no replica prepares the fake value."""
        dep = cell_deployment("probft", "flooding", 10, 2)
        for r, rep in dep.correct_replicas().items():
            assert rep.prepared_value != b"flood-value"

    def test_flooder_actually_floods(self):
        dep = cell_deployment("probft", "flooding", 10, 2)
        flooder = max(dep.byzantine_ids)
        assert dep.network.stats.sent_by_replica[flooder] > 50
