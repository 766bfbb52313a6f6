"""Property-based quorum-bound checks for equivocation split strategies.

The reason no equivocation attack can break the deterministic baselines is
pure arithmetic: for any split of the correct replicas into two groups, the
two values' supports (group plus every colluding Byzantine replica) sum to
``n + f``, which is strictly below twice either deterministic quorum —
PBFT's ``⌈(n+f+1)/2⌉`` and HotStuff's ``n − f`` — so at most one value can
ever gather a quorum.  This suite hammers that invariant over seeded-random
``(n, f)`` instances, for :func:`repro.adversary.equivocation.optimal_split`
and for the attack plans each protocol's equivocation map builds.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.equivocation import (
    SplitStrategy,
    equivocation_byzantine_map,
    general_split,
    optimal_split,
    suboptimal_split,
)
from repro.baselines.hotstuff.adversary import hotstuff_equivocation_map
from repro.baselines.pbft.replica import PbftReplica
from repro.config import ProtocolConfig, deterministic_quorum_size, max_faults

#: Seeded-random (n, f) instances: every valid f for n, across a size sweep.
_RNG = random.Random("split-quorum-bounds")
_CASES = []
for _ in range(60):
    n = _RNG.randint(4, 80)
    f = _RNG.randint(1, max_faults(n))
    _CASES.append((n, f))
# Pin the extremes the random draw may miss.
_CASES += [(4, 1), (7, 2), (100, 33), (97, 32)]


def _byz_ids(n: int, f: int):
    """The canonical attack layout: leader 0 plus the tail of the ID range."""
    return [0] + list(range(n - (f - 1), n)) if f > 1 else [0]


def _supports(plan: SplitStrategy, byz_ids):
    return [len(plan.supporters(v, byz_ids)) for v in plan.values]


class TestOptimalSplitQuorumBounds:
    @pytest.mark.parametrize("n,f", _CASES)
    def test_byzantine_support_never_yields_two_quorums(self, n, f):
        byz = _byz_ids(n, f)
        plan = optimal_split(n, byz, b"a", b"b")
        supports = _supports(plan, byz)
        det_quorum = deterministic_quorum_size(n, f)
        hs_quorum = n - f
        # The two supports sum to n + f: correct replicas split disjointly,
        # Byzantine replicas count for both sides.
        assert sum(supports) == n + f
        # At most one value can reach either deterministic quorum.
        assert sum(supports) < 2 * det_quorum
        assert sum(supports) < 2 * hs_quorum
        assert min(supports) < det_quorum
        assert min(supports) < hs_quorum

    @pytest.mark.parametrize("n,f", _CASES)
    def test_max_support_matches_group_arithmetic(self, n, f):
        byz = _byz_ids(n, f)
        plan = optimal_split(n, byz, b"a", b"b")
        # Larger correct half rounds up; every Byzantine replica piles on.
        expected = (n - f + 1) // 2 + f
        assert plan.max_support(byz) == expected

    @pytest.mark.parametrize("n,f", _CASES)
    def test_suboptimal_split_same_bound(self, n, f):
        byz = _byz_ids(n, f)
        plan = suboptimal_split(n, b"a", b"b")
        supports = _supports(plan, byz)
        # Groups cover all n replicas; adding the f colluders to each side
        # still cannot push both past a deterministic quorum.
        assert sum(supports) <= n + 2 * f
        assert min(supports) < deterministic_quorum_size(n, f)

    def test_supporters_unknown_value_rejected(self):
        plan = optimal_split(10, [0], b"a", b"b")
        with pytest.raises(KeyError):
            plan.supporters(b"missing", [0])

    def test_general_split_supports_are_subsets_of_n(self):
        plan = general_split(30, [b"a", b"b", b"c"], seed=5)
        for value in plan.values:
            assert plan.supporters(value, [0]) <= frozenset(range(30))


class TestPerProtocolAttackPlans:
    """The baseline attack builders inherit the same quorum safety margin."""

    @pytest.mark.parametrize("n,f", _CASES)
    def test_pbft_plan_cannot_double_quorum(self, n, f):
        config = ProtocolConfig(n=n, f=f)
        byzantine, plan = equivocation_byzantine_map(config, protocol=PbftReplica)
        assert len(byzantine) == f  # never exceeds the fault threshold
        supports = _supports(plan, list(byzantine))
        assert sum(supports) < 2 * config.det_quorum

    @pytest.mark.parametrize("n,f", _CASES)
    def test_hotstuff_plan_cannot_double_quorum(self, n, f):
        config = ProtocolConfig(n=n, f=f)
        byzantine, plan = hotstuff_equivocation_map(config)
        assert len(byzantine) == f
        supports = _supports(plan, list(byzantine))
        hs_quorum = config.n - config.f
        assert sum(supports) < 2 * hs_quorum
        # The smaller side is always at least one vote short, so the
        # escalation branch in EquivocatingHsLeader can never fire.
        assert min(supports) < hs_quorum
