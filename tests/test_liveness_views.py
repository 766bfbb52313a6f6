"""Liveness across views: Theorem 4's geometric argument, in the simulator.

The paper argues every correct replica eventually decides because views with
correct leaders recur forever (round-robin) and each such view decides with
high probability — the number of correct-leader views needed is geometric.
These tests drive exactly that mechanism: k consecutive faulty leaders must
cost exactly k view changes, never safety.
"""

import pytest

from repro.adversary.behaviors import silent_factory
from repro.analysis.termination import decide_within_views
from repro.config import ProtocolConfig
from repro.core.protocol import ProBFTDeployment
from repro.net.latency import ConstantLatency
from repro.sync.timeouts import FixedTimeout


def run_with_k_silent_leaders(k: int, n: int = 13, f: int = 4, seed: int = 0):
    """Leaders of views 1..k are Byzantine-silent."""
    assert k <= f
    byzantine = {r: silent_factory() for r in range(k)}
    dep = ProBFTDeployment(
        ProtocolConfig(n=n, f=f),
        seed=seed,
        latency=ConstantLatency(1.0),
        timeout_policy=FixedTimeout(15.0),
        byzantine=byzantine,
    )
    dep.run(max_time=20_000)
    return dep


class TestConsecutiveFaultyLeaders:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_decision_lands_in_view_k_plus_1(self, k):
        dep = run_with_k_silent_leaders(k)
        assert dep.all_correct_decided()
        assert dep.agreement_ok
        assert dep.max_decision_view == k + 1
        # View k+1's leader is replica k (the first correct one).
        assert dep.decided_values() == {f"value-{k}".encode()}

    def test_latency_scales_with_wasted_views(self):
        t1 = run_with_k_silent_leaders(1).sim.now
        t3 = run_with_k_silent_leaders(3).sim.now
        # Each wasted view costs about one timeout.
        assert t3 > t1 + 15.0

    def test_decisions_never_happen_in_faulty_views(self):
        dep = run_with_k_silent_leaders(3)
        for decision in dep.decisions.values():
            assert decision.view >= 4


class TestGeometricModel:
    def test_formula_matches_simulation_structure(self):
        """With per-view success probability ~1 (small n, saturated samples),
        decide_within_views(1, k) == 1 — and the simulation indeed always
        decides in the first correct-leader view."""
        for k in range(1, 4):
            dep = run_with_k_silent_leaders(k)
            assert dep.max_decision_view == k + 1
        assert decide_within_views(1.0, 1) == 1.0

    def test_expected_views_bound(self):
        """1/(p) expected correct-leader views; with p >= 0.9 at n=100-ish
        parameters two views suffice with probability >= 0.99."""
        p = 0.9
        assert decide_within_views(p, 2) >= 0.99


class TestSkippedViewBuffers:
    """A replica that jumps over a view drops what it buffered for it: a
    skipped view is never replayed, so its buffer is dead weight."""

    @pytest.mark.parametrize("protocol", ["probft", "pbft", "hotstuff"])
    def test_entering_a_later_view_drops_older_buffers(self, protocol):
        from repro.baselines.hotstuff.protocol import HotStuffDeployment
        from repro.baselines.pbft.protocol import PbftDeployment
        from repro.messages.hotstuff import HsNewView
        from repro.messages.pbft import PbftNewLeader
        from repro.messages.probft import NewLeader
        from repro.sync.synchronizer import Wish

        deployment_class, view_2 = {
            "probft": (ProBFTDeployment, NewLeader(2, 0, None, ())),
            "pbft": (PbftDeployment, PbftNewLeader(2, 0, None, ())),
            "hotstuff": (HotStuffDeployment, HsNewView(view=2, prepare_qc=None)),
        }[protocol]
        f = 2
        dep = deployment_class(ProtocolConfig(n=7, f=f), reference=True)
        dep.start()
        replica, sign = dep.replicas[3], dep.crypto.signatures.sign
        replica.on_message(5, sign(5, view_2))
        assert replica.current_view == 1 and list(replica._future_buffer) == [2]
        for s in range(2 * f + 1):
            replica.on_message(s, sign(s, Wish(view=3)))
        assert replica.current_view == 3
        assert all(v >= replica.current_view for v in replica._future_buffer)
