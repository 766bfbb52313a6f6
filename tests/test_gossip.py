"""Sample-based gossip dissemination: reachability, identity, adversaries.

Three contract layers for :mod:`repro.net.gossip`:

* **Gossip off is dense** — a ``DeploymentSpec`` round-tripped through
  ``with_gossip(True).with_gossip(False)`` produces bit-identical
  :class:`~repro.harness.trial.RunResult`\\ s on every protocol x adversary
  cell of the harness matrix, and explicitly passing
  ``dissemination="dense"`` equals omitting the kwarg entirely.
* **Gossip on is a working dissemination layer** — deterministic per seed,
  reaches every correct replica w.h.p. with O(log n) per-node fan-out, and
  trials still decide with agreement across the adversary cells.
* **Adversaries are gossip-aware** — an equivocating leader originates one
  restricted dissemination *per partition* (first hop exactly its target
  group, in order), honest relays leak the conflict across partitions, and
  the observation policy sees through envelopes to flag the view.
"""

from __future__ import annotations

import pytest

from repro.config import ProtocolConfig
from repro.core.leader import leader_of_view
from repro.errors import ConfigError
from repro.harness.registry import ADVERSARIES, MatrixCell, cell_deployment_spec
from repro.harness.trial import DeploymentSpec, run_trial
from repro.net.gossip import (
    GossipDisseminator,
    GossipEnvelope,
    default_fanout,
    default_rounds,
)
from repro.net.network import Network
from repro.net.simulator import Simulator

from .helpers import reference_spec

MAX_TIME = 600.0


class _RecordingNetwork:
    """Just enough of ``Network`` for disseminator unit tests."""

    def __init__(self) -> None:
        self.sent = []  # (src, dst, message)

    def send(self, src, dst, message) -> None:
        self.sent.append((src, dst, message))


def _probft_cells(latency: str = "constant"):
    for adversary in ADVERSARIES:
        cell = MatrixCell(
            protocol="probft",
            adversary=adversary,
            latency=latency,
            n=14,
            f=2,
            track_bytes=True,
        )
        if cell.supported:
            yield cell


def _all_cells(latency: str = "constant"):
    for protocol in ("probft", "pbft", "hotstuff"):
        for adversary in ADVERSARIES:
            cell = MatrixCell(
                protocol=protocol,
                adversary=adversary,
                latency=latency,
                n=14,
                f=2,
                track_bytes=True,
            )
            if cell.supported:
                yield cell


# ----------------------------------------------------------------------
# Defaults and validation
# ----------------------------------------------------------------------


class TestKnobs:
    def test_default_fanout_and_rounds_are_logarithmic(self):
        assert default_fanout(2) == 3
        assert default_fanout(50) == 8  # ceil(log2 50)=6, +2
        assert default_fanout(1024) == 12
        assert default_rounds(50) == 8
        assert default_rounds(5000) == 15  # ceil(log2 5000)=13, +2

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigError):
            GossipDisseminator(_RecordingNetwork(), 50, 0, fanout=0)
        with pytest.raises(ConfigError):
            GossipDisseminator(_RecordingNetwork(), 50, 0, rounds=0)
        from repro.core.protocol import ProBFTDeployment

        with pytest.raises(ValueError):
            ProBFTDeployment(
                ProtocolConfig(n=14, f=2), dissemination="carrier-pigeon"
            )
        # Valid modes construct fine.
        ProBFTDeployment(ProtocolConfig(n=14, f=2), dissemination="gossip")


# ----------------------------------------------------------------------
# Disseminator unit behaviour
# ----------------------------------------------------------------------


class TestDisseminator:
    def test_samples_are_pure_functions_of_seed_key_node_ttl(self):
        net = _RecordingNetwork()
        d1 = GossipDisseminator(net, 100, seed=7)
        d2 = GossipDisseminator(net, 100, seed=7)
        d3 = GossipDisseminator(net, 100, seed=8)
        key = (0, 0)
        assert d1.sample_for(5, key, 3) == d2.sample_for(5, key, 3)
        assert d1.sample_for(5, key, 3) != d1.sample_for(5, key, 2)
        assert d1.sample_for(5, key, 3) != d1.sample_for(6, key, 3)
        assert d1.sample_for(5, key, 3) != d3.sample_for(5, key, 3)
        sample = d1.sample_for(5, key, 3)
        assert len(sample) == d1.fanout
        assert 5 not in sample
        assert len(set(sample)) == len(sample)

    def test_restrict_shapes_first_hop_exactly_and_in_order(self):
        net = _RecordingNetwork()
        d = GossipDisseminator(net, 20, seed=0)
        key = d.disseminate(3, "payload", restrict=[9, 1, 3, 14])
        # Origin excluded, everyone else in the given order.
        assert [(src, dst) for src, dst, _ in net.sent] == [
            (3, 9),
            (3, 1),
            (3, 14),
        ]
        for _, _, env in net.sent:
            assert isinstance(env, GossipEnvelope)
            assert env.key == key
            assert env.payload == "payload"
            assert env.ttl == d.rounds - 1

    def test_distinct_disseminations_get_distinct_keys(self):
        net = _RecordingNetwork()
        d = GossipDisseminator(net, 20, seed=0)
        k1 = d.disseminate(3, "a")
        k2 = d.disseminate(3, "b")
        k3 = d.disseminate(4, "c")
        assert k1 == (3, 0) and k2 == (3, 1) and k3 == (4, 0)

    def test_duplicate_receipt_delivers_but_never_reforwards(self):
        net = _RecordingNetwork()
        d = GossipDisseminator(net, 20, seed=0, fanout=4, rounds=4)
        env = GossipEnvelope(payload="p", key=(0, 0), ttl=2)
        assert d.on_receive(5, env) == "p"
        first = len(net.sent)
        assert first == 4  # relayed once
        assert all(env2.ttl == 1 for _, _, env2 in net.sent)
        assert d.on_receive(5, env) == "p"  # duplicate copy
        assert len(net.sent) == first  # no new sends
        assert d.coverage((0, 0)) == 1

    def test_ttl_zero_and_byzantine_recipients_do_not_relay(self):
        net = _RecordingNetwork()
        d = GossipDisseminator(net, 20, seed=0, byzantine_ids={7})
        d.on_receive(5, GossipEnvelope(payload="p", key=(0, 0), ttl=0))
        d.on_receive(7, GossipEnvelope(payload="p", key=(0, 1), ttl=5))
        assert net.sent == []
        # Both receipts still count as deliveries.
        assert d.coverage((0, 0)) == 1 and d.coverage((0, 1)) == 1

    def test_wrap_handler_unwraps_gossip_and_passes_rest_through(self):
        net = _RecordingNetwork()
        d = GossipDisseminator(net, 20, seed=0)
        seen = []
        deliver = d.wrap_handler(5, lambda src, msg: seen.append((src, msg)))
        deliver(2, GossipEnvelope(payload="inner", key=(2, 0), ttl=0))
        deliver(3, "plain")
        assert seen == [(2, "inner"), (3, "plain")]


# ----------------------------------------------------------------------
# Reachability w.h.p. over a real simulated network
# ----------------------------------------------------------------------


class TestReachability:
    @pytest.mark.parametrize("n", [50, 200])
    def test_default_knobs_reach_every_node(self, n):
        """Seeded disseminations reach all ``n`` nodes under the default
        ``⌈log2 n⌉+2`` fan-out/round budget (w.h.p.; seeds are pinned, so
        this is deterministic in-test)."""
        for seed in range(5):
            sim = Simulator()
            net = Network(sim, n)
            d = GossipDisseminator(net, n, seed=seed)
            for r in range(n):
                net.register(r, d.wrap_handler(r, lambda src, msg: None))
            key = d.disseminate(0, b"proposal")
            sim.run()
            # Every node except possibly the (already-informed) origin must
            # have received a copy; echoes usually cover the origin too.
            assert d.coverage(key) >= n - 1, (n, seed, d.coverage(key))

    def test_per_node_fanout_is_logarithmic_not_linear(self):
        n = 200
        sim = Simulator()
        net = Network(sim, n)
        d = GossipDisseminator(net, n, seed=3)
        sends_by_src = {r: 0 for r in range(n)}
        original_send = net.send

        def counting_send(src, dst, message):
            sends_by_src[src] += 1
            original_send(src, dst, message)

        net.send = counting_send  # type: ignore[method-assign]
        d._network = net
        for r in range(n):
            net.register(r, d.wrap_handler(r, lambda src, msg: None))
        d.disseminate(0, b"proposal")
        sim.run()
        # The dense broadcast this replaces costs the origin n-1 sends; under
        # gossip no node (origin included) exceeds its fan-out budget.
        assert max(sends_by_src.values()) <= d.fanout
        assert sends_by_src[0] == d.fanout


# ----------------------------------------------------------------------
# Gossip-off bit-identity across the harness matrix
# ----------------------------------------------------------------------


class TestGossipOffIdentity:
    def test_round_trip_spec_is_dense_on_every_cell(self):
        """``with_gossip(True).with_gossip(False)`` == never-gossip, as full
        RunResult equality over every protocol x adversary cell."""
        checked = 0
        for cell in _all_cells():
            for seed in (0, 1):
                plain = run_trial(
                    cell_deployment_spec(cell, seed=seed, max_time=MAX_TIME)
                )
                off = run_trial(
                    cell_deployment_spec(cell, seed=seed, max_time=MAX_TIME)
                    .with_gossip(True)
                    .with_gossip(False)
                )
                assert plain == off, (cell.label, seed)
                checked += 1
        assert checked > 0

    def test_explicit_dense_kwarg_equals_omitted(self):
        """Forwarding ``dissemination="dense"`` explicitly changes nothing
        (the spec's only-when-set contract is an optimization, not load-
        bearing semantics)."""
        for cell in _probft_cells():
            spec = cell_deployment_spec(cell, seed=0, max_time=MAX_TIME)
            explicit = run_trial(
                type(spec)(
                    **{
                        **{
                            f: getattr(spec, f)
                            for f in spec.__dataclass_fields__
                        },
                        "extra": spec.extra + (("dissemination", "dense"),),
                    }
                )
            )
            assert run_trial(spec) == explicit, cell.label

    def test_with_gossip_round_trip_fields(self):
        spec = DeploymentSpec(protocol="probft", config=ProtocolConfig(n=14, f=2))
        g = spec.with_gossip(True, fanout=6, rounds=4)
        assert (g.dissemination, g.gossip_fanout, g.gossip_rounds) == (
            "gossip",
            6,
            4,
        )
        back = g.with_gossip(False)
        assert (back.dissemination, back.gossip_fanout, back.gossip_rounds) == (
            "dense",
            None,
            None,
        )
        # Non-destructive.
        assert spec.dissemination == "dense"


# ----------------------------------------------------------------------
# Gossip-on behaviour across adversary cells
# ----------------------------------------------------------------------


class TestGossipOn:
    def test_deterministic_and_safe_on_every_probft_cell(self):
        """Gossip trials are bit-reproducible per seed and keep agreement
        on every adversary cell, on the production stack and the oracle."""
        for cell in _probft_cells():
            for seed in (0, 1):
                first = run_trial(
                    cell_deployment_spec(cell, seed=seed, max_time=MAX_TIME)
                    .with_gossip(True)
                )
                again = run_trial(
                    cell_deployment_spec(cell, seed=seed, max_time=MAX_TIME)
                    .with_gossip(True)
                )
                assert first == again, (cell.label, seed)
                assert first.agreement_ok, (cell.label, seed)
                oracle = run_trial(
                    reference_spec(
                        cell_deployment_spec(
                            cell, seed=seed, max_time=MAX_TIME
                        ).with_gossip(True)
                    )
                )
                assert oracle == first, (cell.label, seed)

    def test_benign_gossip_trial_decides_at_n50(self):
        spec = DeploymentSpec(
            protocol="probft",
            config=ProtocolConfig(n=50, f=9),
            seed=7,
            max_time=300.0,
        ).with_gossip(True)
        result = run_trial(spec)
        assert result.all_decided and result.agreement_ok
        # The proposal travelled as envelopes, not a dense broadcast.
        assert result.messages_by_type.get("GossipEnvelope", 0) > 0
        assert "Propose" not in result.messages_by_type


# ----------------------------------------------------------------------
# Equivocation under gossip
# ----------------------------------------------------------------------


class TestEquivocationUnderGossip:
    def _equivocation_deployment(self, seed: int):
        cell = MatrixCell(
            protocol="probft",
            adversary="equivocation",
            latency="constant",
            n=14,
            f=2,
            track_bytes=False,
        )
        spec = cell_deployment_spec(cell, seed=seed, max_time=MAX_TIME).with_gossip(
            True
        )
        deployment = spec.build()
        deployment.run(max_time=MAX_TIME)
        return deployment

    def test_leader_equivocates_per_dissemination(self):
        """Each conflicting proposal is its own restricted dissemination:
        the leader's origin shows one gossip key per partition."""
        deployment = self._equivocation_deployment(seed=0)
        leader = leader_of_view(1, deployment.config.n)
        leader_keys = {
            seq for (origin, seq) in deployment.disseminator.delivered if origin == leader
        }
        assert leader_keys == {0, 1}

    def test_honest_relays_leak_conflict_across_partitions(self):
        """Under gossip the conflicting proposals escape their partitions:
        both disseminations reach (well) beyond their restricted first hop."""
        deployment = self._equivocation_deployment(seed=0)
        leader = leader_of_view(1, deployment.config.n)
        n = deployment.config.n
        for origin, seq in list(deployment.disseminator.delivered):
            if origin != leader:
                continue
            coverage = deployment.disseminator.coverage((origin, seq))
            # Each optimal-split partition is about half the correct
            # replicas; relays must have carried the proposal further.
            assert coverage > n // 2, (seq, coverage)
        assert deployment.agreement_ok

    def test_policy_flags_view_through_envelopes(self):
        """The observation policy unwraps gossip hops, so the equivocal-view
        flag fires exactly as it does for unicast equivocation."""
        deployment = self._equivocation_deployment(seed=0)
        assert 1 in deployment.network.delivery_policy.equivocal_views
        assert deployment.agreement_ok
