"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.analysis.bounds import binom_tail_ge
from repro.analysis.quorum_probability import prob_quorum_exact
from repro.config import (
    deterministic_quorum_size,
    max_faults,
    probabilistic_quorum_size,
    vrf_sample_size,
)
from repro.core.leader import leader_of_view, mode_values
from repro.crypto.context import CryptoContext
from repro.crypto.hashing import digest, stable_encode
from repro.net.simulator import Simulator
from repro.quorum.probabilistic import QuorumCollector

# One shared context: key generation is deterministic, so reuse is sound.
_CRYPTO = CryptoContext.create(24, master_seed=b"prop")


encodable = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.binary(max_size=32)
    | st.text(max_size=32),
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


class TestEncodingProperties:
    @given(encodable)
    @settings(max_examples=80)
    def test_encoding_is_deterministic(self, value):
        assert stable_encode(value) == stable_encode(value)

    @given(encodable, encodable)
    @settings(max_examples=80)
    def test_digest_injective_on_samples(self, a, b):
        if stable_encode(a) != stable_encode(b):
            assert digest(a) != digest(b)


class TestSignatureProperties:
    @given(st.integers(0, 23), st.binary(min_size=0, max_size=64))
    @settings(max_examples=60)
    def test_sign_verify_roundtrip(self, signer, payload):
        signed = _CRYPTO.signatures.sign(signer, payload)
        assert _CRYPTO.signatures.verify(signed)

    @given(
        st.integers(0, 23),
        st.integers(0, 23),
        st.binary(min_size=1, max_size=32),
    )
    @settings(max_examples=60)
    def test_no_cross_signer_verification(self, signer, claimed, payload):
        from dataclasses import replace

        signed = _CRYPTO.signatures.sign(signer, payload)
        forged = replace(signed, signer=claimed)
        assert _CRYPTO.signatures.verify(forged) == (signer == claimed)


class TestVRFProperties:
    @given(
        st.integers(0, 23),
        st.text(min_size=1, max_size=16),
        st.integers(1, 24),
    )
    @settings(max_examples=80)
    def test_sample_well_formed_and_verifiable(self, replica, seed, s):
        out = _CRYPTO.vrf.prove(replica, seed, s)
        assert len(out.sample) == s
        assert len(set(out.sample)) == s
        assert all(0 <= member < 24 for member in out.sample)
        assert _CRYPTO.vrf.verify(replica, seed, s, out)

    @given(
        st.integers(0, 23),
        st.text(min_size=1, max_size=16),
        st.text(min_size=1, max_size=16),
        st.integers(1, 24),
    )
    @settings(max_examples=60)
    def test_cross_seed_verification_fails(self, replica, seed1, seed2, s):
        out = _CRYPTO.vrf.prove(replica, seed1, s)
        assert _CRYPTO.vrf.verify(replica, seed2, s, out) == (seed1 == seed2)


class TestConfigProperties:
    @given(st.integers(4, 2000))
    def test_max_faults_resilience(self, n):
        f = max_faults(n)
        assert 3 * f < n
        assert 3 * (f + 1) >= n

    @given(st.integers(4, 2000))
    def test_deterministic_quorum_intersection(self, n):
        """Any two deterministic quorums intersect in > f replicas' worth,
        guaranteeing a correct replica in the intersection."""
        f = max_faults(n)
        quorum = deterministic_quorum_size(n, f)
        assert 2 * quorum - n >= f + 1

    @given(st.integers(4, 2000), st.floats(1.0, 4.0))
    def test_probabilistic_quorum_bounds(self, n, l):
        q = probabilistic_quorum_size(n, l)
        assert 1 <= q
        assert q >= l * math.sqrt(n) - 1
        assert q <= l * math.sqrt(n) + 1

    @given(st.integers(4, 2000), st.floats(1.0, 4.0), st.floats(1.0, 3.0))
    def test_sample_size_never_exceeds_n(self, n, l, o):
        q = probabilistic_quorum_size(n, l)
        assert 1 <= vrf_sample_size(n, q, o) <= n


class TestLeaderProperties:
    @given(st.integers(1, 10_000), st.integers(4, 100))
    def test_leader_in_range(self, view, n):
        assert 0 <= leader_of_view(view, n) < n

    @given(st.integers(1, 1000), st.integers(4, 100))
    def test_rotation_periodic(self, view, n):
        assert leader_of_view(view, n) == leader_of_view(view + n, n)

    @given(st.lists(st.binary(min_size=1, max_size=4), min_size=1, max_size=30))
    def test_mode_values_are_actual_modes(self, values):
        modes = mode_values(values)
        counts = {v: values.count(v) for v in set(values)}
        top = max(counts.values())
        assert modes == frozenset(v for v, c in counts.items() if c == top)


class TestCollectorProperties:
    @given(
        st.integers(1, 10),
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 5)),
            max_size=60,
        ),
    )
    def test_fires_exactly_once_at_threshold(self, threshold, events):
        collector = QuorumCollector(threshold)
        fires = 0
        for sender, key in events:
            if collector.add(key, sender, (sender, key)):
                fires += 1
        for key in set(k for _s, k in events):
            distinct = len({s for s, k in events if k == key})
            assert collector.count(key) == distinct
            assert collector.has_quorum(key) == (distinct >= threshold)
        assert fires == sum(
            1
            for key in set(k for _s, k in events)
            if len({s for s, k in events if k == key}) >= threshold
        )


class TestSimulatorProperties:
    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40))
    @settings(suppress_health_check=[HealthCheck.too_slow])
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class TestAnalysisProperties:
    @given(
        st.integers(10, 400),
        st.integers(1, 120),
        st.integers(1, 50),
    )
    @settings(max_examples=60)
    def test_exact_quorum_prob_monotone_in_r(self, n, r, q):
        s = min(n, 2 * q)
        p1 = prob_quorum_exact(n, r, s, q)
        p2 = prob_quorum_exact(n, r + 10, s, q)
        assert p2 >= p1 - 1e-12

    @given(st.integers(1, 300), st.floats(0.01, 0.99), st.integers(0, 300))
    @settings(max_examples=60)
    def test_binom_tails_complementary(self, r, p, k):
        total = float(stats.binom.cdf(k - 1, r, p)) + binom_tail_ge(r, p, k)
        assert math.isclose(total, 1.0, rel_tol=1e-9)
