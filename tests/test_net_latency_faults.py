"""Tests for latency models and chaos policies."""

import pytest

from repro.net.faults import ComposedChaos, NoChaos, Partition, PreGstChaos
from repro.net.latency import ConstantLatency, ExponentialLatency, UniformLatency


class TestConstantLatency:
    def test_constant(self):
        model = ConstantLatency(2.5)
        assert model.delay(0, 1) == 2.5
        assert model.max_delay == 2.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantLatency(0.0)


class TestUniformLatency:
    def test_bounds_respected(self):
        model = UniformLatency(0.5, 1.5, seed=1)
        for _ in range(500):
            d = model.delay(0, 1)
            assert 0.5 <= d <= 1.5
        assert model.max_delay == 1.5

    def test_deterministic_per_seed(self):
        a = UniformLatency(0.5, 1.5, seed=7)
        b = UniformLatency(0.5, 1.5, seed=7)
        assert [a.delay(0, 1) for _ in range(10)] == [
            b.delay(0, 1) for _ in range(10)
        ]

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            UniformLatency(2.0, 1.0)
        with pytest.raises(ValueError):
            UniformLatency(0.0, 1.0)


class TestExponentialLatency:
    def test_truncated_at_cap(self):
        model = ExponentialLatency(mean=1.0, cap=3.0, seed=2)
        for _ in range(1000):
            assert 0 < model.delay(0, 1) <= 3.0
        assert model.max_delay == 3.0

    def test_default_cap(self):
        assert ExponentialLatency(mean=2.0).max_delay == 20.0

    def test_delays_are_the_seeded_expovariate_stream(self):
        """The fan-out draw is ``expovariate`` written out: the same floats,
        bit for bit, as the library call on the same seeded stream."""
        import random

        model = ExponentialLatency(mean=1.5, cap=4.0, seed=9)
        rng = random.Random("exponential-latency:9")
        targets = list(range(2000))
        expected = [min(max(rng.expovariate(1 / 1.5), 1e-9), 4.0) for _ in targets]
        groups = model.delays(0, targets)
        assert [delay for delay, _ in groups] == expected
        assert [group for _, group in groups] == [(t,) for t in targets]
        assert model.delay(0, 1) == min(max(rng.expovariate(1 / 1.5), 1e-9), 4.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ExponentialLatency(mean=0.0)
        with pytest.raises(ValueError):
            ExponentialLatency(mean=5.0, cap=1.0)


class TestChaosPolicies:
    def test_no_chaos(self):
        assert NoChaos().extra_delay(0.0, 100.0, 0, 1) == 0.0

    def test_pre_gst_chaos_only_before_gst(self):
        chaos = PreGstChaos(max_extra=50.0, seed=3)
        assert chaos.extra_delay(150.0, 100.0, 0, 1) == 0.0
        pre = [chaos.extra_delay(10.0, 100.0, 0, 1) for _ in range(200)]
        assert all(0 <= d <= 50.0 for d in pre)
        assert max(pre) > 10.0  # actually produces adversity

    def test_pre_gst_chaos_rejects_negative(self):
        with pytest.raises(ValueError):
            PreGstChaos(max_extra=-1.0)

    def test_partition_delays_cross_traffic(self):
        part = Partition(group_a=[0, 1], heal_time=50.0)
        assert part.crosses(0, 2)
        assert not part.crosses(0, 1)
        assert part.extra_delay(10.0, 0.0, 0, 2) == 40.0
        assert part.extra_delay(10.0, 0.0, 0, 1) == 0.0
        assert part.extra_delay(60.0, 0.0, 0, 2) == 0.0

    def test_composed_chaos_sums(self):
        part = Partition(group_a=[0], heal_time=20.0)
        combo = ComposedChaos([part, NoChaos()])
        assert combo.extra_delay(5.0, 0.0, 0, 1) == 15.0
