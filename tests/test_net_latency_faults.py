"""Tests for latency models and chaos policies."""

import copy

import pytest

from repro.net.faults import ChaosPolicy, ComposedChaos, NoChaos, Partition, PreGstChaos
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

    def test_delays_are_the_seeded_uniform_stream(self):
        """The fan-out draw is ``Random.uniform`` written out: the same
        floats, bit for bit, in target order, as the library call on the
        same seeded stream (an array of ids or a list alike)."""
        import random
        from array import array

        model = UniformLatency(0.3, 1.7, seed=9)
        rng = random.Random("uniform-latency:9")
        for targets in (list(range(2000)), array("H", range(700))):
            expected = [rng.uniform(0.3, 1.7) for _ in targets]
            delays = model.delays(0, targets)
            assert type(delays) is list and delays == expected
        assert model.delay(0, 1) == rng.uniform(0.3, 1.7)
        assert model.delays(0, []) == []

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
        delays = model.delays(0, targets)
        assert type(delays) is list and delays == expected
        assert 4.0 in delays  # (the cap's comparison is reached)
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


class TestSeededCopies:
    """A deep copy of a seeded model (what ``DeploymentSpec.build`` hands a
    deployment) is restored from its generator's state: it draws the
    original's stream from where the original stands, on its own."""

    MODELS = {
        "uniform": lambda: UniformLatency(0.5, 1.5, seed=4),
        "exponential": lambda: ExponentialLatency(mean=1.0, cap=5.0, seed=4),
        "pre-gst-chaos": lambda: PreGstChaos(max_extra=20.0, seed=4),
        "composed": lambda: ComposedChaos(
            [PreGstChaos(max_extra=20.0, seed=4), Partition([0], heal_time=5.0)]
        ),
    }

    @staticmethod
    def _draws(model, k):
        if isinstance(model, ChaosPolicy):
            return [model.extra_delay(1.0, 10.0, 0, 1) for _ in range(k)]
        return [model.delay(0, 1) for _ in range(k)] + model.delays(0, range(k))

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_a_copy_draws_the_original_stream(self, name):
        original = self.MODELS[name]()
        self._draws(original, 7)  # mid-stream
        clone = copy.deepcopy(original)
        assert type(clone) is type(original) and clone is not original
        assert self._draws(clone, 50) == self._draws(original, 50)
        # Independent streams: drawing from one leaves the other where it was.
        ahead = self._draws(clone, 5)
        assert self._draws(original, 5) == ahead

    def test_a_model_met_twice_is_copied_once(self):
        """One seeded model reached twice in what is copied (a policy listed
        twice, a model two owners share) becomes one clone: ``copy.deepcopy``
        files what ``__deepcopy__`` returns in its memo.  Both places draw
        from one stream, and the copy draws what the original draws."""
        chaos = PreGstChaos(max_extra=20.0, seed=4)
        latency = ExponentialLatency(mean=1.0, cap=5.0, seed=4)
        original = {"chaos": ComposedChaos([chaos, chaos]), "latency": latency, "again": latency}
        clone = copy.deepcopy(original)
        twice = clone["chaos"]._policies
        assert twice[0] is twice[1] is not chaos
        assert clone["latency"] is clone["again"] is not latency
        assert self._draws(clone["chaos"], 50) == self._draws(original["chaos"], 50)
        assert self._draws(clone["latency"], 20) == self._draws(original["latency"], 20)
