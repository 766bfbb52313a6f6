"""Tests for the experiment harness (trials, metrics)."""

import math

import pytest

from repro.config import ProtocolConfig
from repro.harness.metrics import (
    LatencyAccumulator,
    StreamingProportion,
    mean,
    percentile,
    stddev,
    wilson_interval,
)
from repro.harness.trial import DeploymentSpec, run_trial

from .helpers import good_case


class TestMetrics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert math.isnan(mean([]))

    def test_stddev(self):
        assert stddev([2.0, 4.0]) == pytest.approx(math.sqrt(2.0))
        assert stddev([5.0]) == 0.0

    def test_wilson_interval_contains_point(self):
        low, high = wilson_interval(80, 100)
        assert low < 0.8 < high
        assert 0.0 <= low and high <= 1.0

    def test_wilson_interval_extremes(self):
        """All-failure/all-success endpoints are pinned *exactly* — not
        clamped within an epsilon — so stopping rules can trust them."""
        low, high = wilson_interval(0, 50)
        assert low == 0.0 and high > 0.0
        low, high = wilson_interval(50, 50)
        assert high == 1.0 and low < 1.0
        for trials in (1, 3, 73, 10_000):
            assert wilson_interval(trials, trials)[1] == 1.0
            assert wilson_interval(0, trials)[0] == 0.0

    def test_wilson_zero_trials_is_unit_interval(self):
        """No data means no information: the degenerate cell yields the
        full (0, 1) interval instead of a ZeroDivisionError/ValueError."""
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_wilson_narrows_with_trials(self):
        w1 = wilson_interval(8, 10)
        w2 = wilson_interval(800, 1000)
        assert (w2[1] - w2[0]) < (w1[1] - w1[0])

    def test_wilson_invalid(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)  # successes out of range for zero trials
        with pytest.raises(ValueError):
            wilson_interval(11, 10)
        with pytest.raises(ValueError):
            wilson_interval(0, -1)

    def test_streaming_proportion(self):
        proportion = StreamingProportion()
        for trial in range(100):
            proportion.add(trial < 90)
        assert proportion.point == pytest.approx(0.9)
        low, high = proportion.interval
        assert low < 0.9 < high
        assert not low <= 0.2 <= high

    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)
        assert percentile([7.0], 99) == 7.0

    def test_percentile_order_insensitive(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_percentile_empty_is_none(self):
        """Regression companion to the mean-latency NaN fix: no data is an
        explicit None, never NaN."""
        assert percentile([], 50) is None

    def test_percentile_invalid_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], -1)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_latency_accumulator(self):
        acc = LatencyAccumulator()
        acc.extend([3.0, 1.0, 2.0])
        acc.add(None)  # an incomplete request
        assert acc.completed == 3
        assert acc.total == 4
        assert acc.mean == pytest.approx(2.0)
        assert acc.p50 == 2.0
        summary = acc.summary()
        assert summary["completed"] == 3
        assert summary["incomplete"] == 1
        assert summary["p99_latency"] == acc.p99

    def test_latency_accumulator_empty(self):
        acc = LatencyAccumulator()
        assert acc.mean is None
        assert acc.p50 is None and acc.p99 is None and acc.p999 is None
        assert acc.summary()["mean_latency"] is None


class TestRunners:
    def test_probft_trial_result_fields(self):
        result = run_trial(
            DeploymentSpec("probft", ProtocolConfig(n=10, f=2), max_time=500)
        )
        assert result.protocol == "probft"
        assert result.all_decided
        assert result.agreement_ok
        assert result.decided == result.n_correct == 10
        assert result.max_view == 1
        assert result.decision_views == (1,)
        assert result.total_messages > 0

    def test_protocol_messages_excludes_wishes(self):
        from repro.sync.timeouts import FixedTimeout
        from repro.adversary.behaviors import silent_factory

        result = run_trial(
            DeploymentSpec(
                "probft",
                ProtocolConfig(n=10, f=2),
                timeout_policy=FixedTimeout(20.0),
                byzantine={0: silent_factory()},
                max_time=2000,
            )
        )
        assert result.messages_by_type.get("Wish", 0) > 0
        assert (
            result.protocol_messages
            == result.total_messages - result.messages_by_type["Wish"]
        )

    def test_all_three_protocols_agree_on_interface(self):
        cfg = ProtocolConfig(n=10, f=2)
        for protocol in ("probft", "pbft", "hotstuff"):
            result = run_trial(DeploymentSpec(protocol, cfg, max_time=500))
            assert result.all_decided and result.agreement_ok

    def test_good_case_steps(self):
        assert good_case("probft", 10, 2).steps == pytest.approx(3.0)
        assert good_case("pbft", 10, 2).steps == pytest.approx(3.0)
        assert good_case("hotstuff", 10, 2).steps == pytest.approx(8.0)

    def test_unknown_protocol(self):
        with pytest.raises(KeyError):
            good_case("paxos", 10, 2)
