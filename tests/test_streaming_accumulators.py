"""Property-based tests for the streaming accumulators.

The constant-memory sweeps rest on claims about what one accumulator
computes from one stream of observations:

* **matches batch** — :class:`Welford`, :class:`StreamingProportion`,
  :class:`LatencyAccumulator` and :class:`CellAccumulator` report what the
  batch helpers (``mean``/``stddev``/``wilson_interval``/numpy percentiles)
  compute from the materialized list, the means bit for bit;
* **order-invariance** — the count-like state (counts, success tallies,
  hence proportions and Wilson intervals) does not depend on arrival order;
  float sums do not either whenever the observations are exactly
  representable (the booleans/counts our cells produce);
* **stability** — Welford's variance survives a mean that dwarfs the spread;
* **bounded and monotone** — a percentile lies in ``[min, max]`` of its
  inputs and never decreases as ``q`` grows.

Each property is checked with hypothesis when it is installed and through
seeded randomized sweeps otherwise (CI installs only requirements.txt, so
the seeded path is the floor).
"""

from __future__ import annotations

import math
import random
import statistics

import numpy as np
import pytest

from repro.harness.metrics import (
    LatencyAccumulator,
    StreamingProportion,
    Welford,
    mean,
    percentile,
    stddev,
    wilson_interval,
)
from repro.harness.registry import CellAccumulator, MatrixCell

try:
    from hypothesis import example, given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment dependent
    HAVE_HYPOTHESIS = False

CELL = MatrixCell(
    protocol="probft", adversary="silent", latency="constant", n=8, f=2
)

#: Seeded fallback sweep size (hypothesis drives its own example count).
FALLBACK_CASES = 200

#: Hypothesis's shrunk counterexample to interpolating as ``a·(1−t) + b·t``:
#: the p99 of these five values came out one ulp above the two equal top
#: values.  Both drivers replay it.
EQUAL_NEIGHBOURS = [0.0, 0.0, 0.0, 54.12587188073598, 54.12587188073598]

#: Every half percent, plus the serving tail's 99.9.
PERCENTILE_GRID = sorted({i / 2 for i in range(201)} | {99.9})


# ----------------------------------------------------------------------
# Shared property checks (both drivers funnel through these)
# ----------------------------------------------------------------------


def shuffled(values, order):
    return [values[i] for i in order]


def check_welford_matches_batch(values):
    acc = Welford().extend(values)
    assert acc.count == len(values)
    if not values:
        assert math.isnan(acc.mean)
        assert acc.variance == 0.0
        return
    # Same left-fold summation: bit-identical, not merely close.
    assert acc.mean == mean(values)
    assert acc.stddev == pytest.approx(stddev(values), rel=1e-6, abs=1e-6)


def check_welford_variance_matches_two_pass(values):
    acc = Welford().extend(values)
    expected = statistics.variance(values) if len(values) >= 2 else 0.0
    assert acc.variance == pytest.approx(expected, rel=1e-6, abs=1e-6)
    assert acc.variance >= 0.0


def check_welford_reorder_counts(values, order):
    """Count-like state is permutation-invariant; on exactly-representable
    values the float sums commute exactly too."""
    forward = Welford().extend(values)
    reordered = Welford().extend(shuffled(values, order))
    assert reordered.count == forward.count
    if all(float(v).is_integer() for v in values):
        assert reordered.total == forward.total
        assert reordered.variance == pytest.approx(
            forward.variance, rel=1e-9, abs=1e-9
        )


def check_welford_shift_invariant(values, offset):
    """Adding a constant that dwarfs the spread leaves the variance put."""
    base = Welford().extend(values)
    moved = Welford().extend([v + offset for v in values])
    assert moved.variance == pytest.approx(base.variance, rel=1e-6, abs=1e-6)


def proportion_of(outcomes) -> StreamingProportion:
    acc = StreamingProportion()
    for outcome in outcomes:
        acc.add(outcome)
    return acc


def check_proportion_matches_batch(outcomes):
    acc = proportion_of(outcomes)
    successes = sum(bool(o) for o in outcomes)
    assert (acc.successes, acc.trials) == (successes, len(outcomes))
    assert acc.interval == wilson_interval(successes, len(outcomes))
    low, high = acc.interval
    assert 0.0 <= low <= high <= 1.0
    assert acc.interval_width == high - low
    if outcomes:
        assert low <= acc.point <= high
        assert (low == 0.0) == (successes == 0)
        assert (high == 1.0) == (successes == len(outcomes))
    else:
        assert acc.interval == (0.0, 1.0)


def check_proportion_reorder(outcomes, order):
    forward = proportion_of(outcomes)
    reordered = proportion_of(shuffled(outcomes, order))
    assert (reordered.successes, reordered.trials) == (
        forward.successes,
        forward.trials,
    )
    assert reordered.interval == forward.interval


def check_latency_matches_numpy(observations):
    """``None`` counts as incomplete; the rest form the distribution."""
    acc = LatencyAccumulator().extend(observations)
    done = [v for v in observations if v is not None]
    assert acc.completed == len(done)
    assert acc.incomplete == len(observations) - len(done)
    assert acc.total == len(observations)
    if not done:
        assert acc.mean is None
        assert (acc.p50, acc.p99, acc.p999) == (None, None, None)
        return
    assert acc.mean == sum(done) / len(done)
    for got, q in ((acc.p50, 50), (acc.p99, 99), (acc.p999, 99.9)):
        assert got == pytest.approx(float(np.percentile(done, q)), rel=1e-9, abs=1e-9)
        assert min(done) <= got <= max(done)


def check_percentile_bounded_monotone(values):
    """Inside ``[min, max]`` for every q, and non-decreasing in q."""
    if not values:
        assert percentile(values, 50) is None
        return
    got = [percentile(values, q) for q in PERCENTILE_GRID]
    assert all(min(values) <= value <= max(values) for value in got), got
    assert got == sorted(got)
    assert (got[0], got[-1]) == (min(values), max(values))


def check_latency_reorder(observations, order):
    forward = LatencyAccumulator().extend(observations)
    reordered = LatencyAccumulator().extend(shuffled(observations, order))
    # Integer-valued latencies: the mean's float sum commutes exactly.
    assert reordered.summary() == forward.summary()


def make_row(rng: random.Random) -> dict:
    """A synthetic trial row with exactly-representable observations — the
    same shape ``run_matrix_cell`` emits (decide ratios are kept 0/1 so the
    float sums are exact, as in real constant-latency cells)."""
    n_correct = rng.randint(1, 8)
    decided = rng.choice([0, n_correct])
    return {
        "decided": decided,
        "n_correct": n_correct,
        "all_decided": decided == n_correct,
        "agreement_ok": rng.random() < 0.8,
        "max_view": rng.randint(1, 5),
        "last_decision_time": float(rng.randint(0, 64)),
        "total_messages": rng.randint(0, 512),
        "total_bytes": rng.randint(0, 4096),
    }


def cell_acc_of(rows) -> CellAccumulator:
    acc = CellAccumulator(CELL)
    for row in rows:
        acc.add(row)
    return acc


def check_cell_matches_rows(rows):
    acc = cell_acc_of(rows)
    assert acc.trials == len(rows)
    if not rows:
        assert acc.width() == 1.0
        return
    summary = acc.summary()
    agreed = sum(bool(r["agreement_ok"]) for r in rows)
    low, high = wilson_interval(agreed, len(rows))
    assert summary["trials"] == len(rows)
    assert summary["decide_rate"] == round(
        mean([r["decided"] / r["n_correct"] for r in rows]), 4
    )
    assert summary["agreement_rate"] == mean(
        [1.0 if r["agreement_ok"] else 0.0 for r in rows]
    )
    assert (summary["agreement_ci_low"], summary["agreement_ci_high"]) == (
        round(low, 4),
        round(high, 4),
    )
    assert acc.width() == high - low
    assert summary["mean_max_view"] == mean([float(r["max_view"]) for r in rows])
    assert summary["mean_messages"] == round(
        mean([float(r["total_messages"]) for r in rows]), 1
    )
    assert summary["mean_bytes"] == round(
        mean([float(r["total_bytes"]) for r in rows]), 1
    )


def check_cell_reorder(rows, order):
    forward = cell_acc_of(rows)
    reordered = cell_acc_of(shuffled(rows, order))
    assert reordered.trials == forward.trials
    if rows:
        # Exactly-representable observations: the whole summary (rounded
        # rates, Wilson interval, cost columns) matches bit-for-bit.
        assert reordered.summary() == forward.summary()


def permutation(rng: random.Random, length: int):
    order = list(range(length))
    rng.shuffle(order)
    return order


# ----------------------------------------------------------------------
# Seeded randomized driver (always runs; the CI floor)
# ----------------------------------------------------------------------


class TestSeededRandomized:
    def test_welford_matches_batch(self):
        rng = random.Random(0xA1)
        for _ in range(FALLBACK_CASES):
            values = [rng.uniform(-1e6, 1e6) for _ in range(rng.randint(0, 48))]
            check_welford_matches_batch(values)

    def test_welford_variance_matches_two_pass(self):
        rng = random.Random(0xA2)
        for _ in range(FALLBACK_CASES):
            values = [rng.gauss(0.0, 100.0) for _ in range(rng.randint(0, 48))]
            check_welford_variance_matches_two_pass(values)

    def test_welford_reorder_commutes_on_counts(self):
        rng = random.Random(0xA4)
        for _ in range(FALLBACK_CASES):
            values = [float(rng.randint(0, 10)) for _ in range(rng.randint(0, 36))]
            check_welford_reorder_counts(values, permutation(rng, len(values)))

    def test_welford_shift_invariant_variance(self):
        rng = random.Random(0xA5)
        for _ in range(FALLBACK_CASES):
            values = [float(rng.randint(-100, 100)) for _ in range(rng.randint(0, 36))]
            check_welford_shift_invariant(values, float(rng.randint(1, 10**9)))

    def test_proportion_matches_batch(self):
        rng = random.Random(0xB1)
        for _ in range(FALLBACK_CASES):
            p = rng.choice([0.0, 0.3, 1.0])
            outcomes = [rng.random() < p for _ in range(rng.randint(0, 64))]
            check_proportion_matches_batch(outcomes)

    def test_proportion_reorder_commutes(self):
        rng = random.Random(0xB2)
        for _ in range(FALLBACK_CASES):
            outcomes = [rng.random() < 0.7 for _ in range(rng.randint(0, 64))]
            check_proportion_reorder(outcomes, permutation(rng, len(outcomes)))

    def test_latency_matches_numpy(self):
        rng = random.Random(0xD1)
        for _ in range(FALLBACK_CASES):
            observations = [
                None if rng.random() < 0.2 else rng.uniform(0.0, 500.0)
                for _ in range(rng.randint(0, 48))
            ]
            check_latency_matches_numpy(observations)
        check_latency_matches_numpy(EQUAL_NEIGHBOURS)

    def test_percentile_bounded_and_monotone(self):
        rng = random.Random(0xD3)
        check_percentile_bounded_monotone(EQUAL_NEIGHBOURS)
        for _ in range(FALLBACK_CASES):
            # Few distinct values, so equal neighbours are the common case.
            pool = [rng.uniform(0.0, 500.0) for _ in range(3)] + [0.0]
            values = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
            check_percentile_bounded_monotone(values)

    def test_latency_reorder_commutes(self):
        rng = random.Random(0xD2)
        for _ in range(FALLBACK_CASES):
            observations = [
                None if rng.random() < 0.2 else float(rng.randint(0, 500))
                for _ in range(rng.randint(0, 48))
            ]
            check_latency_reorder(observations, permutation(rng, len(observations)))

    def test_cell_accumulator_matches_rows(self):
        rng = random.Random(0xC1)
        for _ in range(60):
            rows = [make_row(rng) for _ in range(rng.randint(0, 24))]
            check_cell_matches_rows(rows)

    def test_cell_accumulator_reorder_commutes(self):
        rng = random.Random(0xC2)
        for _ in range(60):
            rows = [make_row(rng) for _ in range(rng.randint(0, 24))]
            check_cell_reorder(rows, permutation(rng, len(rows)))


# ----------------------------------------------------------------------
# Hypothesis driver (richer search when the library is available)
# ----------------------------------------------------------------------

if HAVE_HYPOTHESIS:
    int_values = st.lists(
        st.integers(-100, 100).map(float), min_size=0, max_size=48
    )
    float_values = st.lists(
        st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
        min_size=0,
        max_size=48,
    )
    outcome_lists = st.lists(st.booleans(), min_size=0, max_size=64)
    latency_lists = st.lists(
        st.one_of(
            st.none(),
            st.floats(
                min_value=0.0, max_value=500.0, allow_nan=False, allow_infinity=False
            ),
        ),
        min_size=0,
        max_size=48,
    )
    integer_latency_lists = st.lists(
        st.one_of(st.none(), st.integers(0, 500).map(float)),
        min_size=0,
        max_size=48,
    )

    def order_for(data, length):
        return data.draw(st.permutations(list(range(length))))

    class TestHypothesis:
        @settings(max_examples=120, deadline=None)
        @given(values=float_values)
        def test_welford_matches_batch(self, values):
            check_welford_matches_batch(values)

        @settings(max_examples=120, deadline=None)
        @given(values=float_values)
        def test_welford_variance_matches_two_pass(self, values):
            check_welford_variance_matches_two_pass(values)

        @settings(max_examples=120, deadline=None)
        @given(values=int_values, data=st.data())
        def test_welford_reorder_commutes_on_counts(self, values, data):
            check_welford_reorder_counts(values, order_for(data, len(values)))

        @settings(max_examples=120, deadline=None)
        @given(values=int_values, offset=st.integers(1, 10**9).map(float))
        def test_welford_shift_invariant_variance(self, values, offset):
            check_welford_shift_invariant(values, offset)

        @settings(max_examples=120, deadline=None)
        @given(outcomes=outcome_lists)
        def test_proportion_matches_batch(self, outcomes):
            check_proportion_matches_batch(outcomes)

        @settings(max_examples=120, deadline=None)
        @given(outcomes=outcome_lists, data=st.data())
        def test_proportion_reorder_commutes(self, outcomes, data):
            check_proportion_reorder(outcomes, order_for(data, len(outcomes)))

        @settings(max_examples=120, deadline=None)
        @given(observations=latency_lists)
        @example(observations=EQUAL_NEIGHBOURS)
        def test_latency_matches_numpy(self, observations):
            check_latency_matches_numpy(observations)

        @settings(max_examples=120, deadline=None)
        @given(
            values=st.lists(
                st.floats(
                    min_value=0.0,
                    max_value=500.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                min_size=0,
                max_size=12,
            )
        )
        @example(values=EQUAL_NEIGHBOURS)
        def test_percentile_bounded_and_monotone(self, values):
            check_percentile_bounded_monotone(values)

        @settings(max_examples=120, deadline=None)
        @given(observations=integer_latency_lists, data=st.data())
        def test_latency_reorder_commutes(self, observations, data):
            check_latency_reorder(
                observations, order_for(data, len(observations))
            )

        @settings(max_examples=40, deadline=None)
        @given(seed=st.integers(0, 2**32 - 1), data=st.data())
        def test_cell_accumulator_matches_rows(self, seed, data):
            rng = random.Random(seed)
            rows = [make_row(rng) for _ in range(data.draw(st.integers(0, 24)))]
            check_cell_matches_rows(rows)

        @settings(max_examples=40, deadline=None)
        @given(seed=st.integers(0, 2**32 - 1), data=st.data())
        def test_cell_accumulator_reorder_commutes(self, seed, data):
            rng = random.Random(seed)
            rows = [make_row(rng) for _ in range(data.draw(st.integers(0, 24)))]
            check_cell_reorder(rows, order_for(data, len(rows)))
