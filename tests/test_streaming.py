"""Tests for streaming aggregation: accumulators, engine.stream, run_matrix.

The refactor's guarantee: the streamed (constant-memory) path produces
**identical** estimates to the materialized-rows path on golden seeds — the
running mean is the same left-fold summation ``sum/len`` performs, so this
is exact equality, not approximation.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.harness.metrics import (
    StreamingProportion,
    Welford,
    mean,
    stddev,
    wilson_interval,
)
from repro.harness.parallel import (
    ExperimentEngine,
    TrialError,
    TrialSpec,
    derive_seed,
)
from repro.harness.registry import (
    CellAccumulator,
    get_matrix,
    run_matrix,
    run_matrix_cell,
)

from .helpers import seeded_specs


def stream_probe(spec: TrialSpec) -> float:
    """Module-level (picklable) seed-driven trial."""
    return float(random.Random(spec.seed).random())


def stream_crash_on_two(spec: TrialSpec) -> int:
    if spec.index == 2:
        raise ValueError("boom")
    return spec.index


class TestWelford:
    def test_mean_bit_identical_to_batch(self):
        rng = random.Random(3)
        values = [rng.uniform(-1e6, 1e6) for _ in range(997)]
        accumulator = Welford().extend(values)
        assert accumulator.mean == mean(values)  # exact, not approx
        assert accumulator.count == len(values)

    def test_variance_matches_batch_stddev(self):
        rng = random.Random(4)
        values = [rng.gauss(50.0, 7.0) for _ in range(500)]
        accumulator = Welford().extend(values)
        assert accumulator.stddev == pytest.approx(stddev(values), rel=1e-10)

    def test_empty_and_single(self):
        empty = Welford()
        assert math.isnan(empty.mean)
        assert empty.variance == 0.0 and empty.stderr == 0.0
        low, high = empty.ci()
        assert math.isnan(low) and math.isnan(high)
        single = Welford().extend([5.0])
        assert single.mean == 5.0
        assert single.variance == 0.0

    def test_ci_shrinks_with_samples(self):
        rng = random.Random(5)
        small = Welford().extend(rng.gauss(0, 1) for _ in range(20))
        rng = random.Random(5)
        large = Welford().extend(rng.gauss(0, 1) for _ in range(2000))
        assert (large.ci()[1] - large.ci()[0]) < (small.ci()[1] - small.ci()[0])

    def test_nan_poisons_like_batch(self):
        values = [1.0, float("nan"), 3.0]
        assert math.isnan(Welford().extend(values).mean)
        assert math.isnan(mean(values))

    def test_numerical_stability_large_offset(self):
        # Naive sum-of-squares catastrophically cancels here; Welford's M2
        # recurrence must not.
        values = [1e9 + x for x in (4.0, 7.0, 13.0, 16.0)]
        accumulator = Welford().extend(values)
        assert accumulator.variance == pytest.approx(30.0, rel=1e-6)


class TestStreamingProportion:
    def test_matches_batch_counts(self):
        outcomes = [True, True, False, True, False, False, True]
        streaming = StreamingProportion()
        for outcome in outcomes:
            streaming.add(outcome)
        assert streaming.point == sum(outcomes) / len(outcomes)
        assert streaming.interval == wilson_interval(sum(outcomes), len(outcomes))

    def test_empty(self):
        assert math.isnan(StreamingProportion().point)


class TestEngineStream:
    def test_stream_equals_map_serial(self):
        engine = ExperimentEngine(workers=0)
        specs = [
            TrialSpec(index=i, seed=derive_seed(11, i)) for i in range(25)
        ]
        assert list(engine.stream(stream_probe, specs)) == engine.map(
            stream_probe, specs
        )

    def test_stream_equals_map_parallel(self):
        specs = [
            TrialSpec(index=i, seed=derive_seed(11, i)) for i in range(25)
        ]
        with ExperimentEngine(workers=2) as engine:
            streamed = list(engine.stream(stream_probe, specs))
        serial = ExperimentEngine(workers=0).map(stream_probe, specs)
        assert streamed == serial

    def test_seeded_stream_matches_map(self):
        engine = ExperimentEngine(workers=0)
        specs = seeded_specs(10, master_seed=4)
        assert list(engine.stream(stream_probe, specs)) == engine.map(
            stream_probe, specs
        )

    def test_serial_stream_is_lazy(self):
        engine = ExperimentEngine(workers=0)
        seen = []

        def recording(spec: TrialSpec) -> int:
            seen.append(spec.index)
            return spec.index

        iterator = engine.stream(
            recording, (TrialSpec(index=i, seed=i) for i in range(5))
        )
        assert seen == []  # nothing ran yet
        assert next(iterator) == 0
        assert seen == [0]  # only the pulled trial ran

    @pytest.mark.parametrize("workers", [0, 2])
    def test_stream_raises_trial_error(self, workers):
        with ExperimentEngine(workers=workers) as engine:
            specs = [TrialSpec(index=i, seed=i) for i in range(5)]
            with pytest.raises(TrialError) as info:
                list(engine.stream(stream_crash_on_two, specs))
            assert info.value.index == 2

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            ExperimentEngine().stream(stream_probe, seeded_specs(3), window=0)


class TestStreamedMatrixEquivalence:
    """Streamed per-cell estimates == materialized-rows path, golden seeds."""

    def _materialized_rows(self, matrix, trials, master_seed, max_time=5000.0):
        """The pre-refactor path: map everything, then aggregate with
        batch ``mean`` over materialized row lists."""
        cells = matrix.cells(supported_only=True)
        specs = [
            TrialSpec(
                index=i,
                seed=derive_seed(master_seed, i),
                params=(cell, max_time),
            )
            for i, cell in enumerate(c for c in cells for _ in range(trials))
        ]
        results = ExperimentEngine(workers=0).map(run_matrix_cell, specs)
        rows = []
        for k, cell in enumerate(cells):
            chunk = results[k * trials : (k + 1) * trials]
            rows.append(
                {
                    "protocol": cell.protocol,
                    "adversary": cell.adversary,
                    "latency": cell.latency,
                    "trials": trials,
                    "decide_rate": round(
                        mean([r["decided"] / r["n_correct"] for r in chunk]), 4
                    ),
                    "agreement_rate": mean(
                        [1.0 if r["agreement_ok"] else 0.0 for r in chunk]
                    ),
                    "mean_max_view": mean(
                        [float(r["max_view"]) for r in chunk]
                    ),
                    "mean_decision_time": round(
                        mean([r["last_decision_time"] for r in chunk]), 3
                    ),
                    "mean_messages": round(
                        mean([float(r["total_messages"]) for r in chunk]), 1
                    ),
                }
            )
        return rows

    @pytest.mark.parametrize("master_seed", [0, 9, 123])
    def test_streamed_equals_materialized_on_golden_seeds(self, master_seed):
        matrix = get_matrix("smoke")
        streamed = run_matrix(matrix, trials=3, master_seed=master_seed)
        materialized = self._materialized_rows(
            matrix, trials=3, master_seed=master_seed
        )
        assert len(streamed.rows) == len(materialized)
        for new_row, old_row in zip(streamed.rows, materialized):
            for key, value in old_row.items():
                assert new_row[key] == value, key  # exact float equality

    def test_streamed_parallel_equals_serial(self):
        matrix = get_matrix("smoke")
        serial = run_matrix(matrix, trials=3, master_seed=9, workers=0)
        pooled = run_matrix(matrix, trials=3, master_seed=9, workers=2)
        assert serial.rows == pooled.rows

    def test_cell_accumulator_counts(self):
        matrix = get_matrix("smoke")
        cell = matrix.cells()[0]
        accumulator = CellAccumulator(cell)
        for i in range(4):
            accumulator.add(
                run_matrix_cell(
                    TrialSpec(
                        index=i, seed=derive_seed(0, i), params=(cell, 5000.0)
                    )
                )
            )
        summary = accumulator.summary()
        assert summary["trials"] == 4
        assert 0.0 <= summary["agreement_ci_low"] <= summary["agreement_rate"]
        assert summary["agreement_rate"] <= summary["agreement_ci_high"] <= 1.0
