"""Tests for the parallel experiment engine.

The engine's contract: identical results for every worker count (serial
in-process, one worker, or more workers than cores), results in submission
order, and failing trials surfacing as :class:`TrialError` with the trial's
identity — from both the serial and the pooled path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness.parallel import (
    ExperimentEngine,
    TrialError,
    TrialSpec,
    derive_seed,
    engine_scope,
    spawn_seeds,
)
from repro.harness.registry import (
    CellAccumulator,
    MatrixCell,
    ScenarioMatrix,
    run_matrix,
    run_matrix_cell,
)

from .helpers import seeded_specs

#: Seed-dependent protocol cells: exponential delays and an equivocating
#: leader make every trial's row a function of its seed.
JITTER_CELL = MatrixCell("probft", "none", "exponential", n=8, f=2)
SPLIT_CELL = MatrixCell("probft", "equivocation", "constant", n=8, f=2)


# Module-level trial functions: the pool pickles these into workers.


def draw_trial(spec: TrialSpec) -> float:
    """A seed-driven stochastic trial: first uniform draw of the stream."""
    return float(np.random.default_rng(spec.seed).random())


def echo_trial(spec: TrialSpec) -> tuple:
    return spec.index, spec.seed, spec.params


def crash_on_three(spec: TrialSpec) -> int:
    if spec.index == 3:
        raise ValueError(f"boom at {spec.index}")
    return spec.index


def record_and_crash(spec: TrialSpec) -> int:
    spec.params.append(spec.index)
    if spec.index == 2:
        raise RuntimeError("stop here")
    return spec.index


class TestSeedDerivation:
    def test_deterministic_and_pure(self):
        assert derive_seed(0, 0) == derive_seed(0, 0)
        assert spawn_seeds(42, 5) == [derive_seed(42, i) for i in range(5)]

    def test_distinct_across_indices_and_masters(self):
        seeds = {derive_seed(m, i) for m in range(20) for i in range(500)}
        assert len(seeds) == 20 * 500

    def test_64_bit_range(self):
        for seed in spawn_seeds(7, 100):
            assert 0 <= seed < 2**64

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(0, -1)

    def test_huge_master_seed_wraps(self):
        assert 0 <= derive_seed(2**200 + 17, 3) < 2**64


class TestEngineBasics:
    def test_workers_validation(self):
        with pytest.raises(ValueError):
            ExperimentEngine(workers=-1)

    def test_zero_trials(self):
        assert ExperimentEngine().map(draw_trial, seeded_specs(0)) == []
        assert ExperimentEngine(workers=2).map(draw_trial, []) == []

    def test_specs_may_be_a_generator(self):
        specs = seeded_specs(12, master_seed=8)
        with ExperimentEngine(workers=2) as engine:
            assert engine.map(draw_trial, iter(specs)) == engine.map(draw_trial, specs)

    def test_results_in_submission_order(self):
        engine = ExperimentEngine(workers=2)
        out = engine.map(echo_trial, seeded_specs(20, master_seed=3, params="p"))
        assert [i for i, _, _ in out] == list(range(20))
        assert all(s == derive_seed(3, i) for i, s, _ in out)
        assert all(p == "p" for _, _, p in out)

    def test_engine_scope_prefers_given(self):
        engine = ExperimentEngine(workers=5)
        with engine_scope(engine, 0) as scoped:
            assert scoped is engine
        with engine_scope(None, 3) as scoped:
            assert scoped.workers == 3

    def test_pool_is_reused_across_map_calls(self):
        with ExperimentEngine(workers=2) as engine:
            engine.map(draw_trial, seeded_specs(4))
            pool = engine._pool
            assert pool is not None
            engine.map(draw_trial, seeded_specs(4))
            assert engine._pool is pool
        assert engine._pool is None  # context exit closed it
        # A closed engine transparently re-creates its pool.
        assert len(engine.map(draw_trial, seeded_specs(3))) == 3
        engine.close()


class TestSerialParallelDeterminism:
    """Same master seed ⇒ identical per-trial results, any worker count."""

    def test_trial_level_identity(self):
        reference = ExperimentEngine(workers=0).map(
            draw_trial, seeded_specs(40, master_seed=11)
        )
        for workers in (1, 2, 3):
            got = ExperimentEngine(workers=workers).map(
                draw_trial, seeded_specs(40, master_seed=11)
            )
            assert got == reference

    def test_window_is_irrelevant(self):
        reference = ExperimentEngine(workers=0).map(
            draw_trial, seeded_specs(30, master_seed=1)
        )
        with ExperimentEngine(workers=2) as engine:
            for window in (1, 7, 30):
                got = list(
                    engine.stream(
                        draw_trial, seeded_specs(30, master_seed=1), window=window
                    )
                )
                assert got == reference

    @pytest.mark.parametrize("cell", [JITTER_CELL, SPLIT_CELL], ids=lambda c: c.label)
    def test_protocol_rows_and_folds_identical(self, cell):
        specs = seeded_specs(12, master_seed=5, params=(cell, 500.0))
        serial = ExperimentEngine(workers=0).map(run_matrix_cell, specs)
        with ExperimentEngine(workers=3) as engine:
            pooled = engine.map(run_matrix_cell, specs)
        assert pooled == serial
        # Float aggregation is order-sensitive; submission-order collection
        # makes even the folded means bit-identical.
        folds = []
        for rows in (serial, pooled):
            accumulator = CellAccumulator(cell)
            for row in rows:
                accumulator.add(row)
            folds.append(accumulator.summary())
        assert folds[0] == folds[1]

    def test_equivocation_matrix_identical(self):
        """The optimal-split attack cell, serial and pooled."""
        matrix = ScenarioMatrix(
            name="split",
            protocols=("probft",),
            adversaries=("equivocation",),
            latencies=("constant",),
            n=8,
            f=1,
        )
        serial = run_matrix(matrix, trials=4, master_seed=0, workers=0)
        pooled = run_matrix(matrix, trials=4, master_seed=0, workers=2)
        assert pooled.rows == serial.rows


class TestErrorPropagation:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_crashing_trial_raises_trial_error(self, workers):
        engine = ExperimentEngine(workers=workers)
        with pytest.raises(TrialError) as exc_info:
            engine.map(crash_on_three, seeded_specs(8, master_seed=2))
        err = exc_info.value
        assert err.index == 3
        assert err.seed == derive_seed(2, 3)
        assert "boom at 3" in str(err)
        assert "ValueError" in err.detail

    def test_serial_path_fails_fast(self):
        """In-process execution stops at the failing trial — later trials
        (which may each be a whole simulation) never run."""
        ran = []
        engine = ExperimentEngine(workers=0)
        with pytest.raises(TrialError):
            engine.map(record_and_crash, seeded_specs(10, params=ran))
        assert ran == [0, 1, 2]

    def test_first_failure_in_submission_order_wins(self):
        # Index 3 fails; trials after it may or may not have run, but the
        # reported failure is deterministic.
        with ExperimentEngine(workers=2) as engine:
            with pytest.raises(TrialError) as exc_info:
                # A window of 4 over two workers sends one trial per batch.
                list(engine.stream(crash_on_three, seeded_specs(50), window=4))
        assert exc_info.value.index == 3
