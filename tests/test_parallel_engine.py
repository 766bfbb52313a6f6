"""Tests for the parallel Monte-Carlo experiment engine.

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
    workers_from_env,
)
from repro.montecarlo.experiments import (
    estimate_agreement_violation,
    estimate_protocol_agreement,
    estimate_termination,
)
from repro.config import ProtocolConfig


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
        assert ExperimentEngine().run_trials(draw_trial, 0) == []
        assert ExperimentEngine(workers=2).map(draw_trial, []) == []

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError):
            ExperimentEngine().run_trials(draw_trial, -1)

    def test_results_in_submission_order(self):
        engine = ExperimentEngine(workers=2)
        out = engine.run_trials(echo_trial, 20, master_seed=3, params="p")
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
            engine.run_trials(draw_trial, 4)
            pool = engine._pool
            assert pool is not None
            engine.run_trials(draw_trial, 4)
            assert engine._pool is pool
        assert engine._pool is None  # context exit closed it
        # A closed engine transparently re-creates its pool.
        assert len(engine.run_trials(draw_trial, 3)) == 3
        engine.close()

    def test_workers_from_env(self, monkeypatch):
        monkeypatch.delenv("X_WORKERS", raising=False)
        assert workers_from_env("X_WORKERS") == 0
        assert workers_from_env("X_WORKERS", default=4) == 4
        monkeypatch.setenv("X_WORKERS", "6")
        assert workers_from_env("X_WORKERS") == 6
        monkeypatch.setenv("X_WORKERS", "junk")
        assert workers_from_env("X_WORKERS", default=2) == 2
        monkeypatch.setenv("X_WORKERS", "-3")
        assert workers_from_env("X_WORKERS") == 0


class TestSerialParallelDeterminism:
    """Same master seed ⇒ identical per-trial results, any worker count."""

    def test_trial_level_identity(self):
        reference = ExperimentEngine(workers=0).run_trials(
            draw_trial, 40, master_seed=11
        )
        for workers in (1, 2, 3):
            got = ExperimentEngine(workers=workers).run_trials(
                draw_trial, 40, master_seed=11
            )
            assert got == reference

    def test_window_is_irrelevant(self):
        reference = ExperimentEngine(workers=0).run_trials(
            draw_trial, 30, master_seed=1
        )
        with ExperimentEngine(workers=2) as engine:
            for window in (1, 7, 30):
                got = list(
                    engine.run_stream(draw_trial, 30, master_seed=1, window=window)
                )
                assert got == reference

    def test_estimate_termination_identical(self):
        serial = estimate_termination(64, 12, 1.7, trials=60, seed=5, workers=0)
        pooled = estimate_termination(64, 12, 1.7, trials=60, seed=5, workers=2)
        for key in serial.estimates:
            assert (
                serial.estimates[key].successes == pooled.estimates[key].successes
            )
        # Float aggregation is order-sensitive; submission-order collection
        # makes even this bit-identical.
        assert serial.mean_prepared_fraction == pooled.mean_prepared_fraction

    def test_estimate_agreement_violation_identical(self):
        serial = estimate_agreement_violation(
            64, 12, 1.7, trials=80, seed=6, model_detection=True, workers=0
        )
        pooled = estimate_agreement_violation(
            64, 12, 1.7, trials=80, seed=6, model_detection=True, workers=3
        )
        assert {k: v.successes for k, v in serial.estimates.items()} == {
            k: v.successes for k, v in pooled.estimates.items()
        }

    def test_full_protocol_runs_identical(self):
        config = ProtocolConfig(n=8, f=1)
        serial = estimate_protocol_agreement(config, trials=4, seed=0, workers=0)
        pooled = estimate_protocol_agreement(config, trials=4, seed=0, workers=2)
        assert {k: v.successes for k, v in serial.estimates.items()} == {
            k: v.successes for k, v in pooled.estimates.items()
        }


class TestErrorPropagation:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_crashing_trial_raises_trial_error(self, workers):
        engine = ExperimentEngine(workers=workers)
        with pytest.raises(TrialError) as exc_info:
            engine.run_trials(crash_on_three, 8, master_seed=2)
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
            engine.run_trials(record_and_crash, 10, master_seed=0, params=ran)
        assert ran == [0, 1, 2]

    def test_first_failure_in_submission_order_wins(self):
        # Index 3 fails; trials after it may or may not have run, but the
        # reported failure is deterministic.
        with ExperimentEngine(workers=2) as engine:
            with pytest.raises(TrialError) as exc_info:
                # A window of 4 over two workers sends one trial per batch.
                list(engine.run_stream(crash_on_three, 50, window=4))
        assert exc_info.value.index == 3
