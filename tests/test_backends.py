"""Cross-backend bit-identity for the execution layer.

The seam's hard guarantee, pinned on golden seeds: **serial == pool** for

* raw trial-level results (map and stream),
* full-protocol :class:`RunResult` streams through the trial lifecycle,
* ``run_matrix`` reports,
* the Monte-Carlo estimators' counts,

plus :class:`TrialError` propagation from both backends, the pool's
bounded read-ahead, and its graceful (close/join, not terminate)
lifecycle, also after a stream was dropped mid-iteration.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.config import ProtocolConfig
from repro.harness.backends import (
    ProcessPoolBackend,
    SerialBackend,
    resolve_workers,
)
from repro.harness.parallel import (
    ExperimentEngine,
    TrialError,
    TrialSpec,
    derive_seed,
    resolve_engine,
)
from repro.harness.registry import (
    MatrixCell,
    ScenarioMatrix,
    run_matrix,
    run_matrix_cell,
)
from repro.montecarlo.experiments import (
    estimate_agreement_violation,
    estimate_prepare_quorum,
    estimate_protocol_agreement,
    estimate_termination,
    estimate_viewchange_decide,
)

BACKEND_NAMES = ("serial", "pool")

#: The five Monte-Carlo estimators at golden sizes, each taking ``engine=``.
ESTIMATORS = {
    "prepare_quorum": lambda **kw: estimate_prepare_quorum(
        32, 6, 1.7, trials=40, seed=9, **kw
    ),
    "termination": lambda **kw: estimate_termination(
        32, 6, 1.7, trials=40, seed=9, **kw
    ),
    "agreement_violation": lambda **kw: estimate_agreement_violation(
        32, 6, 1.7, trials=40, seed=9, model_detection=True, **kw
    ),
    "protocol_agreement": lambda **kw: estimate_protocol_agreement(
        ProtocolConfig(n=8, f=1), trials=3, seed=9, **kw
    ),
    "viewchange_decide": lambda **kw: estimate_viewchange_decide(
        32, 6, 1.7, trials=40, seed=9, **kw
    ),
}

#: The estimators with a numpy-batched (``vectorized=True``) tier.
VECTORIZED = ("prepare_quorum", "termination", "viewchange_decide")

#: A tiny protocol-level matrix cell: full discrete-event simulation at n=6.
GOLDEN_CELL = MatrixCell(
    protocol="probft", adversary="silent", latency="constant", n=6, f=1
)

GOLDEN_MATRIX = ScenarioMatrix(
    name="backend-golden",
    protocols=("probft",),
    adversaries=("none", "silent"),
    latencies=("constant",),
    n=6,
)


# Module-level trial functions (the pool pickles them).


def draw_trial(spec: TrialSpec) -> float:
    return float(np.random.default_rng(spec.seed).random())


def crash_on_three(spec: TrialSpec) -> int:
    if spec.index == 3:
        raise ValueError(f"boom at {spec.index}")
    return spec.index


def slow_trial(spec: TrialSpec) -> int:
    time.sleep(0.15)
    return spec.index


def cell_specs(trials: int, master_seed: int = 0, max_time: float = 500.0):
    return [
        TrialSpec(
            index=i,
            seed=derive_seed(master_seed, i),
            params=(GOLDEN_CELL, max_time),
        )
        for i in range(trials)
    ]


def backend_for(name: str):
    """A small two-worker instance of the named backend."""
    return ExperimentEngine(workers=2, backend=name).backend


class TestRegistry:
    def test_default_selection_follows_workers(self):
        assert isinstance(ExperimentEngine(workers=0).backend, SerialBackend)
        assert isinstance(ExperimentEngine(workers=1).backend, SerialBackend)
        assert isinstance(
            ExperimentEngine(workers=2).backend, ProcessPoolBackend
        )

    def test_explicit_names(self):
        assert isinstance(
            ExperimentEngine(backend="serial").backend, SerialBackend
        )
        assert isinstance(
            ExperimentEngine(workers=2, backend="pool").backend,
            ProcessPoolBackend,
        )

    def test_unknown_name_rejected(self):
        for name in ("gpu", "async", "sharded"):
            with pytest.raises(ValueError, match="unknown backend"):
                ExperimentEngine(workers=2, backend=name)

    def test_auto_workers(self):
        import os

        assert resolve_workers("auto") == (os.cpu_count() or 1)
        assert resolve_workers("AUTO") == (os.cpu_count() or 1)
        assert resolve_workers(3) == 3
        assert resolve_workers("5") == 5
        with pytest.raises(ValueError):
            resolve_workers("many")

    def test_concurrent_backend_without_workers_saturates(self):
        import os

        engine = ExperimentEngine(workers=0, backend="pool")
        assert engine.workers == engine.backend.workers == (os.cpu_count() or 1)

    def test_engine_exposes_backend(self):
        engine = ExperimentEngine(workers=2, backend="pool")
        assert engine.backend_name == "pool"
        assert engine.parallel
        engine.close()
        # A constructed Backend instance passes through as-is.
        backend = SerialBackend()
        assert ExperimentEngine(backend=backend).backend is backend

    def test_resolve_engine_backend_passthrough(self):
        engine = resolve_engine(None, 0, backend="pool")
        assert engine.backend_name == "pool"
        engine.close()


class TestCrossBackendIdentity:
    """serial == pool, golden seeds, every surface."""

    def test_trial_level_map_and_stream(self):
        reference = SerialBackend().map(
            draw_trial, [TrialSpec(i, derive_seed(7, i)) for i in range(40)]
        )
        specs = [TrialSpec(i, derive_seed(7, i)) for i in range(40)]
        for name in BACKEND_NAMES:
            with backend_for(name) as backend:
                assert backend.map(draw_trial, list(specs)) == reference, name
                assert (
                    list(backend.stream(draw_trial, list(specs), count=40))
                    == reference
                ), name

    def test_run_result_streams_identical(self):
        """Full-protocol RunResult rows agree bit-for-bit per backend."""
        specs = cell_specs(trials=6, master_seed=2024)
        reference = SerialBackend().map(run_matrix_cell, list(specs))
        assert reference, "golden cell produced no rows"
        for name in BACKEND_NAMES:
            with backend_for(name) as backend:
                assert (
                    backend.map(run_matrix_cell, list(specs)) == reference
                ), name

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_run_matrix_report_identical(self, name):
        reference = run_matrix(GOLDEN_MATRIX, trials=3, master_seed=5)
        got = run_matrix(
            GOLDEN_MATRIX, trials=3, master_seed=5, workers=2, backend=name
        )
        assert got.rows == reference.rows

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_estimator_counts_identical(self, name):
        serial = estimate_termination(32, 6, 1.7, trials=40, seed=9)
        with ExperimentEngine(workers=2, backend=name) as engine:
            other = estimate_termination(
                32, 6, 1.7, trials=40, seed=9, engine=engine
            )
        assert {k: v.successes for k, v in serial.estimates.items()} == {
            k: v.successes for k, v in other.estimates.items()
        }
        assert serial.mean_prepared_fraction == other.mean_prepared_fraction

    @pytest.mark.parametrize(
        "estimator", sorted(set(ESTIMATORS) - {"termination"})
    )
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_other_estimator_counts_identical(self, name, estimator):
        estimate = ESTIMATORS[estimator]
        serial = estimate()
        with ExperimentEngine(workers=2, backend=name) as engine:
            other = estimate(engine=engine)
        assert other.trials == serial.trials
        assert {k: v.successes for k, v in serial.estimates.items()} == {
            k: v.successes for k, v in other.estimates.items()
        }

    @pytest.mark.parametrize("estimator", VECTORIZED)
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_vectorized_estimator_counts_identical(self, name, estimator):
        """The batched tier agrees with the per-trial tier on every backend."""
        estimate = ESTIMATORS[estimator]
        reference = estimate()
        with ExperimentEngine(workers=2, backend=name) as engine:
            other = estimate(engine=engine, vectorized=True)
        assert other.trials == reference.trials
        assert {k: v.successes for k, v in reference.estimates.items()} == {
            k: v.successes for k, v in other.estimates.items()
        }

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_trial_error_propagation(self, name):
        """Every backend surfaces the first failing trial's identity."""
        engine = ExperimentEngine(workers=2, backend=name, chunk_size=1)
        with pytest.raises(TrialError) as exc_info:
            engine.run_trials(crash_on_three, 8, master_seed=2)
        err = exc_info.value
        assert err.index == 3
        assert err.seed == derive_seed(2, 3)
        assert "boom at 3" in str(err)
        assert "ValueError" in err.detail
        engine.abort()


class TestWindowedStreams:
    """The bounded-window/cancellation contract behind adaptive early stop.

    ``stream(..., window=w)`` must (a) keep results bit-identical, (b) read
    at most about ``w`` specs ahead of the consumer, and (c) leave workers
    promptly reusable — and the pool clean for a *graceful* close — when
    the stream is dropped mid-iteration.  A stream without ``window`` is
    bounded by the pool's own window (four chunks per worker).
    """

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_windowed_results_identical(self, name):
        specs = [TrialSpec(i, derive_seed(7, i)) for i in range(40)]
        reference = SerialBackend().map(draw_trial, list(specs))
        with backend_for(name) as backend:
            got = list(backend.stream(draw_trial, list(specs), count=40, window=5))
        assert got == reference, name

    @pytest.mark.parametrize("window", [None, 1, 64])
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_edge_windows_results_identical(self, name, window):
        """The derived window (None), the minimal one, and one wider than
        the whole stream all yield the serial results in submission order."""
        specs = [TrialSpec(i, derive_seed(7, i)) for i in range(40)]
        reference = SerialBackend().map(draw_trial, list(specs))
        with backend_for(name) as backend:
            got = list(
                backend.stream(draw_trial, list(specs), count=40, window=window)
            )
        assert got == reference, name

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_windowed_engine_run_stream_identical(self, name):
        reference = ExperimentEngine(workers=0).run_trials(
            draw_trial, 30, master_seed=4
        )
        with ExperimentEngine(workers=2, backend=name) as engine:
            got = list(engine.run_stream(draw_trial, 30, master_seed=4, window=6))
        assert got == reference, name

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_windowed_trial_error_propagation(self, name):
        with backend_for(name) as backend:
            specs = [TrialSpec(i, derive_seed(2, i)) for i in range(8)]
            with pytest.raises(TrialError) as exc_info:
                list(backend.stream(crash_on_three, specs, count=8, window=2))
        assert exc_info.value.index == 3

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_unwindowed_trial_error_propagation(self, name):
        with backend_for(name) as backend:
            specs = [TrialSpec(i, derive_seed(2, i)) for i in range(8)]
            with pytest.raises(TrialError) as exc_info:
                list(backend.stream(crash_on_three, specs, count=8))
        assert exc_info.value.index == 3

    # Only the pool reads ahead, so only the pool has a window to validate;
    # serial is fully lazy and honors any window.
    @pytest.mark.parametrize("name", ["pool"])
    def test_invalid_window_rejected(self, name):
        with backend_for(name) as backend:
            for window in (0, -1):
                with pytest.raises(ValueError, match="window"):
                    list(
                        backend.stream(
                            draw_trial, [TrialSpec(0, 0)], window=window
                        )
                    )

    def test_pool_windowed_bounded_readahead(self):
        """The spec generator is consumed at most ~window ahead of the
        results pulled (a free-running feeder would eat all 1000)."""
        backend = ProcessPoolBackend(workers=2, chunk_size=1)
        consumed = []

        def specs():
            for i in range(1000):
                consumed.append(i)
                yield TrialSpec(i, i)

        stream = backend.stream(draw_trial, specs(), count=1000, window=4)
        for _ in range(3):
            next(stream)
        # 3 yielded + at most window in flight + one batch of slack.
        assert len(consumed) <= 3 + 4 + 1
        stream.close()
        backend.close()

    def test_pool_windowed_drop_keeps_pool_clean(self):
        """Dropping a windowed stream waits out only the bounded in-flight
        window — close() stays graceful, and the remaining seed range is
        NOT drained."""
        backend = ProcessPoolBackend(workers=2, chunk_size=1)
        ran = time.perf_counter()
        stream = backend.stream(
            slow_trial, [TrialSpec(i, i) for i in range(60)], count=60, window=2
        )
        assert next(stream) == 0
        stream.close()  # adaptive early stop
        elapsed = time.perf_counter() - ran
        # 60 slow trials would cost ~9s; the bounded remainder is ~2 trials.
        assert elapsed < 3.0
        pool = backend._pool
        calls = []
        original_terminate = pool.terminate
        pool.terminate = lambda: calls.append("terminate")
        try:
            backend.close()
        finally:
            pool.terminate = original_terminate
        assert calls == []  # graceful close — never terminate
        assert backend._pool is None

    def test_pool_windowed_workers_reusable_after_drop(self):
        backend = ProcessPoolBackend(workers=2, chunk_size=1)
        stream = backend.stream(
            draw_trial, [TrialSpec(i, i) for i in range(40)], count=40, window=3
        )
        next(stream)
        stream.close()
        # Same pool object serves the next call.
        pool = backend._pool
        assert backend.map(draw_trial, [TrialSpec(0, 0)]) == [
            SerialBackend().map(draw_trial, [TrialSpec(0, 0)])[0]
        ]
        assert backend._pool is pool
        backend.close()

    def test_unwindowed_drop_reads_one_window_and_closes_gracefully(self):
        """Without ``window`` the pool bounds itself: four chunks per worker
        (8 specs here) ahead of the consumer, however long the feeder had,
        and a dropped stream leaves nothing queued, so close() joins."""
        backend = ProcessPoolBackend(workers=2, chunk_size=1)
        consumed = []

        def specs():
            for i in range(1000):
                consumed.append(i)
                yield TrialSpec(i, i)

        stream = backend.stream(draw_trial, specs(), count=1000)
        for _ in range(3):
            next(stream)
        time.sleep(0.2)
        # 3 yielded + at most one window in flight + one batch of slack.
        assert len(consumed) <= 3 + 8 + 1
        stream.close()
        pool = backend._pool
        calls = []
        original_terminate = pool.terminate
        pool.terminate = lambda: calls.append("terminate")
        try:
            backend.close()
        finally:
            pool.terminate = original_terminate
        assert calls == []  # graceful close — never terminate
        assert backend._pool is None


class TestPoolLifecycle:
    """Happy-path shutdown is graceful; terminate stays on error paths."""

    def test_close_joins_without_terminate(self):
        backend = ProcessPoolBackend(workers=2)
        backend.map(draw_trial, [TrialSpec(i, i) for i in range(4)])
        pool = backend._pool
        assert pool is not None
        calls = []
        original_terminate = pool.terminate
        pool.terminate = lambda: calls.append("terminate")
        try:
            backend.close()
        finally:
            pool.terminate = original_terminate
        assert calls == []  # graceful: close()+join(), never terminate()
        assert backend._pool is None
        # A later map transparently re-creates the pool.
        assert len(backend.map(draw_trial, [TrialSpec(0, 0)])) == 1
        backend.close()

    def test_exactly_consumed_stream_closes_gracefully(self):
        """run_matrix pulls exactly ``count`` results (next), leaving the
        generator suspended at its final yield — a fully-drained stream."""
        backend = ProcessPoolBackend(workers=2)
        specs = [TrialSpec(i, i) for i in range(6)]
        stream = backend.stream(draw_trial, specs, count=6)
        got = [next(stream) for _ in range(6)]  # never iterates past the end
        assert len(got) == 6
        del stream  # finalized while suspended at the last yield
        pool = backend._pool
        calls = []
        original_terminate = pool.terminate
        pool.terminate = lambda: calls.append("terminate")
        try:
            backend.close()
        finally:
            pool.terminate = original_terminate
        assert calls == []  # graceful close()+join on the happy path
        assert backend._pool is None

    def test_run_matrix_happy_path_closes_gracefully(self):
        """End-to-end: a successful run_matrix over a shared engine leaves
        the pool clean, so engine.close() never terminates workers."""
        engine = ExperimentEngine(workers=2)
        run_matrix(GOLDEN_MATRIX, trials=2, master_seed=1, engine=engine)
        import gc

        gc.collect()  # finalize the consumed stream generator
        pool = engine.backend._pool
        calls = []
        original_terminate = pool.terminate
        pool.terminate = lambda: calls.append("terminate")
        try:
            engine.close()
        finally:
            pool.terminate = original_terminate
        assert calls == []

    def test_abort_terminates(self):
        backend = ProcessPoolBackend(workers=2)
        backend.map(draw_trial, [TrialSpec(i, i) for i in range(4)])
        pool = backend._pool
        calls = []
        original_terminate = pool.terminate
        pool.terminate = lambda: calls.append("terminate") or original_terminate()
        backend.abort()
        assert calls == ["terminate"]
        assert backend._pool is None

    def test_engine_context_manager_routes_by_outcome(self):
        with ExperimentEngine(workers=2) as engine:
            engine.run_trials(draw_trial, 4)
            pool = engine.backend._pool
            calls = []
            original_terminate = pool.terminate
            pool.terminate = (
                lambda: calls.append("terminate") or original_terminate()
            )
        assert calls == []  # clean exit: graceful close
        assert engine.backend._pool is None

        with pytest.raises(RuntimeError, match="bail"):
            with ExperimentEngine(workers=2) as engine:
                engine.run_trials(draw_trial, 4)
                pool = engine.backend._pool
                calls = []
                original_terminate = pool.terminate
                pool.terminate = (
                    lambda: calls.append("terminate") or original_terminate()
                )
                raise RuntimeError("bail")
        assert calls == ["terminate"]  # error exit: hard abort
