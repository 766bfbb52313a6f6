"""Worker-count bit-identity for the experiment engine.

The engine's hard guarantee, pinned on golden seeds: **serial == pool**
(``workers`` 0 and 2) for

* raw trial-level results (map and stream),
* full-protocol :class:`RunResult` streams through the trial lifecycle,
* ``run_matrix`` reports,
* the rows and folded summaries of seed-dependent protocol cells,

plus :class:`TrialError` propagation from both paths, the pool's bounded
read-ahead, and its graceful (close/join, not terminate) lifecycle, also
after a stream was dropped mid-iteration.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.harness import parallel
from repro.harness.parallel import (
    WINDOW_PER_WORKER,
    ExperimentEngine,
    TrialError,
    TrialSpec,
    derive_seed,
    resolve_workers,
)
from repro.harness.registry import (
    CellAccumulator,
    MatrixCell,
    ScenarioMatrix,
    run_matrix,
    run_matrix_cell,
)

from .helpers import seeded_specs

#: The two execution paths, under their historical test ids.
WORKERS = [pytest.param(0, id="serial"), pytest.param(2, id="pool")]

#: Small protocol cells whose rows depend on the seed: random delays, an
#: equivocating leader (the optimal-split attack), view changes, and the
#: baselines under their own attacks.
SEEDED_CELLS = {
    "equivocation": MatrixCell("probft", "equivocation", "constant", n=8, f=1),
    "exponential": MatrixCell("probft", "none", "exponential", n=8, f=2),
    "pre-gst-chaos": MatrixCell("probft", "silent", "pre-gst-chaos", n=8, f=2),
    "pbft-equivocation": MatrixCell("pbft", "equivocation", "uniform", n=7, f=2),
    "hotstuff-crash": MatrixCell("hotstuff", "crash", "exponential", n=7, f=2),
}

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


def reference_draws(count: int = 40):
    return ExperimentEngine(workers=0).map(
        draw_trial, [TrialSpec(i, derive_seed(7, i)) for i in range(count)]
    )


class TestRegistry:
    def test_default_selection_follows_workers(self):
        for workers in (0, 1):
            engine = ExperimentEngine(workers=workers)
            engine.map(draw_trial, seeded_specs(4))
            assert engine._pool is None  # in-process
        with ExperimentEngine(workers=2) as engine:
            engine.map(draw_trial, seeded_specs(4))
            assert engine._pool is not None

    def test_explicit_names(self, monkeypatch):
        """``run_matrix(backend="serial")`` runs in-process whatever
        ``workers`` says: no pool is ever created."""

        def no_pool(*args, **kwargs):
            raise AssertionError("backend='serial' created a pool")

        reference = run_matrix(GOLDEN_MATRIX, trials=2, master_seed=5)
        monkeypatch.setattr(parallel.multiprocessing, "Pool", no_pool)
        got = run_matrix(
            GOLDEN_MATRIX, trials=2, master_seed=5, workers=2, backend="serial"
        )
        assert got.rows == reference.rows

    def test_unknown_name_rejected(self):
        for name in ("pool", "gpu", "async", "sharded"):
            with pytest.raises(ValueError, match="unknown backend"):
                run_matrix(GOLDEN_MATRIX, trials=1, workers=2, backend=name)

    def test_auto_workers(self):
        import os

        assert resolve_workers("auto") == (os.cpu_count() or 1)
        assert resolve_workers("AUTO") == (os.cpu_count() or 1)
        assert resolve_workers(3) == 3
        assert resolve_workers("5") == 5
        with pytest.raises(ValueError):
            resolve_workers("many")


class TestCrossBackendIdentity:
    """serial == pool, golden seeds, every surface."""

    def test_trial_level_map_and_stream(self):
        reference = reference_draws()
        specs = [TrialSpec(i, derive_seed(7, i)) for i in range(40)]
        for workers in (0, 2):
            with ExperimentEngine(workers=workers) as engine:
                assert engine.map(draw_trial, list(specs)) == reference, workers
                assert (
                    list(engine.stream(draw_trial, list(specs))) == reference
                ), workers

    def test_run_result_streams_identical(self):
        """Full-protocol RunResult rows agree bit-for-bit per worker count."""
        specs = seeded_specs(6, master_seed=2024, params=(GOLDEN_CELL, 500.0))
        reference = ExperimentEngine(workers=0).map(run_matrix_cell, specs)
        assert reference, "golden cell produced no rows"
        for workers in (0, 2):
            with ExperimentEngine(workers=workers) as engine:
                assert (
                    engine.map(run_matrix_cell, list(specs)) == reference
                ), workers

    @pytest.mark.parametrize("workers", WORKERS)
    def test_run_matrix_report_identical(self, workers):
        reference = run_matrix(GOLDEN_MATRIX, trials=3, master_seed=5)
        got = run_matrix(GOLDEN_MATRIX, trials=3, master_seed=5, workers=workers)
        assert got.rows == reference.rows

    @pytest.mark.parametrize("cell", sorted(SEEDED_CELLS))
    @pytest.mark.parametrize("workers", WORKERS)
    def test_seeded_cell_rows_identical(self, workers, cell):
        """Rows and their folded summary (order-sensitive float means)."""
        specs = seeded_specs(4, master_seed=9, params=(SEEDED_CELLS[cell], 500.0))
        serial = ExperimentEngine(workers=0).map(run_matrix_cell, specs)
        with ExperimentEngine(workers=workers) as engine:
            other = engine.map(run_matrix_cell, specs)
        assert other == serial
        folds = []
        for rows in (serial, other):
            accumulator = CellAccumulator(SEEDED_CELLS[cell])
            for row in rows:
                accumulator.add(row)
            folds.append(accumulator.summary())
        assert folds[0] == folds[1]

    @pytest.mark.parametrize("workers", WORKERS)
    def test_trial_error_propagation(self, workers):
        """Both paths surface the first failing trial's identity."""
        engine = ExperimentEngine(workers=workers)
        with pytest.raises(TrialError) as exc_info:
            engine.map(crash_on_three, seeded_specs(8, master_seed=2))
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
    bounded by ``WINDOW_PER_WORKER`` specs per worker.
    """

    @pytest.mark.parametrize("workers", WORKERS)
    def test_windowed_results_identical(self, workers):
        specs = [TrialSpec(i, derive_seed(7, i)) for i in range(40)]
        with ExperimentEngine(workers=workers) as engine:
            got = list(engine.stream(draw_trial, list(specs), window=5))
        assert got == reference_draws()

    @pytest.mark.parametrize("window", [None, 1, 64])
    @pytest.mark.parametrize("workers", WORKERS)
    def test_edge_windows_results_identical(self, workers, window):
        """The default window (None), the minimal one, and one wider than
        the whole stream all yield the serial results in submission order."""
        specs = [TrialSpec(i, derive_seed(7, i)) for i in range(40)]
        with ExperimentEngine(workers=workers) as engine:
            got = list(engine.stream(draw_trial, list(specs), window=window))
        assert got == reference_draws()

    @pytest.mark.parametrize("workers", WORKERS)
    def test_windowed_seeded_stream_identical(self, workers):
        reference = ExperimentEngine(workers=0).map(
            draw_trial, seeded_specs(30, master_seed=4)
        )
        with ExperimentEngine(workers=workers) as engine:
            got = list(
                engine.stream(draw_trial, seeded_specs(30, master_seed=4), window=6)
            )
        assert got == reference

    @pytest.mark.parametrize("workers", WORKERS)
    def test_windowed_trial_error_propagation(self, workers):
        with ExperimentEngine(workers=workers) as engine:
            specs = [TrialSpec(i, derive_seed(2, i)) for i in range(8)]
            with pytest.raises(TrialError) as exc_info:
                list(engine.stream(crash_on_three, specs, window=2))
        assert exc_info.value.index == 3

    @pytest.mark.parametrize("workers", WORKERS)
    def test_unwindowed_trial_error_propagation(self, workers):
        with ExperimentEngine(workers=workers) as engine:
            specs = [TrialSpec(i, derive_seed(2, i)) for i in range(8)]
            with pytest.raises(TrialError) as exc_info:
                list(engine.stream(crash_on_three, specs))
        assert exc_info.value.index == 3

    @pytest.mark.parametrize("workers", WORKERS)
    def test_invalid_window_rejected(self, workers):
        """Refused when the stream is made, before any trial runs."""
        with ExperimentEngine(workers=workers) as engine:
            for window in (0, -1):
                with pytest.raises(ValueError, match="window"):
                    engine.stream(draw_trial, [TrialSpec(0, 0)], window=window)

    def test_pool_windowed_bounded_readahead(self):
        """The spec generator is consumed at most ~window ahead of the
        results pulled (a free-running feeder would eat all 1000)."""
        engine = ExperimentEngine(workers=2)
        consumed = []

        def specs():
            for i in range(1000):
                consumed.append(i)
                yield TrialSpec(i, i)

        stream = engine.stream(draw_trial, specs(), window=4)
        for _ in range(3):
            next(stream)
        # 3 yielded + at most window in flight + one batch of slack.
        assert len(consumed) <= 3 + 4 + 1
        stream.close()
        engine.close()

    def test_pool_windowed_drop_keeps_pool_clean(self):
        """Dropping a windowed stream waits out only the bounded in-flight
        window — close() stays graceful, and the remaining seed range is
        NOT drained."""
        engine = ExperimentEngine(workers=2)
        ran = time.perf_counter()
        stream = engine.stream(
            slow_trial, [TrialSpec(i, i) for i in range(60)], window=2
        )
        assert next(stream) == 0
        stream.close()  # adaptive early stop
        elapsed = time.perf_counter() - ran
        # 60 slow trials would cost ~9s; the bounded remainder is ~2 trials.
        assert elapsed < 3.0
        pool = engine._pool
        calls = []
        original_terminate = pool.terminate
        pool.terminate = lambda: calls.append("terminate")
        try:
            engine.close()
        finally:
            pool.terminate = original_terminate
        assert calls == []  # graceful close — never terminate
        assert engine._pool is None

    def test_pool_windowed_workers_reusable_after_drop(self):
        engine = ExperimentEngine(workers=2)
        stream = engine.stream(
            draw_trial, [TrialSpec(i, i) for i in range(40)], window=3
        )
        next(stream)
        stream.close()
        # Same pool object serves the next call.
        pool = engine._pool
        assert engine.map(draw_trial, [TrialSpec(0, 0)]) == [
            draw_trial(TrialSpec(0, 0))
        ]
        assert engine._pool is pool
        engine.close()

    def test_unwindowed_drop_reads_one_window_and_closes_gracefully(self):
        """Without ``window`` the pool bounds itself: ``WINDOW_PER_WORKER``
        specs per worker ahead of the consumer, however long the feeder
        had, and a dropped stream leaves nothing queued, so close() joins."""
        engine = ExperimentEngine(workers=2)
        window = 2 * WINDOW_PER_WORKER
        consumed = []

        def specs():
            for i in range(1000):
                consumed.append(i)
                yield TrialSpec(i, i)

        stream = engine.stream(draw_trial, specs())
        for _ in range(3):
            next(stream)
        time.sleep(0.2)
        # 3 yielded + at most one window in flight + one batch of slack
        # (a batch is an eighth of the window at two workers).
        assert len(consumed) <= 3 + window + window // 8
        stream.close()
        pool = engine._pool
        calls = []
        original_terminate = pool.terminate
        pool.terminate = lambda: calls.append("terminate")
        try:
            engine.close()
        finally:
            pool.terminate = original_terminate
        assert calls == []  # graceful close — never terminate
        assert engine._pool is None

    def test_short_stream_spreads_over_every_worker(self, monkeypatch):
        """A stream shorter than the window is cut into four batches per
        worker, so it never lands whole on one process."""
        pool_class = parallel.multiprocessing.pool.Pool
        original = pool_class.apply_async
        submitted = []

        def record(pool, fn, args=(), *rest, **kwargs):
            submitted.append(len(args[0]))
            return original(pool, fn, args, *rest, **kwargs)

        monkeypatch.setattr(pool_class, "apply_async", record)
        with ExperimentEngine(workers=2) as engine:
            specs = [TrialSpec(i, i) for i in range(16)]
            assert len(list(engine.stream(draw_trial, specs))) == 16
        assert submitted == [2] * 8


class TestPoolLifecycle:
    """Happy-path shutdown is graceful; terminate stays on error paths."""

    def test_close_joins_without_terminate(self):
        engine = ExperimentEngine(workers=2)
        engine.map(draw_trial, [TrialSpec(i, i) for i in range(4)])
        pool = engine._pool
        assert pool is not None
        calls = []
        original_terminate = pool.terminate
        pool.terminate = lambda: calls.append("terminate")
        try:
            engine.close()
        finally:
            pool.terminate = original_terminate
        assert calls == []  # graceful: close()+join(), never terminate()
        assert engine._pool is None
        # A later map transparently re-creates the pool.
        assert len(engine.map(draw_trial, [TrialSpec(0, 0)])) == 1
        engine.close()

    def test_exactly_consumed_stream_closes_gracefully(self):
        """A consumer that pulls exactly as many results as it submitted
        (next) leaves the generator suspended at its final yield — a
        fully-drained stream."""
        engine = ExperimentEngine(workers=2)
        specs = [TrialSpec(i, i) for i in range(6)]
        stream = engine.stream(draw_trial, specs)
        got = [next(stream) for _ in range(6)]  # never iterates past the end
        assert len(got) == 6
        del stream  # finalized while suspended at the last yield
        pool = engine._pool
        calls = []
        original_terminate = pool.terminate
        pool.terminate = lambda: calls.append("terminate")
        try:
            engine.close()
        finally:
            pool.terminate = original_terminate
        assert calls == []  # graceful close()+join on the happy path
        assert engine._pool is None

    def test_run_matrix_happy_path_closes_gracefully(self):
        """End-to-end: a successful run_matrix over a shared engine leaves
        the pool clean, so engine.close() never terminates workers."""
        engine = ExperimentEngine(workers=2)
        run_matrix(GOLDEN_MATRIX, trials=2, master_seed=1, engine=engine)
        import gc

        gc.collect()  # finalize the consumed stream generator
        pool = engine._pool
        calls = []
        original_terminate = pool.terminate
        pool.terminate = lambda: calls.append("terminate")
        try:
            engine.close()
        finally:
            pool.terminate = original_terminate
        assert calls == []

    def test_abort_terminates(self):
        engine = ExperimentEngine(workers=2)
        engine.map(draw_trial, [TrialSpec(i, i) for i in range(4)])
        pool = engine._pool
        calls = []
        original_terminate = pool.terminate
        pool.terminate = lambda: calls.append("terminate") or original_terminate()
        engine.abort()
        assert calls == ["terminate"]
        assert engine._pool is None

    def test_engine_context_manager_routes_by_outcome(self):
        with ExperimentEngine(workers=2) as engine:
            engine.map(draw_trial, seeded_specs(4))
            pool = engine._pool
            calls = []
            original_terminate = pool.terminate
            pool.terminate = (
                lambda: calls.append("terminate") or original_terminate()
            )
        assert calls == []  # clean exit: graceful close
        assert engine._pool is None

        with pytest.raises(RuntimeError, match="bail"):
            with ExperimentEngine(workers=2) as engine:
                engine.map(draw_trial, seeded_specs(4))
                pool = engine._pool
                calls = []
                original_terminate = pool.terminate
                pool.terminate = (
                    lambda: calls.append("terminate") or original_terminate()
                )
                raise RuntimeError("bail")
        assert calls == ["terminate"]  # error exit: hard abort
