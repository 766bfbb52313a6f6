"""Process-pool execution with a graceful lifecycle.

The workhorse backend for CPU-bound trials: fans specs across
``multiprocessing.Pool`` workers in ``apply_async`` batches, at most about
one window of specs ahead of the consumer, and collects results in
submission order.  The pool persists across ``map``/``stream`` calls,
amortizing process startup over a whole experiment series, and is
re-created transparently after :meth:`close`.

Lifecycle: the happy path (:meth:`close`, context-manager exit) uses
``Pool.close()`` + ``join()`` so in-flight batches finish and worker-side
``atexit``/coverage hooks run; the hard kill (``Pool.terminate()``) is
reserved for :meth:`abort` — error paths where waiting is wrong — and
``__del__``, where a half-collected pool must not block garbage collection.
A stream dropped mid-iteration never leaves queued work behind, so it never
turns a later :meth:`close` into a terminate.
"""

from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
import multiprocessing.pool
from collections import deque
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence

from .base import (
    STREAM_CHUNK,
    Backend,
    Outcome,
    TrialSpec,
    execute_outcome,
    resolve_workers,
)

__all__ = ["ProcessPoolBackend"]


def _run_batch(
    fn: Callable[[TrialSpec], Any], batch: Sequence[TrialSpec]
) -> List[Outcome]:
    """Execute one batch in-worker (module-level: pickles)."""
    return [execute_outcome(fn, spec) for spec in batch]


class ProcessPoolBackend(Backend):
    """Fan trials across ``workers`` processes, deterministically.

    Trial functions must be picklable: module-level functions,
    ``functools.partial`` of module-level functions, or picklable
    callables.  ``chunk_size`` controls how many specs each pool task
    carries; the default amortizes IPC overhead at roughly four chunks per
    worker.  ``workers`` may exceed the core count (the OS time-slices) and
    accepts ``"auto"`` for the machine's core count.
    """

    name = "pool"

    def __init__(
        self, workers: int = 2, chunk_size: Optional[int] = None
    ) -> None:
        workers = resolve_workers(workers)
        if workers < 1:
            raise ValueError(f"pool workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = workers
        self.chunk_size = chunk_size
        self._pool: Optional["multiprocessing.pool.Pool"] = None

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def _get_pool(self) -> "multiprocessing.pool.Pool":
        if self._pool is None:
            self._pool = multiprocessing.Pool(processes=self.workers)
        return self._pool

    def _chunk(self, count: Optional[int]) -> int:
        """Deterministic chunk size for a (possibly unknown) spec count.

        With a known total, ≈4 chunks per worker so tiny workloads still
        spread across every process; :data:`~repro.harness.backends.base.
        STREAM_CHUNK` caps chunks for huge streams so results keep flowing
        back to online aggregators.
        """
        if self.chunk_size is not None:
            return self.chunk_size
        if count is not None:
            return max(1, min(STREAM_CHUNK, math.ceil(count / (self.workers * 4))))
        return STREAM_CHUNK

    def stream(
        self,
        fn: Callable[[TrialSpec], Any],
        specs: Iterable[TrialSpec],
        count: Optional[int] = None,
        window: Optional[int] = None,
    ) -> Iterator[Any]:
        """Keep ``workers`` processes busy, at most about ``window`` ahead.

        Specs go out as ``apply_async`` batches with at most ``window //
        batch`` batches in flight; without ``window`` that is four chunks
        per worker.  Batches are sized so the window spreads across *every*
        worker (one batch per worker when the window allows), not clamped to
        the IPC-amortizing chunk — a window-sized slice of a large stream
        must still saturate the pool.  Dropping the generator waits out only
        those in-flight batches, so the pool stays clean for a graceful
        :meth:`close`.
        """
        chunk = self._chunk(count)
        if window is None:
            window = 4 * self.workers * chunk
        elif window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        batch_size = max(1, min(chunk, window // self.workers))
        max_batches = max(1, window // batch_size)
        worker = functools.partial(_run_batch, fn)
        spec_iter = iter(specs)
        pending: "deque[multiprocessing.pool.AsyncResult]" = deque()
        pool = None

        def submit() -> bool:
            nonlocal pool
            batch = tuple(itertools.islice(spec_iter, batch_size))
            if not batch:
                return False
            pool = self._get_pool()
            pending.append(pool.apply_async(worker, (batch,)))
            return True

        try:
            while len(pending) < max_batches and submit():
                pass
            while pending:
                outcomes = pending.popleft().get()
                submit()
                for outcome in outcomes:
                    yield outcome.unwrap()
        finally:
            # Cancellation path: the feeder is this generator, so nothing
            # beyond ``pending`` was ever queued.  Wait the bounded
            # remainder out; workers are then idle and reusable.  A pool
            # :meth:`abort` already killed will never answer.
            if self._pool is pool:
                for result in pending:
                    result.wait()

    def close(self) -> None:
        """Graceful teardown: finish in-flight batches, then join workers.

        Workers exit through their normal shutdown path (``atexit`` hooks,
        coverage flush).  A later ``map``/``stream`` transparently re-creates
        the pool.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def abort(self) -> None:
        """Hard teardown for error paths: kill workers without waiting."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.abort()
        except Exception:
            pass
