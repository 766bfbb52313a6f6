"""The experiment engine: seeded trials, serial or on one process pool.

The Figure-5 experiments are embarrassingly parallel: every trial is an
independent function of its own seed.  :class:`ExperimentEngine` runs
``(index, seed, params)`` trial specs in-process (``workers <= 1``) or
across one bounded ``multiprocessing`` pool (``workers > 1``) while keeping
one hard guarantee:

**every worker count produces bit-identical results, in submission order.**

Two mechanisms make that hold:

* *counter-based seed splitting* — every trial's seed is derived from the
  master seed and the trial index alone (:func:`derive_seed`, a
  SplitMix64-style integer mix with no :mod:`random`/:mod:`numpy` state
  involved), so a trial's randomness never depends on which process runs
  it or in which order trials complete;
* *submission-order collection* — :meth:`ExperimentEngine.stream` yields
  results in the order the specs were submitted regardless of completion
  order, so even order-sensitive aggregation (e.g. float summation) is
  reproducible.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import multiprocessing
import multiprocessing.pool
import os
import traceback
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = [
    "ExperimentEngine",
    "TrialError",
    "TrialSpec",
    "WINDOW_PER_WORKER",
    "derive_seed",
    "engine_scope",
    "resolve_workers",
    "spawn_seeds",
]

#: Default read-ahead of a pooled stream, per worker: four 16-trial batches
#: keep every process busy while results flow back steadily to online folds.
WINDOW_PER_WORKER = 64

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    """One SplitMix64 output step (Steele, Lea & Flood 2014)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master_seed: int, index: int) -> int:
    """Deterministic child seed for trial ``index`` under ``master_seed``.

    A pure integer function (no RNG state), so any worker can compute any
    trial's seed independently.  Distinct indices under one master seed give
    statistically independent streams when fed to ``numpy`` /
    :class:`random.Random` as seeds.
    """
    if index < 0:
        raise ValueError(f"trial index must be >= 0, got {index}")
    z = _splitmix64((master_seed & _MASK64) + _GOLDEN)
    return _splitmix64(z + (index + 1) * _GOLDEN)


def spawn_seeds(master_seed: int, count: int) -> List[int]:
    """The first ``count`` child seeds of ``master_seed``, in index order."""
    return [derive_seed(master_seed, i) for i in range(count)]


def resolve_workers(workers: Union[int, str]) -> int:
    """Resolve a worker-count request to a concrete integer.

    ``"auto"`` (case-insensitive) means the machine's core count — the
    saturate-the-hardware default for ``repro sweep --workers auto``.
    Integers pass through unchanged (the engine validates them).
    """
    if isinstance(workers, str):
        if workers.strip().lower() == "auto":
            return os.cpu_count() or 1
        try:
            return int(workers)
        except ValueError:
            raise ValueError(
                f"workers must be an integer or 'auto', got {workers!r}"
            ) from None
    return workers


@dataclass(frozen=True)
class TrialSpec:
    """One unit of work: a trial index, its derived seed, and shared params."""

    index: int
    seed: int
    params: Any = None


class TrialError(RuntimeError):
    """A trial function raised; carries the failing trial's identity."""

    def __init__(self, index: int, seed: int, detail: str) -> None:
        super().__init__(f"trial {index} (seed {seed}) failed:\n{detail}")
        self.index = index
        self.seed = seed
        self.detail = detail


def _run_batch(
    fn: Callable[[TrialSpec], Any], batch: Sequence[TrialSpec]
) -> List[Tuple[Any, Optional[str]]]:
    """Run one batch in a worker: a ``(value, traceback)`` pair per spec.

    Module-level so it pickles; a failure travels back as its formatted
    traceback, which always pickles where the exception may not.
    """
    out: List[Tuple[Any, Optional[str]]] = []
    for spec in batch:
        try:
            out.append((fn(spec), None))
        except Exception:
            out.append((None, traceback.format_exc()))
    return out


class ExperimentEngine:
    """Runs independent trials, serially or on one process pool.

    Example:
        >>> from repro.harness.parallel import ExperimentEngine, TrialSpec, derive_seed
        >>> engine = ExperimentEngine(workers=0)  # serial
        >>> specs = [TrialSpec(i, derive_seed(5, i)) for i in range(3)]
        >>> engine.map(lambda spec: spec.index, specs)
        [0, 1, 2]

    ``workers``:
        * ``0`` or ``1`` — in-process serial execution: no pickling,
          pdb/coverage-friendly, and fail-fast (nothing after a failing
          trial runs; the original exception is ``TrialError.__cause__``);
        * ``k > 1``      — a pool of ``k`` processes (``k`` may exceed the
          core count; the OS just time-slices).  Trial functions must
          pickle: module-level functions or partials of them;
        * ``"auto"``     — the machine's core count.

    The pool is created on first use and persists across calls, amortizing
    process startup over an experiment series.  :meth:`close` (and a clean
    ``with`` exit) shuts it down gracefully: in-flight batches finish and
    workers run their ``atexit``/coverage hooks.  Only :meth:`abort` (an
    error exit) and garbage collection terminate workers.
    """

    def __init__(self, workers: Union[int, str] = 0) -> None:
        workers = resolve_workers(workers)
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self._pool: Optional["multiprocessing.pool.Pool"] = None

    # ------------------------------------------------------------------
    # The primitive
    # ------------------------------------------------------------------
    def stream(
        self,
        fn: Callable[[TrialSpec], Any],
        specs: Iterable[TrialSpec],
        window: Optional[int] = None,
    ) -> Iterator[Any]:
        """Lazily evaluate ``fn`` over ``specs``, yielding in submission order.

        The first failing trial (in submission order) raises
        :class:`TrialError` carrying its index, seed and traceback.
        ``specs`` may be a lazy generator: a consumer folding results into
        O(1) accumulators runs a 10⁵-trial experiment in constant memory.

        **Bounded window.**  At most about ``window`` specs are drawn from
        ``specs`` ahead of the results consumed (default
        :data:`WINDOW_PER_WORKER` per worker).  The serial path draws none
        ahead.  The pool sends them in ``apply_async`` batches sized so the
        first window spreads over every worker four times, so even a short
        stream reaches every process.  Dropping the stream mid-iteration
        (``close()``, ``break``, an error) waits out only the batches in
        flight, and the pool stays clean for a graceful :meth:`close`.
        That is what lets adaptive stopping (:mod:`repro.harness.adaptive`)
        cancel a cell without draining its seed range.
        """
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if self.workers <= 1:
            return self._serial(fn, specs)
        return self._pooled(fn, specs, window or WINDOW_PER_WORKER * self.workers)

    @staticmethod
    def _serial(
        fn: Callable[[TrialSpec], Any], specs: Iterable[TrialSpec]
    ) -> Iterator[Any]:
        for spec in specs:
            try:
                value = fn(spec)
            except Exception as exc:
                raise TrialError(
                    spec.index, spec.seed, traceback.format_exc()
                ) from exc
            yield value

    def _pooled(
        self,
        fn: Callable[[TrialSpec], Any],
        specs: Iterable[TrialSpec],
        window: int,
    ) -> Iterator[Any]:
        spec_iter = iter(specs)
        head = list(itertools.islice(spec_iter, window))
        if not head:
            return
        size = math.ceil(len(head) / (4 * self.workers))
        spec_iter = itertools.chain(head, spec_iter)
        batches = iter(lambda: tuple(itertools.islice(spec_iter, size)), ())
        task = functools.partial(_run_batch, fn)
        if self._pool is None:
            self._pool = multiprocessing.Pool(processes=self.workers)
        pool = self._pool
        pending: "deque[Tuple[tuple, multiprocessing.pool.AsyncResult]]" = deque()

        def submit(count: int) -> None:
            for batch in itertools.islice(batches, count):
                pending.append((batch, pool.apply_async(task, (batch,))))

        try:
            submit(math.ceil(window / size))
            while pending:
                batch, result = pending.popleft()
                outcomes = result.get()
                submit(1)
                for spec, (value, error) in zip(batch, outcomes):
                    if error is not None:
                        raise TrialError(spec.index, spec.seed, error)
                    yield value
        finally:
            # Nothing beyond ``pending`` was ever queued: wait that bounded
            # remainder out and the workers are idle and reusable.  A pool
            # :meth:`abort` already killed will never answer.
            if self._pool is pool:
                for _batch, result in pending:
                    result.wait()

    def map(
        self, fn: Callable[[TrialSpec], Any], specs: Iterable[TrialSpec]
    ) -> List[Any]:
        """Evaluate ``fn`` on every spec; results in submission order."""
        return list(self.stream(fn, specs))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Graceful teardown: finish in-flight batches, then join workers.

        A later stream transparently re-creates the pool.
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

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.abort()
        except Exception:
            pass


@contextlib.contextmanager
def engine_scope(
    engine: Optional[ExperimentEngine], workers: Union[int, str]
) -> Iterator[ExperimentEngine]:
    """The caller's engine, or a fresh one with ``workers`` owned by this scope.

    A caller-supplied ``engine`` passes through untouched (the caller
    amortizes its pool across calls and closes it); a scope-created engine
    is closed gracefully on success and aborted on error, so
    :func:`~repro.harness.registry.run_matrix` releases its workers
    deterministically instead of leaking them to the garbage collector.
    """
    if engine is not None:
        yield engine
        return
    with ExperimentEngine(workers=workers) as owned:
        yield owned
