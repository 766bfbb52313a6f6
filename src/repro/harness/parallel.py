"""Parallel Monte-Carlo experiment engine, layered on execution backends.

The Figure-5 experiments are embarrassingly parallel: every trial is an
independent function of its own seed.  :class:`ExperimentEngine` exploits
that by fanning ``(index, seed, params)`` trial specs across an
**execution backend** (:mod:`repro.harness.backends`) while keeping one
hard guarantee:

**every backend and every worker count produces bit-identical results.**

Two mechanisms make that hold:

* *counter-based seed splitting* — every trial's seed is derived from the
  master seed and the trial index alone (`derive_seed`, a SplitMix64-style
  integer mix with no :mod:`random`/:mod:`numpy` state involved), so a
  trial's randomness never depends on which process runs it or in which
  order trials complete;
* *submission-order collection* — :meth:`ExperimentEngine.map` returns
  results in the order the specs were submitted regardless of completion
  order, so even order-sensitive aggregation (e.g. float summation) is
  reproducible.

Backend selection:

* ``workers <= 1`` (default) — :class:`SerialBackend
  <repro.harness.backends.serial.SerialBackend>`: in-process, no pickling,
  pdb/coverage-friendly;
* ``workers > 1`` — :class:`ProcessPoolBackend
  <repro.harness.backends.pool.ProcessPoolBackend>`: the CPU-scaling
  path (trial functions must be picklable).
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterable, Iterator, List, Optional, Union

from .backends import (
    Backend,
    ProcessPoolBackend,
    SerialBackend,
    TrialError,
    TrialSpec,
    derive_seed,
    resolve_workers,
    spawn_seeds,
    workers_from_env,
)

__all__ = [
    "Backend",
    "ExperimentEngine",
    "TrialError",
    "TrialSpec",
    "derive_seed",
    "engine_scope",
    "resolve_engine",
    "resolve_workers",
    "spawn_seeds",
    "workers_from_env",
]


class ExperimentEngine:
    """Fans independent trials across an execution backend, deterministically.

    Example:
        >>> from repro.harness.parallel import ExperimentEngine, TrialSpec
        >>> engine = ExperimentEngine(workers=0)  # serial
        >>> engine.run_trials(lambda spec: spec.seed % 7, trials=3)  # doctest: +ELLIPSIS
        [...]

    ``workers``:
        * ``0`` or ``1`` — in-process serial execution (identical results);
        * ``k > 1``      — a pool of ``k`` processes (``k`` may exceed the
          core count; the OS just time-slices);
        * ``"auto"``     — the machine's core count.

    ``backend`` overrides the worker-count default: ``"serial"``,
    ``"pool"`` (``workers`` processes, the core count for ``workers=0``) or
    a constructed :class:`~repro.harness.backends.base.Backend` instance
    (which the engine then owns and closes).  ``chunk_size`` controls how
    many specs each pool task carries; the default amortizes IPC overhead
    at roughly four chunks per worker.
    """

    def __init__(
        self,
        workers: Union[int, str] = 0,
        chunk_size: Optional[int] = None,
        backend: Optional[Union[str, Backend]] = None,
    ) -> None:
        workers = resolve_workers(workers)
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if isinstance(backend, Backend):
            # A constructed instance is authoritative: its own configuration
            # wins, and ``workers`` below reflects what actually executes
            # (``workers=``/``chunk_size=`` arguments are not re-applied).
            self._backend = backend
        elif backend == "pool" or (backend is None and workers > 1):
            self._backend = ProcessPoolBackend(
                workers=workers or resolve_workers("auto"),
                chunk_size=chunk_size,
            )
        elif backend in (None, "serial"):
            self._backend = SerialBackend()
        else:
            raise ValueError(
                f"unknown backend {backend!r}; expected 'serial', 'pool' "
                f"or a Backend instance"
            )
        #: The concurrency that actually executes — read from the backend
        #: (an explicit pool without workers resolves to the core count).  A
        #: serial backend carries no worker count: a
        #: caller-constructed one reports 0 regardless of the ``workers``
        #: argument (which it ignores); the name/default path reports the
        #: requested 0/1.
        self.workers = getattr(
            self._backend,
            "workers",
            0 if isinstance(backend, Backend) else workers,
        )

    @property
    def backend(self) -> Backend:
        """The execution backend this engine delegates to."""
        return self._backend

    @property
    def backend_name(self) -> str:
        return self._backend.name

    @property
    def parallel(self) -> bool:
        return self._backend.parallel

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable[[TrialSpec], Any],
        specs: Iterable[TrialSpec],
    ) -> List[Any]:
        """Evaluate ``fn`` on every spec; results in submission order.

        The first failing trial (in submission order) raises
        :class:`TrialError` with the worker's traceback, whichever backend
        ran it.  The serial backend additionally fails fast (nothing after
        the failing trial runs) and chains the original exception as
        ``__cause__``.
        """
        return self._backend.map(fn, specs)

    def close(self) -> None:
        """Release the backend's execution resources, gracefully.

        In-flight work finishes and pool workers exit through their normal
        shutdown path (``atexit``/coverage hooks run); a later ``map()``
        transparently re-acquires resources.
        """
        self._backend.close()

    def abort(self) -> None:
        """Hard teardown for error paths: abandoned in-flight work is not
        waited for (pool workers are terminated).  Falls back to
        :meth:`close` on backends with nothing to kill."""
        abort = getattr(self._backend, "abort", None)
        if abort is not None:
            abort()
        else:
            self._backend.close()

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

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def stream(
        self,
        fn: Callable[[TrialSpec], Any],
        specs: Iterable[TrialSpec],
        count: Optional[int] = None,
        window: Optional[int] = None,
    ) -> Iterator[Any]:
        """Lazily evaluate ``fn`` over ``specs``, yielding in submission order.

        The streaming sibling of :meth:`map`: same determinism contract
        (submission-order results, :class:`TrialError` at the first failing
        trial), but results are *yielded as they arrive* instead of being
        materialized — a consumer folding them into O(1) accumulators runs a
        10⁵-trial experiment in constant memory at the aggregation layer.
        ``specs`` may itself be a lazy generator; pass ``count`` when the
        total is known so the pool sizes its chunks to spread small streams
        across all workers (without it, it falls back to
        :data:`~repro.harness.backends.base.STREAM_CHUNK`-sized batches).

        Every stream keeps the backend seam's **bounded-window /
        cancellation contract** (see :class:`~repro.harness.backends.base.
        Backend`): at most about ``window`` specs are dispatched ahead of
        the results consumed (the backend's own bound when ``None``), and
        dropping the stream mid-iteration abandons only that bounded
        in-flight window — what adaptive stopping
        (:mod:`repro.harness.adaptive`) relies on to cancel a cell without
        draining its full seed range.
        """
        return self._backend.stream(fn, specs, count=count, window=window)

    def run_stream(
        self,
        fn: Callable[[TrialSpec], Any],
        trials: int,
        master_seed: int = 0,
        params: Any = None,
        window: Optional[int] = None,
    ) -> Iterator[Any]:
        """Stream ``trials`` seeded trials of ``fn`` under ``master_seed``.

        The streaming sibling of :meth:`run_trials`: trial ``i`` receives
        ``TrialSpec(i, derive_seed(master_seed, i), params)`` and results
        arrive lazily in trial order — specs are generated on the fly, so
        neither inputs nor outputs are ever materialized here.  ``window``
        enables bounded/cancellable dispatch exactly as on :meth:`stream`
        (an adaptive consumer stopping early then wastes at most about one
        window of seeded trials).
        """
        if trials < 0:
            raise ValueError(f"trials must be >= 0, got {trials}")
        specs = (
            TrialSpec(index=i, seed=derive_seed(master_seed, i), params=params)
            for i in range(trials)
        )
        return self.stream(fn, specs, count=trials, window=window)

    # ------------------------------------------------------------------
    # Trial fan-out
    # ------------------------------------------------------------------
    def run_trials(
        self,
        fn: Callable[[TrialSpec], Any],
        trials: int,
        master_seed: int = 0,
        params: Any = None,
    ) -> List[Any]:
        """Run ``trials`` independent trials of ``fn`` under ``master_seed``.

        Trial ``i`` receives ``TrialSpec(i, derive_seed(master_seed, i),
        params)``; results come back in trial order.
        """
        if trials < 0:
            raise ValueError(f"trials must be >= 0, got {trials}")
        specs = [
            TrialSpec(index=i, seed=derive_seed(master_seed, i), params=params)
            for i in range(trials)
        ]
        return self.map(fn, specs)


def resolve_engine(
    engine: Optional[ExperimentEngine],
    workers: Union[int, str],
    backend: Optional[Union[str, Backend]] = None,
) -> ExperimentEngine:
    """The caller's engine if given, else a fresh one with ``workers``.

    ``backend`` (``"serial"``, ``"pool"`` or an instance) overrides the
    worker-count default for the fresh-engine case; a caller-supplied
    engine always wins.
    """
    if engine is not None:
        return engine
    return ExperimentEngine(workers=workers, backend=backend)


@contextlib.contextmanager
def engine_scope(
    engine: Optional[ExperimentEngine],
    workers: Union[int, str],
    backend: Optional[Union[str, Backend]] = None,
) -> Iterator[ExperimentEngine]:
    """Resolve an engine and own its lifecycle iff this scope created it.

    A caller-supplied ``engine`` passes through untouched (the caller
    amortizes its pool across calls and closes it); a scope-created engine
    is closed gracefully on success and aborted on error, so every
    experiment surface (estimators, matrices) releases its workers
    deterministically instead of leaking them to the garbage collector.
    """
    own = engine is None
    resolved = resolve_engine(engine, workers, backend)
    try:
        yield resolved
    except BaseException:
        if own:
            resolved.abort()
        raise
    else:
        if own:
            resolved.close()
