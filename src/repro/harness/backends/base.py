"""The execution-backend seam: trial specs, seeds, and the Backend protocol.

Everything an execution strategy needs lives here, independent of any one
strategy:

* the **trial vocabulary** — :class:`TrialSpec` (one unit of work),
  :class:`TrialError` (a failing trial, with its identity), and the
  :class:`Outcome` envelope that carries a value *or* a stringified failure
  across process/thread boundaries;
* **counter-based seed splitting** — :func:`derive_seed` /
  :func:`spawn_seeds`, pure integer functions of ``(master_seed, index)``
  with no RNG state, so any worker (in any process, on any host) can
  compute any trial's seed independently;
* the :class:`Backend` protocol itself — ``map``/``stream``/``close`` —
  which both execution strategies implement and every experiment surface
  (engine, matrix, Monte-Carlo, benches, CLI) consumes.

The one hard guarantee both backends keep:

**identical trial functions + identical specs ⇒ bit-identical results, in
submission order, for every backend and every worker count.**

Seed derivation makes per-trial randomness scheduling-independent;
submission-order collection makes even order-sensitive aggregation (float
summation) reproducible.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Optional, Union

__all__ = [
    "Backend",
    "Outcome",
    "STREAM_CHUNK",
    "TrialError",
    "TrialSpec",
    "derive_seed",
    "execute_outcome",
    "resolve_workers",
    "spawn_seeds",
    "workers_from_env",
]

#: Pool chunk size for streaming maps, where the spec count may be unknown
#: (lazy generators): large enough to amortize IPC, small enough that
#: results flow back steadily for online aggregation.
STREAM_CHUNK = 16

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


def workers_from_env(var: str = "REPRO_WORKERS", default: int = 0) -> int:
    """Worker count from an environment variable; invalid values mean default.

    Shared by the benchmarks (``REPRO_BENCH_WORKERS``) so the parsing rule
    lives in one place: a non-integer or negative value falls back to
    ``default`` rather than crashing at import time.  ``auto`` resolves to
    the machine's core count (see :func:`resolve_workers`).
    """
    raw = os.environ.get(var)
    if raw is None:
        return default
    if raw.strip().lower() == "auto":
        return resolve_workers("auto")
    try:
        workers = int(raw)
    except ValueError:
        return default
    return workers if workers >= 0 else default


def resolve_workers(workers: Union[int, str]) -> int:
    """Resolve a worker-count request to a concrete integer.

    ``"auto"`` (case-insensitive) means the machine's core count — the
    saturate-the-hardware default for ``repro sweep --workers auto``.
    Integers pass through unchanged (validation happens at the backend).
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


@dataclass
class Outcome:
    """What crosses an execution boundary: a value or a stringified failure."""

    index: int
    seed: int
    value: Any = None
    error: Optional[str] = None

    def unwrap(self) -> Any:
        """The value, or the :class:`TrialError` the failure maps to."""
        if self.error is not None:
            raise TrialError(self.index, self.seed, self.error)
        return self.value


def execute_outcome(fn: Callable[[TrialSpec], Any], spec: TrialSpec) -> Outcome:
    """Run one trial, capturing any exception as data (always picklable)."""
    try:
        return Outcome(index=spec.index, seed=spec.seed, value=fn(spec))
    except Exception:
        return Outcome(
            index=spec.index, seed=spec.seed, error=traceback.format_exc()
        )


class Backend:
    """The execution seam: evaluate trial specs, deterministically.

    Implementations choose *where and when* trials run — in-process
    (:class:`~repro.harness.backends.serial.SerialBackend`) or across a
    process pool (:class:`~repro.harness.backends.pool.ProcessPoolBackend`)
    — but never *what they compute*: results are bit-identical across
    backends and arrive in submission order.

    Contract:

    * :meth:`map` — evaluate ``fn`` on every spec, return a materialized
      list in submission order; the first failing trial (in submission
      order) raises :class:`TrialError`.
    * :meth:`stream` — the lazy sibling: yield results as they arrive, in
      submission order; same error semantics.  ``count`` (when the total is
      known) lets the pool size its chunks deterministically.
    * :meth:`close` — release execution resources (idempotent; a later
      ``map``/``stream`` transparently re-acquires them).

    **Bounded-window / cancellation contract** — every stream promises:

    * *bounded dispatch*: at most about ``window`` specs (within one chunk
      of rounding) are consumed from ``specs`` ahead of the results already
      yielded, so a lazy seed range is never drained ahead of the consumer;
      without ``window`` the backend picks the bound;
    * *prompt cancellation*: dropping the stream mid-iteration
      (``generator.close()``, ``break``, error) abandons only that bounded
      in-flight window — the backend finishes it promptly and its workers
      are immediately reusable; a following ``close()`` stays on the
      graceful path (no terminate, no full-range drain).

    Backends are context managers (``with ProcessPoolBackend(8) as b:``),
    closing on exit.
    """

    #: Name recorded in reports (``serial``/``pool``).
    name: str = "abstract"

    @property
    def parallel(self) -> bool:
        """Whether trials may execute concurrently (scheduling only —
        results are identical either way)."""
        return False

    def map(
        self, fn: Callable[[TrialSpec], Any], specs: Iterable[TrialSpec]
    ) -> List[Any]:
        """Evaluate ``fn`` on every spec; results in submission order."""
        specs = list(specs)
        return list(self.stream(fn, specs, count=len(specs)))

    def stream(
        self,
        fn: Callable[[TrialSpec], Any],
        specs: Iterable[TrialSpec],
        count: Optional[int] = None,
        window: Optional[int] = None,
    ) -> Iterator[Any]:
        """Lazily evaluate ``fn`` over ``specs`` in submission order.

        ``window`` (when given, >= 1) sets the read-ahead bound of the
        contract above; ``None`` lets the backend choose it.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release execution resources (idempotent)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
