"""In-process asyncio execution: overlap trial lifecycles without processes.

:class:`AsyncioBackend` drives trials through an :mod:`asyncio` event loop
whose work lands on a small thread pool.  A bounded window of trials is in
flight at once, so while the submission-order head trial finishes, the
trials behind it are already building — in particular, a trial's
:meth:`~repro.harness.trial.TrialContext.build` crypto warm-up (key-registry
derivation inside :meth:`CryptoContext.pooled
<repro.crypto.context.CryptoContext.pooled>`, dominated by SHA-256) overlaps
the ``execute()`` phase of the trials ahead of it, and the first trial to
build a given ``(n, master_seed)`` pool entry publishes it to every
concurrent trial in the same process.

Honest scope note: this is *in-process* concurrency under the GIL.  It wins
when trial functions spend time outside pure-Python bytecode (NumPy kernels,
``hashlib`` over large buffers, any future I/O-bound trial source) and when
warm-up can hide behind execution; for pure-Python CPU-bound trials the
process pool or sharded backends are the scaling tools.  What it never
compromises is the seam's contract — results are collected in submission
order from counter-seeded trials, so they are bit-identical to every other
backend.

Trial functions must be thread-safe (the experiment surfaces' module-level
trial functions are: they share only the lock-protected pool of immutable
key registries); they do *not* need to be picklable, which makes
this the concurrent backend of choice for closures and rich in-memory
params.
"""

from __future__ import annotations

import asyncio
import functools
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator, Optional

from .base import Backend, TrialSpec, execute_outcome, resolve_workers

__all__ = ["AsyncioBackend"]


class AsyncioBackend(Backend):
    """Overlap trials on an event loop backed by ``workers`` threads.

    ``window`` bounds how many trials are in flight ahead of the consumer
    (default ``2 × workers``): enough to keep every thread busy and hide
    build() warm-up behind execute(), small enough that a lazy spec
    generator is never materialized.
    """

    name = "async"

    def __init__(self, workers: int = 2, window: Optional[int] = None) -> None:
        workers = resolve_workers(workers)
        if workers < 1:
            raise ValueError(f"async workers must be >= 1, got {workers}")
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.workers = workers
        self.window = window if window is not None else 2 * workers
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def _get_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None or self._loop.is_closed():
            self._loop = asyncio.new_event_loop()
        return self._loop

    def _get_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-async-backend",
            )
        return self._executor

    def stream(
        self,
        fn: Callable[[TrialSpec], Any],
        specs: Iterable[TrialSpec],
        count: Optional[int] = None,
        window: Optional[int] = None,
    ) -> Iterator[Any]:
        """Yield results in submission order with a bounded in-flight window.

        The head-of-line future is awaited on the event loop; everything
        else in the window runs concurrently on the executor threads.
        Failures surface as :class:`~repro.harness.backends.base.TrialError`
        at the first failing trial in submission order (later in-flight
        trials complete in the background; their outcomes are discarded).

        This backend is windowed by construction, so the seam's
        bounded-window contract costs nothing: an explicit ``window``
        merely caps the configured one, and dropping the stream drains at
        most that many in-flight trials.
        """
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        effective_window = (
            self.window if window is None else min(self.window, window)
        )
        loop = self._get_loop()
        executor = self._get_executor()
        worker = functools.partial(execute_outcome, fn)
        spec_iter = iter(specs)
        pending: "deque[asyncio.Future]" = deque()

        def submit_next() -> bool:
            spec = next(spec_iter, None)
            if spec is None:
                return False
            pending.append(loop.run_in_executor(executor, worker, spec))
            return True

        try:
            while len(pending) < effective_window and submit_next():
                pass
            while pending:
                outcome = loop.run_until_complete(pending.popleft())
                submit_next()
                yield outcome.unwrap()
        finally:
            # On error/early close: let in-flight trials drain (they are
            # small and side-effect free) so the loop is quiesced for reuse.
            while pending:
                try:
                    loop.run_until_complete(pending.popleft())
                except Exception:  # pragma: no cover - defensive
                    pass

    def close(self) -> None:
        """Shut the executor down (waiting for in-flight trials) and close
        the loop; a later ``map``/``stream`` transparently re-creates both."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._loop is not None:
            if not self._loop.is_closed():
                self._loop.close()
            self._loop = None
