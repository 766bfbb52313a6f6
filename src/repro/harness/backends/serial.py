"""In-process serial execution — the reference backend.

The pool backend is measured against this one: same per-trial computation,
no pool, no pickling, pdb/coverage-friendly.  Serial execution additionally
*fails fast*: nothing after the first failing trial runs (the pool
necessarily completes in-flight work), and the original exception stays
reachable via ``TrialError.__cause__``.
"""

from __future__ import annotations

import traceback
from typing import Any, Callable, Iterable, Iterator, List, Optional

from .base import Backend, TrialError, TrialSpec

__all__ = ["SerialBackend"]


class SerialBackend(Backend):
    """Run trials one after another in the calling process."""

    name = "serial"

    def map(
        self, fn: Callable[[TrialSpec], Any], specs: Iterable[TrialSpec]
    ) -> List[Any]:
        results: List[Any] = []
        for spec in specs:
            try:
                results.append(fn(spec))
            except Exception as exc:
                raise TrialError(
                    spec.index, spec.seed, traceback.format_exc()
                ) from exc
        return results

    def stream(
        self,
        fn: Callable[[TrialSpec], Any],
        specs: Iterable[TrialSpec],
        count: Optional[int] = None,
        window: Optional[int] = None,
    ) -> Iterator[Any]:
        """Fully lazy: a trial runs only when its result is pulled.

        Zero read-ahead, so any ``window`` is trivially honored and a
        dropped stream abandons nothing.
        """
        for spec in specs:
            try:
                yield fn(spec)
            except Exception as exc:
                raise TrialError(
                    spec.index, spec.seed, traceback.format_exc()
                ) from exc
