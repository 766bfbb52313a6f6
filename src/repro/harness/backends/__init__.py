"""Execution backends for the experiment engine.

One seam, two strategies: :class:`SerialBackend` runs trials in-process,
:class:`ProcessPoolBackend` fans them across one bounded process pool.
:class:`~repro.harness.parallel.ExperimentEngine` picks between them by
worker count.  Both keep the same hard guarantee: **bit-identical results
in submission order for identical specs**, because per-trial seeds are
counter-derived (scheduling-independent) and collection order is submission
order.
"""

from __future__ import annotations

from .base import (
    STREAM_CHUNK,
    Backend,
    Outcome,
    TrialError,
    TrialSpec,
    derive_seed,
    execute_outcome,
    resolve_workers,
    spawn_seeds,
    workers_from_env,
)
from .pool import ProcessPoolBackend
from .serial import SerialBackend

__all__ = [
    "Backend",
    "Outcome",
    "ProcessPoolBackend",
    "STREAM_CHUNK",
    "SerialBackend",
    "TrialError",
    "TrialSpec",
    "derive_seed",
    "execute_outcome",
    "resolve_workers",
    "spawn_seeds",
    "workers_from_env",
]
