"""Vectorized batch kernels for the sampling-level estimators.

The per-trial functions in :mod:`repro.montecarlo.experiments` are already
numpy code, but at one trial per dispatch the engine overhead (spec
construction, a handful of small array ops, Python aggregation) dominates
once ``n`` is small relative to the trial count.  The kernels here run a
*batch* of consecutive trials as one unit of work: every trial still draws
from its own ``np.random.default_rng(derive_seed(master_seed, index))``
generator — computed *inside* the batch, so results are bit-identical to
the one-trial-per-spec path on any backend — while the expensive
post-draw steps (argpartition, bincount) run once across the whole batch.

Batches travel through the normal :class:`~repro.harness.parallel
.ExperimentEngine` / Backend seam: one :class:`TrialSpec` per batch, so
``workers=`` parallelism applies to batches exactly as it does to
trials.

Only the analytical estimators with rectangular draws are vectorized
(prepare-quorum, termination, view-change).  The optimal-split attack
estimator keeps the general path: its per-trial work is six membership
matrices and the batch win is marginal.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np

from ..harness.backends import derive_seed
from ..harness.parallel import ExperimentEngine, TrialSpec

__all__ = ["run_batches", "DEFAULT_BATCH"]

#: Trials folded into one batch spec.  Large enough to amortize dispatch,
#: small enough that a pool still load-balances a few thousand trials.
DEFAULT_BATCH = 256

#: Rows of noise argpartitioned per internal chunk.  A full batch's noise
#: tensor can run to tens of megabytes; selecting in ~1 MB slices keeps the
#: working set cache-resident (argpartition output is independent per row,
#: so chunking changes nothing but locality).
_CHUNK_DOUBLES = 1 << 17

#: Rows of noise *materialized* at once.  A whole batch's noise at n=500 is
#: hundreds of megabytes; trials are grouped so one slab stays a few MB —
#: large enough to amortize per-call numpy overhead, small enough to avoid
#: page-fault churn.  Grouping is invisible in the results (each trial's
#: draws still come from its own generator).
_SLAB_ROWS = 1 << 12


def _argpartition_rows(noise: np.ndarray, s: int) -> np.ndarray:
    """Per-row partial selection of the ``s`` smallest, cache-friendly.

    Equivalent to ``np.argpartition(noise, s, axis=1)[:, :s]`` (each row is
    selected independently), applied in row chunks sized to stay in cache.
    """
    rows, n = noise.shape
    chunk = max(1, _CHUNK_DOUBLES // max(n, 1))
    if rows <= chunk:
        return np.argpartition(noise, s, axis=1)[:, :s]
    out = np.empty((rows, s), dtype=np.int64)
    for lo in range(0, rows, chunk):
        hi = min(lo + chunk, rows)
        out[lo:hi] = np.argpartition(noise[lo:hi], s, axis=1)[:, :s]
    return out


def _group_counts(
    rngs: Sequence[np.random.Generator],
    n: int,
    senders_per_trial: Sequence[int],
    s: int,
    counts_out: np.ndarray,
    lo: int,
) -> None:
    """Inclusion counts for one trial group, written to ``counts_out[lo:]``.

    Replays :func:`repro.montecarlo.sampling.inclusion_counts` for each
    trial: the noise comes from that trial's own generator (``out=`` fills
    the same stream positions as ``rng.random((m, n))``), one chunked
    argpartition covers the whole group, and each trial bincounts its own
    contiguous member rows — per-row selection and per-trial counting are
    independent, so the batched result matches the per-trial calls bit for
    bit.
    """
    total_rows = int(sum(senders_per_trial))
    if total_rows == 0:
        return
    noise = np.empty((total_rows, n), dtype=np.float64)
    row = 0
    for rng, m in zip(rngs, senders_per_trial):
        if m:
            rng.random(out=noise[row : row + m])
            row += m
    if s == n:
        members = np.broadcast_to(
            np.arange(n), (total_rows, n)
        ).astype(np.int64, copy=False)
    else:
        members = _argpartition_rows(noise, s)
    row = 0
    for t, m in enumerate(senders_per_trial):
        if m:
            counts_out[lo + t] = np.bincount(
                members[row : row + m].ravel(), minlength=n
            )
            row += m


def _inclusion_counts_matrix(
    rngs: Sequence[np.random.Generator],
    n: int,
    senders_per_trial: Sequence[int],
    s: int,
) -> np.ndarray:
    """Per-trial receiver inclusion counts, ``(trials, n)``.

    Trials are processed in slabs of at most :data:`_SLAB_ROWS` noise rows;
    ``senders_per_trial`` may be uniform (stage 1) or ragged (termination's
    commit stage, where each trial's committer count differs).
    """
    trials = len(rngs)
    counts = np.zeros((trials, n), dtype=np.int64)
    lo = 0
    while lo < trials:
        hi = lo + 1
        rows = senders_per_trial[lo]
        while hi < trials and rows + senders_per_trial[hi] <= _SLAB_ROWS:
            rows += senders_per_trial[hi]
            hi += 1
        _group_counts(
            rngs[lo:hi], n, senders_per_trial[lo:hi], s, counts, lo
        )
        lo = hi
    return counts


def _batch_rngs(
    master_seed: int, start: int, count: int
) -> List[np.random.Generator]:
    """The batch's per-trial generators, seeded exactly like the engine."""
    return [
        np.random.default_rng(derive_seed(master_seed, start + j))
        for j in range(count)
    ]


# ----------------------------------------------------------------------
# Batch trial functions (module-level so they pickle into pool workers).
# Each consumes one TrialSpec whose params carry (master_seed, start,
# count, *sizes) and returns the batch's rows in trial order — the same
# row tuples the corresponding per-trial function produces.
# ----------------------------------------------------------------------


def prepare_quorum_batch(spec: TrialSpec) -> List[tuple]:
    master_seed, start, count, n, f, q, s = spec.params
    n_correct = n - f
    rngs = _batch_rngs(master_seed, start, count)
    counts = _inclusion_counts_matrix(rngs, n, [n_correct] * count, s)
    formed = counts[:, :n_correct] >= q
    return [(bool(row[0]), bool(row.all())) for row in formed]


def termination_batch(spec: TrialSpec) -> List[tuple]:
    master_seed, start, count, n, f, q, s = spec.params
    n_correct = n - f
    rngs = _batch_rngs(master_seed, start, count)
    prep_counts = _inclusion_counts_matrix(rngs, n, [n_correct] * count, s)
    prepared = prep_counts[:, :n_correct] >= q
    ms = [int(m) for m in prepared.sum(axis=1)]
    commit_counts = _inclusion_counts_matrix(rngs, n, ms, s)
    decided = prepared & (commit_counts[:, :n_correct] >= q)
    return [
        (bool(decided[t, 0]), bool(decided[t].all()), ms[t] / n_correct)
        for t in range(count)
    ]


def viewchange_batch(spec: TrialSpec) -> List[bool]:
    master_seed, start, count, n, r, q, s = spec.params
    rngs = _batch_rngs(master_seed, start, count)
    counts = _inclusion_counts_matrix(rngs, n, [r] * count, s)
    return [bool(c >= q) for c in counts[:, 0]]


def run_batches(
    eng: ExperimentEngine,
    fn: Any,
    trials: int,
    master_seed: int,
    sizes: Tuple[Any, ...],
    batch_size: int = DEFAULT_BATCH,
) -> List[Any]:
    """Fan ``trials`` through ``fn`` in batches; flattened rows in order.

    One spec per batch goes through the engine's normal map (so a pool
    parallelizes across batches); each batch recomputes its
    trials' seeds from ``(master_seed, start index)`` internally, keeping
    the rows bit-identical to the per-trial dispatch for any batch size.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    specs = []
    start = 0
    while start < trials:
        count = min(batch_size, trials - start)
        specs.append(
            TrialSpec(
                index=len(specs),
                seed=derive_seed(master_seed, start),
                params=(master_seed, start, count) + tuple(sizes),
            )
        )
        start += count
    rows: List[Any] = []
    for batch in eng.map(fn, specs):
        rows.extend(batch)
    return rows
