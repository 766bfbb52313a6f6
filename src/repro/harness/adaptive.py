"""Adaptive trial budgets: deterministic early stopping on Wilson intervals.

The headline Figure-5 metrics are binomial proportions, so every extra
trial buys a predictable narrowing of the cell's Wilson interval — and a
fixed trial budget keeps spending long after the interval is already
narrower than anyone will read off the plot.  This module lets every
experiment surface stop a cell as soon as its interval is *good enough*:

* :class:`StoppingRule` — the decision vocabulary: :class:`FixedBudget`
  (the classical cap, expressed as a rule) and :class:`TargetWidth` (stop
  when a named proportion metric's Wilson interval is at most ``width``
  wide).
* :func:`consume_adaptive` — the one driver loop every trial set runs,
  fixed budgets included: pull results from a (windowed) stream, fold each
  into the caller's accumulator, and evaluate the rule **only at
  deterministic checkpoint boundaries** (every ``chunk`` trials, plus once
  at stream exhaustion).
* the progress view rules consume — :class:`Progress`, which
  :class:`~repro.harness.registry.CellAccumulator` implements for matrix
  cells.

Determinism is the whole design: rules never see wall-clock, worker
counts, or completion order — only the submission-order prefix folded so
far — and they are consulted only when ``trials`` is a multiple of
``chunk`` (or the stream ends).  Because per-trial seeds are
counter-derived (:func:`~repro.harness.parallel.derive_seed`), an
adaptive run's results are **bit-identical to a prefix of the fixed-budget
run**, its ``trials_used`` is identical for every worker count, and
re-running it reproduces the same stop.  Early cancel travels through the
engine's bounded-window stream
(:meth:`~repro.harness.parallel.ExperimentEngine.stream`), so stopping a
cell abandons at most a window of in-flight trials instead of draining the
full seed range.

Choosing ``width`` and ``chunk``: for a proportion pinned near 0 or 1 (our
agreement/termination rates), an all-success Wilson interval has width
``z²/(t+z²)``, so a target width ``w`` resolves after roughly ``z²(1-w)/w``
trials (≈73 for ``w=0.05``, ≈7 for ``w=0.35`` at 95%).  ``chunk`` trades
checkpoint overhead against overshoot: the run can only stop at multiples
of ``chunk``, and cancellation abandons at most about one window (=
``chunk``) of in-flight trials, so pick a chunk a small fraction of the
expected stopping point.
"""

from __future__ import annotations

import typing
from typing import Callable, Iterable, Optional, Tuple

__all__ = [
    "DEFAULT_CHUNK",
    "FixedBudget",
    "STOP_BUDGET",
    "STOP_MAX_TRIALS",
    "STOP_TARGET_WIDTH",
    "StoppingRule",
    "TargetWidth",
    "consume_adaptive",
]

#: Default checkpoint period: rules are evaluated every this many trials.
DEFAULT_CHUNK = 32

#: Canonical stop reasons (the ``stop_reason`` column's vocabulary).
STOP_BUDGET = "budget"
STOP_TARGET_WIDTH = "target-width"
STOP_MAX_TRIALS = "max-trials"


class Progress(typing.Protocol):
    """What a stopping rule may observe: the folded submission-order prefix.

    ``trials`` is how many results have been folded so far; ``width(metric)``
    is the current Wilson interval width of a named proportion metric
    (``1.0`` before any trial — the zero-information interval).  Nothing
    else (no wall-clock, no scheduling) is visible, which is what keeps
    adaptive stops bit-reproducible.
    """

    @property
    def trials(self) -> int: ...  # pragma: no cover - protocol

    def width(self, metric: str) -> float: ...  # pragma: no cover - protocol


class StoppingRule:
    """Decides, at a checkpoint, whether a run has earned its stop.

    ``decision(progress)`` returns a short stop-reason string (e.g.
    ``"target-width"``) to stop, or ``None`` to continue.  Rules must be
    pure functions of the progress view — evaluated only at deterministic
    checkpoint boundaries by :func:`consume_adaptive`, which is what makes
    ``trials_used`` identical for every worker count.
    """

    def decision(self, progress: Progress) -> Optional[str]:
        raise NotImplementedError

    def trial_cap(self) -> Optional[int]:
        """The hard trial bound this rule guarantees, if any.

        :func:`consume_adaptive` inserts an extra checkpoint exactly at the
        cap, so declared bounds (``FixedBudget.trials``,
        ``TargetWidth.max_trials``) are honored to the trial even when they
        are not multiples of ``chunk``.  ``None`` means unbounded.
        """
        return None


class FixedBudget(StoppingRule):
    """The classical fixed budget, expressed as a rule: stop at ``trials``.

    Every fixed-budget trial set runs as this rule through
    :func:`consume_adaptive`, which checkpoints at the cap, so the rule
    fires exactly there (reason ``"budget"``).
    """

    def __init__(self, trials: int) -> None:
        if trials < 1:
            raise ValueError(f"budget trials must be >= 1, got {trials}")
        self.trials = trials

    def decision(self, progress: Progress) -> Optional[str]:
        return STOP_BUDGET if progress.trials >= self.trials else None

    def trial_cap(self) -> Optional[int]:
        return self.trials

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FixedBudget({self.trials})"


class TargetWidth(StoppingRule):
    """Stop when ``metric``'s Wilson interval is at most ``width`` wide.

    ``metric`` names a proportion the progress view exposes
    (``agreement_rate`` for matrix cells).  ``min_trials`` refuses to stop
    before a floor (checkpointing already imposes one chunk); ``max_trials``
    is a built-in cap for open-ended streams — with reason ``"max-trials"``
    so reports distinguish *converged* from *gave up*.
    """

    def __init__(
        self,
        width: float,
        metric: str = "agreement_rate",
        min_trials: int = 1,
        max_trials: Optional[int] = None,
    ) -> None:
        if not 0.0 < width <= 1.0:
            raise ValueError(f"target width must be in (0, 1], got {width}")
        if min_trials < 1:
            raise ValueError(f"min_trials must be >= 1, got {min_trials}")
        if max_trials is not None and max_trials < min_trials:
            raise ValueError(
                f"max_trials {max_trials} must be >= min_trials {min_trials}"
            )
        self.width = width
        self.metric = metric
        self.min_trials = min_trials
        self.max_trials = max_trials

    def decision(self, progress: Progress) -> Optional[str]:
        trials = progress.trials
        if trials >= self.min_trials and progress.width(self.metric) <= self.width:
            return STOP_TARGET_WIDTH
        if self.max_trials is not None and trials >= self.max_trials:
            return STOP_MAX_TRIALS
        return None

    def trial_cap(self) -> Optional[int]:
        return self.max_trials

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TargetWidth({self.width}, metric={self.metric!r}, "
            f"min_trials={self.min_trials}, max_trials={self.max_trials})"
        )


def consume_adaptive(
    results: Iterable,
    fold: Callable[[typing.Any], None],
    progress: Progress,
    rule: StoppingRule,
    chunk: int = DEFAULT_CHUNK,
) -> Tuple[int, str]:
    """Fold a result stream until ``rule`` fires at a checkpoint boundary.

    The single driver every trial set runs: pull results in
    submission order, ``fold`` each, and consult ``rule`` exactly when the
    folded count is a multiple of ``chunk`` — plus at the rule's declared
    :meth:`~StoppingRule.trial_cap` (so ``FixedBudget``/``max_trials``
    bounds are honored to the trial even off the chunk grid, never
    overshot) and once at stream exhaustion, where a silent rule resolves
    to :data:`STOP_BUDGET` (the capped spec stream *was* the budget).
    Returns ``(trials_used, stop_reason)``.

    The stream is always explicitly closed on the way out (early stop,
    exhaustion, or error), which is what releases a windowed engine
    stream's in-flight work promptly; pass the stream with a ``window``
    near ``chunk`` so an early stop abandons at most about one chunk of
    trials.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    cap = rule.trial_cap()
    used = 0
    reason: Optional[str] = None
    try:
        for value in results:
            fold(value)
            used += 1
            at_cap = cap is not None and used >= cap
            if used % chunk == 0 or at_cap:
                reason = rule.decision(progress)
                if reason is None and at_cap:
                    # The cap is a hard bound even for a rule that (buggily
                    # or conservatively) declines to fire at it.
                    reason = STOP_MAX_TRIALS
                if reason is not None:
                    break
    finally:
        close = getattr(results, "close", None)
        if close is not None:
            close()
    if reason is None:
        reason = rule.decision(progress) or STOP_BUDGET
    return used, reason
