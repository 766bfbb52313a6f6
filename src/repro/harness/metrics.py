"""Statistics helpers for empirical experiments.

Two families:

* batch helpers (:func:`mean`, :func:`stddev`, :func:`wilson_interval`)
  operating on materialized sequences;
* **streaming accumulators** (:class:`Welford`,
  :class:`StreamingProportion`) that ingest one observation at a time in
  O(1) memory — the backbone of constant-memory sweeps, where a 10⁵-trial
  matrix cell must aggregate without materializing 10⁵ rows.

:class:`Welford` keeps the running mean as ``sum/count`` (the exact same
left-fold float path as ``mean(list)``), so a streamed mean over trials in
submission order is **bit-identical** to the materialized computation; the
Welford-style ``M2`` recurrence adds variance/CI on top without a second
pass.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple


class IndexedCounter:
    """Flat slot-indexed counter over a shared name→slot registry.

    The summary network accounting
    (:class:`~repro.net.network.MessageStats`) folds its per-kind counters
    into parallel int lists sharing ONE name→slot dict: resolving a message
    kind once yields the same slot for the sent, delivered, and byte
    counters alike, and the hot path does a list index instead of a dict
    hash per record.  :meth:`as_counter` rebuilds the classic ``Counter``
    view — including explicitly *touched* zero entries, because
    key-presence is part of the report contract (a byte counter shows a
    key iff a sized record occurred, even at size 0; a never-recorded kind
    shows no key at all).
    """

    __slots__ = ("_index", "_counts", "_touched")

    def __init__(self, index: Dict[str, int]) -> None:
        self._index = index
        self._counts: List[int] = []
        self._touched: List[bool] = []

    def slot(self, name: str) -> int:
        """Resolve (creating if needed) ``name``'s slot and mark it live."""
        index = self._index
        idx = index.get(name)
        if idx is None:
            idx = index[name] = len(index)
        counts = self._counts
        if len(counts) <= idx:
            grow = idx + 1 - len(counts)
            counts.extend([0] * grow)
            self._touched.extend([False] * grow)
        self._touched[idx] = True
        return idx

    def add(self, slot: int, amount: int) -> None:
        """Add into a slot previously resolved with :meth:`slot`."""
        self._counts[slot] += amount

    def bump(self, name: str, amount: int = 1) -> None:
        self._counts[self.slot(name)] += amount

    def get(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None or idx >= len(self._counts):
            return 0
        return self._counts[idx]

    def total(self) -> int:
        return sum(self._counts)

    def as_counter(self) -> Counter:
        out: Counter = Counter()
        counts = self._counts
        touched = self._touched
        bound = len(counts)
        for name, idx in self._index.items():
            if idx < bound and touched[idx]:
                out[name] = counts[idx]
        return out


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (NaN for empty input)."""
    if not values:
        return float("nan")
    return sum(values) / len(values)


def stddev(values: Sequence[float]) -> float:
    """Sample standard deviation (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    Uses the standard linear-interpolation-between-closest-ranks definition
    (numpy's default), so ``percentile(vs, 50)`` is the median.  The
    interpolation is numpy's too: ``a + (b−a)·t`` below the midpoint and
    ``b − (b−a)·(1−t)`` from it on, which is exact when ``a == b`` and keeps
    the result inside ``[min, max]`` (``a·(1−t) + b·t`` can land an ulp
    above two equal neighbours).  Returns ``None`` for empty input —
    serving cells where nothing completed must surface as explicit gaps,
    never as NaN quietly flowing into reports (the tail-latency sibling of
    the :func:`mean` NaN contract, which we keep for backward compatibility
    there).
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not values:
        return None
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * (q / 100.0)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    low, high = ordered[lo], ordered[hi]
    if frac < 0.5:
        return low + (high - low) * frac
    return high - (high - low) * (1.0 - frac)


class LatencyAccumulator:
    """Latency distribution accumulator for serving experiments.

    Collects per-request latencies plus an explicit count of requests that
    never completed, and reports the summary the serving harness and CLI
    print everywhere: mean / p50 / p99 / p999 with ``None`` (not NaN) when
    nothing completed.

    Unlike :class:`Welford` this keeps the raw observations — tail
    percentiles are not computable in O(1) memory, and serving runs are
    bounded by the request budget, so the materialized list is fine.
    """

    __slots__ = ("latencies", "incomplete", "recovered")

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.incomplete = 0
        self.recovered = 0

    def add(self, latency: Optional[float]) -> None:
        """Record one request: its latency, or ``None`` if it never completed."""
        if latency is None:
            self.incomplete += 1
        else:
            self.latencies.append(latency)

    def add_recovered(self) -> None:
        """Record a request completed from replayed history.

        Recovered requests carry a meaningless zero latency (completion was
        observed, not measured), so they are counted separately and never
        enter the distribution — folding them in would silently drag p50
        toward zero in any trial with late-attached clients.
        """
        self.recovered += 1

    def extend(self, latencies) -> "LatencyAccumulator":
        for latency in latencies:
            self.add(latency)
        return self

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def total(self) -> int:
        return len(self.latencies) + self.incomplete + self.recovered

    @property
    def mean(self) -> Optional[float]:
        if not self.latencies:
            return None
        return sum(self.latencies) / len(self.latencies)

    def percentile(self, q: float) -> Optional[float]:
        return percentile(self.latencies, q)

    @property
    def p50(self) -> Optional[float]:
        return self.percentile(50)

    @property
    def p99(self) -> Optional[float]:
        return self.percentile(99)

    @property
    def p999(self) -> Optional[float]:
        return self.percentile(99.9)

    def summary(self) -> dict:
        """JSON-ready summary with explicit completion accounting."""
        return {
            "completed": self.completed,
            "incomplete": self.incomplete,
            "recovered": self.recovered,
            "mean_latency": self.mean,
            "p50_latency": self.p50,
            "p99_latency": self.p99,
            "p999_latency": self.p999,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LatencyAccumulator(completed={self.completed}, "
            f"incomplete={self.incomplete})"
        )


def wilson_interval(
    successes: int, trials: int, z: float = 1.96
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because our proportions sit very
    close to 0 or 1 (agreement-violation probabilities are ~exp(−Θ(√n))).

    Degenerate cells are well-defined rather than errors, so stopping rules
    can trust the interval from trial zero onward:

    * ``trials == 0`` (with ``successes == 0``) — the zero-information
      interval ``(0.0, 1.0)``;
    * ``successes == 0`` — the lower endpoint is exactly ``0.0``;
    * ``successes == trials`` — the upper endpoint is exactly ``1.0``
      (pinned explicitly: the algebraic cancellation that makes it 1 is not
      exact in floating point).

    Negative trials and out-of-range success counts still raise.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} out of range [0, {trials}]")
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    margin = (
        z
        * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2))
        / denom
    )
    low = 0.0 if successes == 0 else max(0.0, center - margin)
    high = 1.0 if successes == trials else min(1.0, center + margin)
    return low, high


class Welford:
    """Streaming mean/variance accumulator (Welford 1962), O(1) memory.

    ``add`` ingests one observation; ``mean`` is maintained as a running
    ``sum / count`` so that streaming values in submission order reproduces
    ``mean(values)`` bit-for-bit (both are the same left-fold summation).
    The ``M2`` recurrence gives the sample variance in the same single pass,
    numerically stable even when the mean dwarfs the spread.

    NaN observations are counted but poison the aggregate (as with the batch
    helpers) — callers that want NaN-tolerance filter before adding.
    """

    __slots__ = ("count", "total", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        old_mean = self.total / self.count if self.count else 0.0
        self.count += 1
        self.total += value
        delta = value - old_mean
        self._m2 += delta * (value - self.mean)

    def extend(self, values) -> "Welford":
        for value in values:
            self.add(value)
        return self

    @property
    def mean(self) -> float:
        """Running mean; NaN for an empty accumulator (matches :func:`mean`)."""
        return self.total / self.count if self.count else float("nan")

    @property
    def variance(self) -> float:
        """Sample variance (0 for fewer than two values, like :func:`stddev`)."""
        if self.count < 2:
            return 0.0
        return max(0.0, self._m2 / (self.count - 1))

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def stderr(self) -> float:
        """Standard error of the mean (0 for fewer than two values)."""
        if self.count < 2:
            return 0.0
        return self.stddev / math.sqrt(self.count)

    def ci(self, z: float = 1.96) -> Tuple[float, float]:
        """Normal-approximation confidence interval for the mean."""
        if not self.count:
            return float("nan"), float("nan")
        margin = z * self.stderr
        return self.mean - margin, self.mean + margin

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Welford(count={self.count}, mean={self.mean!r})"


class StreamingProportion:
    """Streaming binomial counter with a Wilson 95% interval.

    Feed it one boolean outcome at a time (O(1) memory) and read the point
    estimate and the :func:`wilson_interval` of everything fed so far.
    The interval is total — ``(0.0, 1.0)`` before any trial, endpoints
    pinned exactly at all-success/all-failure (see :func:`wilson_interval`)
    — so adaptive stopping rules can consult it at every checkpoint without
    guarding degenerate cells.
    """

    __slots__ = ("successes", "trials")

    def __init__(self) -> None:
        self.successes = 0
        self.trials = 0

    def add(self, success: bool) -> None:
        self.trials += 1
        if success:
            self.successes += 1

    @property
    def point(self) -> float:
        return self.successes / self.trials if self.trials else float("nan")

    @property
    def interval(self) -> Tuple[float, float]:
        return wilson_interval(self.successes, self.trials)

    @property
    def interval_width(self) -> float:
        """Width of the Wilson interval (1.0 before any trial)."""
        low, high = self.interval
        return high - low

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamingProportion({self.successes}/{self.trials})"
        )
