"""The benchmark's workloads, as data.

Trial counts are part of each definition: per-trial wall drifts with heap
growth over a run (the crypto pool retains one entry per cold trial), so a
different count is a different workload.  Counts are sized for
``REFERENCE_SECONDS`` of timed work per run on the 2-core reference box; a
different ``--seconds`` scales them linearly, which keeps every sim-side
metric an exact function of ``(workload, seed, seconds)``.

``f``, ``l = 2`` and ``o = 1.7`` are the program's ``ProtocolConfig``
defaults throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

REFERENCE_SECONDS = 15

_ALL_PROTOCOLS = ("probft", "pbft", "hotstuff")
_ALL_ADVERSARIES = (
    "none",
    "silent",
    "crash",
    "equivocation",
    "flooding",
    "duplication",
    "targeted-scheduler",
)


#: ``cell_deployment_spec`` gives every cell ``FixedTimeout(30.0)``: view v's
#: timer fires at sim-time 30·v.
_VIEW_TIMER = 30.0


def _single_shot(
    n: int, adversary: str, latency: str, path_view: Optional[int]
) -> Dict[str, Any]:
    """One ProBFT cell on the scale stack, labelled with the path it measures.

    ``path_view`` is the view every trial should decide in.  ProBFT
    terminates in a view only with high probability (measured here: ~3-6%
    of fault-free n=300 trials miss view 1), and one extra view change costs
    n(n-1) Wish messages -- 5-14x the wall of an on-path trial and +100 MB
    of RSS -- so with 10-24 trials per run every time, message and memory
    metric would be a lottery over seeds.  Each trial is therefore stopped
    just before the *next* view's timer: one still undecided then is counted
    off-path (attempted, checked for agreement, not failed, not measured).
    ``None`` labels nothing and lets every trial run to its decision: the
    smoke sizes, where n=30 misses views too often to hold a path.
    """
    return {
        "protocols": ("probft",),
        "adversaries": (adversary,),
        "latencies": (latency,),
        "n": n,
        "max_time": _VIEW_TIMER * path_view - 5.0 if path_view else 600.0,
        "scale_stack": True,
        "path_view": path_view,
    }


def _matrix(n: int) -> Dict[str, Any]:
    return {
        "protocols": _ALL_PROTOCOLS,
        "adversaries": _ALL_ADVERSARIES,
        "latencies": ("constant", "exponential"),
        "n": n,
        "max_time": 5000.0,
    }


def _serving(num_clients: int, requests_per_client: int) -> Dict[str, Any]:
    return {
        "n": 9,
        "adversary": "equivocating-leader",
        "rotate_leaders": True,
        "timeout": 20.0,
        "arrival": "open",
        "offered_rate": 6.0,
        "num_clients": num_clients,
        "requests_per_client": requests_per_client,
        "batch_size": 32,
        "max_pending": 256,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    #: "single" (one cell, many seeds), "matrix" (blocks of one seed per
    #: cell) or "serving".
    kind: str
    params: Dict[str, Any]
    #: Trials (blocks for "matrix") per run at REFERENCE_SECONDS.
    trials: int
    smoke_params: Dict[str, Any]
    #: Allowed range of the share of trials deciding in view 1.
    view1_share: Optional[Tuple[float, float]] = None

    def count(self, seconds: float, smoke: bool) -> int:
        if smoke:
            return 1 if self.kind == "matrix" else 2
        return max(2, round(self.trials * seconds / REFERENCE_SECONDS))

    def traced_count(self, count: int) -> int:
        """The leading trials a traced run repeats: a quarter, at least 3;
        for "matrix" one block, the unit `run_matrix` can replay."""
        return 1 if self.kind == "matrix" else min(count, max(3, count // 4))


# Why each workload is here is said once, in BENCHMARK.json (`why`), and at
# length in README.md; here only what it is.
WORKLOADS: Tuple[Workload, ...] = (
    # ProBFT view-1 happy path at n=1000, constant latency: crypto-bound.
    Workload(
        name="scale-cold",
        kind="single",
        params=_single_shot(1000, "none", "constant", 1),
        trials=16,
        smoke_params=_single_shot(30, "none", "constant", None),
        view1_share=(0.75, 1.0),
    ),
    # Same stack under exponential latency: no two deliveries share a time,
    # so queue and vote kernel work per message (core+net-bound).
    Workload(
        name="scale-jitter",
        kind="single",
        params=_single_shot(300, "none", "exponential", 1),
        trials=10,
        smoke_params=_single_shot(30, "none", "exponential", None),
    ),
    # Silent view-1 leader: every trial takes exactly one view change
    # (sync-bound, n(n-1) Wish messages).
    Workload(
        name="scale-viewchange",
        kind="single",
        params=_single_shot(300, "silent", "constant", 2),
        trials=20,
        smoke_params=_single_shot(30, "silent", "constant", None),
        view1_share=(0.0, 0.0),
    ),
    # What `repro sweep` runs: every protocol x adversary x two latency
    # models at n=40 on the default dense path, many small trials.
    Workload(
        name="sweep-matrix",
        kind="matrix",
        params=_matrix(40),
        trials=5,
        smoke_params=_matrix(8),
    ),
    # What `repro serve` runs, with a fault injected and open-loop arrivals
    # below the faulted capacity.
    Workload(
        name="serve-faulted-open",
        kind="serving",
        params=_serving(100, 10),
        trials=12,
        smoke_params=_serving(10, 5),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: A run with fewer on-path trials than this measured another path; it fails.
MIN_ON_PATH_SHARE = 0.6

#: The untimed warm-up trial every child runs once so lazy imports are paid
#: in set-up: a tiny scale-stack trial on a seed index no timed trial uses.
WARMUP_PARAMS = _single_shot(50, "none", "constant", 1)
WARMUP_SEED_INDEX = 1_000_003
