"""Monte-Carlo estimators for ProBFT's termination and agreement probabilities.

Two levels of fidelity:

* **sampling-level** estimators replay only the VRF-sampling randomness
  (fast; thousands of trials) and mirror the events the paper's analysis
  bounds — quorum formation chains, the optimal-split attack of Figure 4c;
* **protocol-level** estimators run the full discrete-event simulation with
  real Byzantine replicas, capturing everything the analysis conservatively
  ignores (equivocation detection, view changes, safeProposal).

Every estimator fans its trials through
:class:`repro.harness.parallel.ExperimentEngine`: trial ``i`` draws from a
``numpy`` generator seeded with ``derive_seed(seed, i)``, so results are
bit-identical whether the trials run serially (``workers=0``, the default)
or across a process pool (``workers=k``), and independent of completion
order.  Pass ``workers=`` for one-off parallelism or ``engine=`` to share a
configured engine across calls.

Every estimator also takes ``stopping=`` — an adaptive
:class:`~repro.harness.adaptive.StoppingRule` (e.g. ``TargetWidth(0.02,
metric="per_replica_decides")``) evaluated every ``chunk`` trials on the
streaming Wilson counters, with ``trials`` as the hard cap.  An adaptive
run's result is bit-identical to the same-length prefix of the fixed run
(seeds are counter-derived), ``result.trials`` reports what was actually
spent, and ``result.stop_reason`` says why the run ended.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..config import ProtocolConfig, probabilistic_quorum_size, vrf_sample_size
from ..harness.adaptive import (
    DEFAULT_CHUNK,
    FixedBudget,
    ProportionProgress,
    StoppingRule,
    consume_adaptive,
)
from ..harness.metrics import ProportionEstimate, StreamingProportion
from ..harness.parallel import ExperimentEngine, TrialSpec, engine_scope
from .sampling import inclusion_counts, membership_matrix


@dataclass
class MonteCarloResult:
    """Outcome of a sampling-level experiment.

    ``trials`` is what actually ran; ``stop_reason`` is ``None`` for fixed
    budgets and the stopping rule's reason (``"target-width"``/
    ``"budget"``/...) for adaptive runs.
    """

    trials: int
    estimates: Dict[str, ProportionEstimate] = field(default_factory=dict)
    stop_reason: Optional[str] = None

    def point(self, key: str) -> float:
        return self.estimates[key].point

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = [f"MonteCarloResult({self.trials} trials)"]
        lines += [f"  {k}: {v}" for k, v in self.estimates.items()]
        return "\n".join(lines)


def _sizes(n: int, o: float, l: float) -> tuple:
    q = probabilistic_quorum_size(n, l)
    s = vrf_sample_size(n, q, o)
    return q, s


def _collect_trials(
    engine: Optional[ExperimentEngine],
    workers: int,
    fn: Callable[[TrialSpec], Any],
    trials: int,
    seed: int,
    params: Any,
    stopping: Optional[StoppingRule],
    chunk: int,
    metrics: Dict[str, Callable[[Any], bool]],
) -> Tuple[List[Any], int, Optional[str]]:
    """Run an estimator's trials; returns ``(rows, trials used, reason)``.

    Rows stream through ``consume_adaptive`` under ``stopping`` or, without
    one, ``FixedBudget(trials)``, while per-metric Wilson counters fold
    online; the rule sees them as a :class:`ProportionProgress` at every
    ``chunk`` boundary and ``trials`` caps the stream — so an adaptive
    run's rows are bit-identical to the first ``len(rows)`` rows of the
    fixed run, for every worker count.  An adaptive stream is bounded to
    ``window=chunk`` so a stop abandons at most about a chunk of trials.
    ``metrics`` maps each stoppable metric name (the estimate keys) to its
    boolean extractor over one row.  The reason is ``None`` for a fixed
    budget.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    proportions = {name: StreamingProportion() for name in metrics}
    rows: List[Any] = []

    def fold(row: Any) -> None:
        rows.append(row)
        for name, extract in metrics.items():
            proportions[name].add(bool(extract(row)))

    with engine_scope(engine, workers) as eng:
        results = eng.run_stream(
            fn,
            trials,
            master_seed=seed,
            params=params,
            window=chunk if stopping is not None else None,
        )
        used, reason = consume_adaptive(
            results,
            fold,
            ProportionProgress(proportions),
            stopping or FixedBudget(trials),
            chunk,
        )
    return rows, used, reason if stopping is not None else None


# ----------------------------------------------------------------------
# Per-trial functions (module-level so they pickle into pool workers).
# Each consumes exactly one TrialSpec: seeds come from the engine's
# deterministic splitter, shared sizes travel in ``spec.params``.
# ----------------------------------------------------------------------


def _prepare_quorum_trial(spec: TrialSpec) -> tuple:
    n, f, q, s = spec.params
    rng = np.random.default_rng(spec.seed)
    n_correct = n - f
    counts = inclusion_counts(n, n_correct, s, rng)
    formed = counts[:n_correct] >= q
    return bool(formed[0]), bool(formed.all())


def _termination_trial(spec: TrialSpec) -> tuple:
    n, f, q, s = spec.params
    rng = np.random.default_rng(spec.seed)
    n_correct = n - f
    prep_counts = inclusion_counts(n, n_correct, s, rng)
    prepared = prep_counts[:n_correct] >= q
    m = int(prepared.sum())
    commit_counts = inclusion_counts(n, m, s, rng)
    decided = prepared & (commit_counts[:n_correct] >= q)
    return bool(decided[0]), bool(decided.all()), m / n_correct


def _agreement_violation_trial(spec: TrialSpec) -> tuple:
    n, f, q, s, model_detection = spec.params
    rng = np.random.default_rng(spec.seed)
    n_correct = n - f
    half = n_correct // 2
    # Layout: C1 = [0, half), C2 = [half, n_correct), F = [n_correct, n).
    # Prepare phase: side-1 senders are C1 + F, side-2 senders C2 + F.
    m1 = membership_matrix(n, half, s, rng)  # C1 prepares (val1)
    m2 = membership_matrix(n, n_correct - half, s, rng)  # C2 (val2)
    mf = membership_matrix(n, f, s, rng)  # Byzantine (both values)
    prep1_counts = m1.sum(axis=0) + mf.sum(axis=0)
    prep2_counts = m2.sum(axis=0) + mf.sum(axis=0)
    prepared1 = prep1_counts[:half] >= q
    prepared2 = prep2_counts[half:n_correct] >= q

    # Commit phase: committers are the prepared correct members + F.
    c1 = membership_matrix(n, int(prepared1.sum()), s, rng)
    c2 = membership_matrix(n, int(prepared2.sum()), s, rng)
    cf = membership_matrix(n, f, s, rng)
    commit1_counts = c1.sum(axis=0) + cf.sum(axis=0)
    commit2_counts = c2.sum(axis=0) + cf.sum(axis=0)
    decided1 = prepared1 & (commit1_counts[:half] >= q)
    decided2 = prepared2 & (commit2_counts[half:n_correct] >= q)

    side_fixed = bool(decided1[0]) if half else False
    violated = bool(decided1.any() and decided2.any())

    violated_detected = False
    if model_detection:
        # A C1 replica touched by any val2 vote (from C2 or the
        # committers of side 2) detects equivocation and blocks.
        cross_to_c1 = (m2.sum(axis=0)[:half] + c2.sum(axis=0)[:half]) > 0
        cross_to_c2 = (
            m1.sum(axis=0)[half:n_correct] + c1.sum(axis=0)[half:n_correct]
        ) > 0
        d1 = decided1 & ~cross_to_c1
        d2 = decided2 & ~cross_to_c2
        violated_detected = bool(d1.any() and d2.any())
    return side_fixed, violated, violated_detected


def _viewchange_trial(spec: TrialSpec) -> bool:
    n, r, q, s = spec.params
    rng = np.random.default_rng(spec.seed)
    counts = inclusion_counts(n, r, s, rng)
    return bool(counts[0] >= q)


def _protocol_agreement_trial(spec: TrialSpec) -> tuple:
    # Route through the unified trial lifecycle: the same deployment the
    # `equivocation` scenario builds, expressed as a DeploymentSpec so the
    # crypto pool and one protocol runner serve this estimator too.
    from ..adversary.plans import equivocation_byzantine_map
    from ..harness.trial import DeploymentSpec, run_trial
    from ..net.latency import ConstantLatency
    from ..sync.timeouts import FixedTimeout

    config, max_time = spec.params
    byzantine, _plan = equivocation_byzantine_map(config)
    result = run_trial(
        DeploymentSpec(
            protocol="probft",
            config=config,
            seed=spec.seed,
            latency=ConstantLatency(1.0),
            timeout_policy=FixedTimeout(20.0),
            byzantine=byzantine,
            max_time=max_time,
        )
    )
    return (not result.agreement_ok, not result.all_decided)


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------


def estimate_prepare_quorum(
    n: int,
    f: int,
    o: float,
    l: float = 2.0,
    trials: int = 500,
    seed: int = 0,
    workers: int = 0,
    engine: Optional[ExperimentEngine] = None,
    stopping: Optional[StoppingRule] = None,
    chunk: int = DEFAULT_CHUNK,
) -> MonteCarloResult:
    """Probability of forming a prepare quorum when all correct replicas send.

    Estimates both the per-replica probability (Theorem 2 / Corollary 2's
    target) and the all-correct-replicas-form event.
    """
    q, s = _sizes(n, o, l)
    rows, used, reason = _collect_trials(
        engine,
        workers,
        _prepare_quorum_trial,
        trials,
        seed,
        (n, f, q, s),
        stopping,
        chunk,
        metrics={
            "per_replica_quorum": lambda row: row[0],
            "all_correct_quorum": lambda row: row[1],
        },
    )
    replica_hits = sum(r for r, _ in rows)
    all_hits = sum(a for _, a in rows)
    return MonteCarloResult(
        trials=used,
        estimates={
            "per_replica_quorum": ProportionEstimate(replica_hits, used),
            "all_correct_quorum": ProportionEstimate(all_hits, used),
        },
        stop_reason=reason,
    )


def estimate_termination(
    n: int,
    f: int,
    o: float,
    l: float = 2.0,
    trials: int = 500,
    seed: int = 0,
    workers: int = 0,
    engine: Optional[ExperimentEngine] = None,
    stopping: Optional[StoppingRule] = None,
    chunk: int = DEFAULT_CHUNK,
) -> MonteCarloResult:
    """Termination in a correct-leader view (Figure 5 right panels).

    Stage 1: all ``n−f`` correct replicas multicast Prepare; a correct
    replica prepares iff ≥ q of those samples include it.  Stage 2: prepared
    replicas multicast Commit; a replica decides iff it prepared and ≥ q
    commit samples include it.  Byzantine replicas stay silent (the
    worst case Theorem 2 mentions).
    """
    q, s = _sizes(n, o, l)
    rows, used, reason = _collect_trials(
        engine,
        workers,
        _termination_trial,
        trials,
        seed,
        (n, f, q, s),
        stopping,
        chunk,
        metrics={
            "per_replica_decides": lambda row: row[0],
            "all_correct_decide": lambda row: row[1],
        },
    )
    decide_hits = sum(d for d, _, _ in rows)
    all_decide_hits = sum(a for _, a, _ in rows)
    prepared_fracs = [frac for _, _, frac in rows]
    result = MonteCarloResult(
        trials=used,
        estimates={
            "per_replica_decides": ProportionEstimate(decide_hits, used),
            "all_correct_decide": ProportionEstimate(all_decide_hits, used),
        },
        stop_reason=reason,
    )
    result.mean_prepared_fraction = float(np.mean(prepared_fracs))
    return result


def estimate_agreement_violation(
    n: int,
    f: int,
    o: float,
    l: float = 2.0,
    trials: int = 2000,
    seed: int = 0,
    model_detection: bool = False,
    workers: int = 0,
    engine: Optional[ExperimentEngine] = None,
    stopping: Optional[StoppingRule] = None,
    chunk: int = DEFAULT_CHUNK,
) -> MonteCarloResult:
    """The optimal-split attack (Figure 4c) at the sampling level.

    Correct replicas are split into halves C1/C2; Byzantine replicas support
    both sides.  Reported events:

    * ``side_decides_fixed``  — a fixed C1 replica decides val₁ (the factor
      Lemma 5 bounds; violation ≈ this squared);
    * ``violation_quorums``   — some C1 replica decides val₁ AND some C2
      replica decides val₂, counting quorum formation only (the paper's
      analysis target);
    * with ``model_detection=True``, deciders that received any cross-side
      vote are excluded first (``violation_detected`` — closer to the real
      protocol, in which such replicas block the view instead of deciding).
    """
    q, s = _sizes(n, o, l)
    metrics: Dict[str, Callable[[Any], bool]] = {
        "side_decides_fixed": lambda row: row[0],
        "violation_quorums": lambda row: row[1],
    }
    if model_detection:
        metrics["violation_detected"] = lambda row: row[2]
    rows, used, reason = _collect_trials(
        engine,
        workers,
        _agreement_violation_trial,
        trials,
        seed,
        (n, f, q, s, model_detection),
        stopping,
        chunk,
        metrics=metrics,
    )
    side_fixed_hits = sum(sf for sf, _, _ in rows)
    violation_hits = sum(v for _, v, _ in rows)
    estimates = {
        "side_decides_fixed": ProportionEstimate(side_fixed_hits, used),
        "violation_quorums": ProportionEstimate(violation_hits, used),
    }
    if model_detection:
        estimates["violation_detected"] = ProportionEstimate(
            sum(vd for _, _, vd in rows), used
        )
    return MonteCarloResult(trials=used, estimates=estimates, stop_reason=reason)


def estimate_protocol_agreement(
    config: ProtocolConfig,
    trials: int = 20,
    seed: int = 0,
    max_time: float = 5000.0,
    workers: int = 0,
    engine: Optional[ExperimentEngine] = None,
    stopping: Optional[StoppingRule] = None,
    chunk: int = DEFAULT_CHUNK,
) -> MonteCarloResult:
    """Full-protocol agreement under the optimal equivocation attack.

    Runs the real discrete-event simulation ``trials`` times with
    engine-derived per-trial seeds and counts actual disagreement among
    correct replicas.  Slow; intended for modest trial counts — but each
    trial is a whole simulation, so this is also where ``workers>1`` (and
    an adaptive ``stopping=`` rule: every trial saved is a whole
    simulation not run) pays off most.
    """
    rows, used, reason = _collect_trials(
        engine,
        workers,
        _protocol_agreement_trial,
        trials,
        seed,
        (config, max_time),
        stopping,
        chunk,
        metrics={
            "violation_full_protocol": lambda row: row[0],
            "undecided_runs": lambda row: row[1],
        },
    )
    violation_hits = sum(v for v, _ in rows)
    undecided_runs = sum(u for _, u in rows)
    return MonteCarloResult(
        trials=used,
        estimates={
            "violation_full_protocol": ProportionEstimate(violation_hits, used),
            "undecided_runs": ProportionEstimate(undecided_runs, used),
        },
        stop_reason=reason,
    )


def estimate_viewchange_decide(
    n: int,
    f: int,
    o: float,
    l: float = 2.0,
    prepared: Optional[int] = None,
    trials: int = 2000,
    seed: int = 0,
    workers: int = 0,
    engine: Optional[ExperimentEngine] = None,
    stopping: Optional[StoppingRule] = None,
    chunk: int = DEFAULT_CHUNK,
) -> MonteCarloResult:
    """Lemma 6 / Theorem 8's scenario: only ``prepared`` replicas committed.

    A value was prepared by ``r = prepared`` replicas (default the theorem's
    worst case ``(n+f)/2``; ``0 <= prepared <= n``); estimates the
    probability that a fixed replica receives a commit quorum from them —
    the event whose probability Lemma 6 bounds and Theorem 8 multiplies
    into the cross-view safety argument.
    """
    q, s = _sizes(n, o, l)
    r = prepared if prepared is not None else (n + f) // 2
    if not 0 <= r <= n:
        raise ValueError(f"prepared must be in [0, n={n}], got {r}")
    rows, used, reason = _collect_trials(
        engine,
        workers,
        _viewchange_trial,
        trials,
        seed,
        (n, r, q, s),
        stopping,
        chunk,
        metrics={"decides_from_partial_prepare": lambda row: row},
    )
    hits = sum(rows)
    return MonteCarloResult(
        trials=used,
        estimates={
            "decides_from_partial_prepare": ProportionEstimate(hits, used)
        },
        stop_reason=reason,
    )
