"""Experiment harness: run protocols, collect metrics, canned scenarios.

The guide — trial lifecycle, sweeps, adaptive budgets, workers, the
delivery stack, serving, determinism — is ``docs/harness.md``.
"""

from .adaptive import (
    DEFAULT_CHUNK,
    FixedBudget,
    ProportionProgress,
    StoppingRule,
    TargetWidth,
    consume_adaptive,
)
from .trial import (
    DeploymentSpec,
    TrialContext,
    list_protocols,
    register_protocol,
    run_trial,
)
from .runner import (
    RunResult,
    run_protocol,
    run_probft,
    run_pbft,
    run_hotstuff,
    good_case_metrics,
)
from .metrics import (
    LatencyAccumulator,
    mean,
    percentile,
    stddev,
    wilson_interval,
    ProportionEstimate,
    StreamingProportion,
    Welford,
)
from .parallel import (
    ExperimentEngine,
    TrialError,
    TrialSpec,
    derive_seed,
    resolve_workers,
    spawn_seeds,
    workers_from_env,
)
from .registry import (
    MATRICES,
    CellAccumulator,
    MatrixReport,
    ScenarioMatrix,
    get_matrix,
    list_matrices,
    run_matrix,
)
from .scenarios import (
    happy_case,
    silent_leader_case,
    crash_case,
    pre_gst_chaos_case,
    equivocation_case,
    flooding_case,
)

__all__ = [
    "DEFAULT_CHUNK",
    "FixedBudget",
    "ProportionProgress",
    "StoppingRule",
    "TargetWidth",
    "consume_adaptive",
    "DeploymentSpec",
    "TrialContext",
    "run_trial",
    "register_protocol",
    "list_protocols",
    "RunResult",
    "run_protocol",
    "run_probft",
    "run_pbft",
    "run_hotstuff",
    "good_case_metrics",
    "LatencyAccumulator",
    "mean",
    "percentile",
    "stddev",
    "wilson_interval",
    "ProportionEstimate",
    "StreamingProportion",
    "Welford",
    "ExperimentEngine",
    "TrialError",
    "TrialSpec",
    "derive_seed",
    "spawn_seeds",
    "workers_from_env",
    "resolve_workers",
    "MATRICES",
    "CellAccumulator",
    "MatrixReport",
    "ScenarioMatrix",
    "get_matrix",
    "list_matrices",
    "run_matrix",
    "happy_case",
    "silent_leader_case",
    "crash_case",
    "pre_gst_chaos_case",
    "equivocation_case",
    "flooding_case",
]
