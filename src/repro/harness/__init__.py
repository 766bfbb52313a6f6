"""Experiment harness: describe trials, run them, collect metrics.

The guide — trial lifecycle, sweeps, adaptive budgets, workers, the
delivery stack, serving, determinism — is ``docs/harness.md``.
"""

from .adaptive import (
    DEFAULT_CHUNK,
    FixedBudget,
    StoppingRule,
    TargetWidth,
    consume_adaptive,
)
from .trial import (
    DeploymentSpec,
    RunResult,
    TrialContext,
    list_protocols,
    register_protocol,
    run_trial,
)
from .metrics import (
    LatencyAccumulator,
    mean,
    percentile,
    stddev,
    wilson_interval,
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

__all__ = [
    "DEFAULT_CHUNK",
    "FixedBudget",
    "StoppingRule",
    "TargetWidth",
    "consume_adaptive",
    "DeploymentSpec",
    "TrialContext",
    "run_trial",
    "register_protocol",
    "list_protocols",
    "RunResult",
    "LatencyAccumulator",
    "mean",
    "percentile",
    "stddev",
    "wilson_interval",
    "StreamingProportion",
    "Welford",
    "ExperimentEngine",
    "TrialError",
    "TrialSpec",
    "derive_seed",
    "spawn_seeds",
    "resolve_workers",
    "MATRICES",
    "CellAccumulator",
    "MatrixReport",
    "ScenarioMatrix",
    "get_matrix",
    "list_matrices",
    "run_matrix",
]
