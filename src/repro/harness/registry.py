"""The scenario matrix.

:class:`ScenarioMatrix` crosses protocols × adversaries × latency models
into enumerable :class:`MatrixCell` specs, and :func:`run_matrix` streams
``trials`` seeded runs of every cell through :meth:`ExperimentEngine.stream
<repro.harness.parallel.ExperimentEngine.stream>`, folding each trial into
constant-memory per-cell accumulators (:class:`CellAccumulator`) —
decision/agreement rates with confidence intervals, never a materialized
row list.

Every cell realizes its trial as a
:class:`~repro.harness.trial.DeploymentSpec` executed by the one
protocol-dispatched :func:`~repro.harness.trial.run_trial` lifecycle.

The protocol axis accepts any protocol of the protocol registry
(:func:`~repro.harness.trial.list_protocols`; :data:`PROTOCOLS` is the
default axis).  Adversary support is protocol-keyed through the
:mod:`repro.adversary.registry` behavior registry, and the adversary axis
accepts any name registered there (:data:`ADVERSARIES` is the default
axis; ``adversary-complete`` takes every registered one).  Silence,
crashes, the targeted scheduler and network duplication apply to every
protocol; equivocation and flooding are one set of seats for ProBFT and
PBFT, each speaking its target's dialect, and HotStuff's own analogues
(:mod:`repro.baselines.hotstuff.adversary`).  Every (protocol, adversary)
combination of the default axes resolves, so ``cells()`` never skips a
cell; ``supported`` exists only as the audit hook for combinations the
behavior registry does not know.  Streamlined ProBFT is off the skeleton,
so its ``equivocation`` and ``flooding`` cells raise when their spec is
built.

Cells built with ``track_bytes=True`` additionally account per-message
canonical-encoding bytes (:class:`~repro.net.network.MessageStats`), and the
per-cell report carries message- and byte-cost columns — bit complexity as a
first-class metric, in the spirit of scalable Byzantine reliable broadcast.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from ..adversary.registry import behavior_for, behavior_supported, list_behaviors
from ..config import ProtocolConfig
from ..net.faults import ComposedChaos, PreGstChaos, ReceiverTargetedChaos
from ..net.latency import ConstantLatency, ExponentialLatency, UniformLatency
from ..sync.timeouts import FixedTimeout
from .adaptive import (
    DEFAULT_CHUNK,
    FixedBudget,
    StoppingRule,
    TargetWidth,
    consume_adaptive,
)
from .metrics import StreamingProportion, Welford
from .parallel import ExperimentEngine, TrialSpec, derive_seed, engine_scope
from .trial import DeploymentSpec, RunResult, list_protocols, run_trial

__all__ = [
    "MatrixCell",
    "CellAccumulator",
    "ScenarioMatrix",
    "MatrixReport",
    "run_matrix",
    "get_matrix",
    "list_matrices",
    "MATRICES",
    "PROTOCOLS",
    "ADVERSARIES",
    "LATENCIES",
    "registered_adversaries",
]

PROTOCOLS: Tuple[str, ...] = ("probft", "pbft", "hotstuff")
ADVERSARIES: Tuple[str, ...] = (
    "none",
    "silent",
    "crash",
    "equivocation",
    "flooding",
    "duplication",
    "targeted-scheduler",
)
LATENCIES: Tuple[str, ...] = (
    "constant",
    "uniform",
    "exponential",
    "pre-gst-chaos",
)


def registered_adversaries() -> Tuple[str, ...]:
    """Every adversary the behavior registry knows: :data:`ADVERSARIES`
    first, then any other registered name, sorted."""
    extra = {a for a, _p in list_behaviors()} - set(ADVERSARIES)
    return ADVERSARIES + tuple(sorted(extra))


#: GST used by cells whose adversary/latency needs an asynchronous prefix.
_CELL_GST = 30.0


@dataclass(frozen=True)
class MatrixCell:
    """One (protocol, adversary, latency) combination at a fixed (n, f).

    ``track_bytes`` cells additionally account canonical-encoding bytes per
    message, feeding the report's byte-cost columns.  ``track_memory``
    records each trial's peak heap in the result row's ``peak_mem_mb``.
    """

    protocol: str
    adversary: str
    latency: str
    n: int
    f: int
    track_bytes: bool = False
    track_memory: bool = False

    @property
    def supported(self) -> bool:
        """Whether the behavior registry implements this combination.

        Every canonical (protocol, adversary) pair resolves; this exists as
        the audit hook for combinations future axes might not cover yet.
        """
        return behavior_supported(self.adversary, self.protocol)

    @property
    def label(self) -> str:
        return f"{self.protocol}/{self.adversary}/{self.latency}"


def _network_for(cell: MatrixCell, config: ProtocolConfig, seed: int) -> Dict[str, Any]:
    """Latency/GST/chaos kwargs realizing the cell's network conditions.

    The latency axis picks the delay distribution; a ``targeted-scheduler``
    adversary additionally starves the last ``f`` replicas of all messages
    until GST (the strongest receiver-discriminating schedule the paper's
    §2.1 model admits — sender-agnostic, destination-targeted).
    """
    if cell.latency == "constant":
        out: Dict[str, Any] = {"latency": ConstantLatency(1.0)}
    elif cell.latency == "uniform":
        out = {"latency": UniformLatency(0.5, 1.5, seed=seed)}
    elif cell.latency == "exponential":
        out = {"latency": ExponentialLatency(mean=1.0, cap=5.0, seed=seed)}
    elif cell.latency == "pre-gst-chaos":
        out = {
            "latency": UniformLatency(0.5, 1.5, seed=seed),
            "gst": _CELL_GST,
            "chaos": PreGstChaos(max_extra=20.0, seed=seed),
        }
    else:
        raise KeyError(f"unknown latency model {cell.latency!r}")

    if cell.adversary == "targeted-scheduler":
        victims = range(config.n - max(config.f, 1), config.n)
        targeted = ReceiverTargetedChaos(victims=victims)
        out["gst"] = _CELL_GST
        out["chaos"] = (
            ComposedChaos([out["chaos"], targeted])
            if out.get("chaos") is not None
            else targeted
        )
    return out


def cell_deployment_spec(
    cell: MatrixCell, seed: int, max_time: float
) -> DeploymentSpec:
    """The :class:`DeploymentSpec` realizing one seeded run of ``cell``."""
    if not cell.supported:
        raise ValueError(
            f"cell {cell.label} is unsupported: no Byzantine behavior is "
            f"registered for adversary {cell.adversary!r} on protocol "
            f"{cell.protocol!r}"
        )
    config = ProtocolConfig(n=cell.n, f=cell.f)
    behavior = behavior_for(cell.adversary, cell.protocol)
    return DeploymentSpec(
        protocol=cell.protocol,
        config=config,
        seed=seed,
        timeout_policy=FixedTimeout(30.0),
        byzantine=behavior.byzantine_map(cell.protocol, config),
        track_bytes=cell.track_bytes,
        track_memory=cell.track_memory,
        max_time=max_time,
        # Behaviors that attack the deployment itself (e.g. duplication's
        # duplicate_prob) contribute their kwargs here, not via replicas.
        **behavior.deployment_kwargs(),
        **_network_for(cell, config, seed),
    )


def run_matrix_cell(spec: TrialSpec) -> Dict[str, Any]:
    """One seeded run of one matrix cell (module-level: pickles to workers).

    ``spec.params`` is ``(cell, max_time)``; returns a flat result row.
    """
    cell, max_time = spec.params
    result: RunResult = run_trial(
        cell_deployment_spec(cell, seed=spec.seed, max_time=max_time)
    )
    return {
        "protocol": cell.protocol,
        "adversary": cell.adversary,
        "latency": cell.latency,
        "seed": spec.seed,
        "decided": result.decided,
        "n_correct": result.n_correct,
        "all_decided": result.all_decided,
        "agreement_ok": result.agreement_ok,
        "max_view": result.max_view,
        "last_decision_time": result.last_decision_time,
        "total_messages": result.total_messages,
        "total_bytes": result.total_bytes,
        "peak_mem_mb": result.peak_mem_mb,
    }


@dataclass(frozen=True)
class ScenarioMatrix:
    """A named cross product of protocols × adversaries × latency models.

    ``budgets`` carries per-cell trial budgets: a tuple of ``(key, trials)``
    pairs where ``key`` is a full cell label (``"probft/silent/constant"``)
    or an adversary name; the most specific match wins, then ``budget``,
    then the runner's fallback.  Budgets apply when :func:`run_matrix` is
    called without an explicit ``trials`` override — big matrices spend
    their trials where the variance is (adversarial cells), not uniformly.

    ``target_width`` / ``target_widths`` declare **adaptive** budgets with
    the same key scheme: a cell with a target width stops as soon as its
    agreement-rate Wilson interval is at most that wide (evaluated every
    ``chunk`` trials by :func:`run_matrix`), with the cell's trial budget
    as the hard cap — budgets become worst cases instead of fixed costs.
    """

    name: str
    protocols: Tuple[str, ...] = PROTOCOLS
    #: ``None``: every adversary of the behavior registry, read when the
    #: cells are enumerated (:func:`registered_adversaries`).
    adversaries: Optional[Tuple[str, ...]] = ADVERSARIES
    latencies: Tuple[str, ...] = LATENCIES
    n: int = 20
    f: Optional[int] = None
    description: str = ""
    budget: Optional[int] = None
    budgets: Tuple[Tuple[str, int], ...] = ()
    #: Uniform adaptive target for the agreement-rate Wilson interval width
    #: (None = fixed budgets); ``target_widths`` overrides per cell with
    #: the same label-beats-adversary matching as ``budgets``.
    target_width: Optional[float] = None
    target_widths: Tuple[Tuple[str, float], ...] = ()
    #: Account per-message bytes in every cell (populates the byte-cost
    #: report columns; costs one canonical encode per distinct message).
    track_bytes: bool = False
    #: Record peak heap per trial; the report grows a ``mean_peak_mem_mb``
    #: column.  Telemetry only — roughly doubles wall clock.
    track_memory: bool = False

    def __post_init__(self) -> None:
        for axis, known in (
            (self.protocols, tuple(list_protocols())),
            (self.adversaries or (), registered_adversaries()),
            (self.latencies, LATENCIES),
        ):
            unknown = set(axis) - set(known)
            if unknown:
                raise ValueError(
                    f"unknown matrix axis values {sorted(unknown)}; "
                    f"known: {known}"
                )
        for key, trials in self.budgets:
            if trials < 1:
                raise ValueError(
                    f"budget for {key!r} must be >= 1, got {trials}"
                )
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        for key, width in self.target_widths:
            if not 0.0 < width <= 1.0:
                raise ValueError(
                    f"target width for {key!r} must be in (0, 1], got {width}"
                )
        if self.target_width is not None and not 0.0 < self.target_width <= 1.0:
            raise ValueError(
                f"target_width must be in (0, 1], got {self.target_width}"
            )

    def resolved_f(self) -> int:
        return self.f if self.f is not None else ProtocolConfig(n=self.n).f

    def cells(self, supported_only: bool = True) -> List[MatrixCell]:
        """Enumerate the cross product, in axis order.

        ``supported_only=False`` includes combinations whose adversary has
        no implementation for the protocol (useful for coverage audits).
        """
        f = self.resolved_f()
        out = [
            MatrixCell(
                protocol=p,
                adversary=a,
                latency=lat,
                n=self.n,
                f=f,
                track_bytes=self.track_bytes,
                track_memory=self.track_memory,
            )
            for p in self.protocols
            for a in (
                registered_adversaries()
                if self.adversaries is None
                else self.adversaries
            )
            for lat in self.latencies
        ]
        if supported_only:
            out = [c for c in out if c.supported]
        return out

    def cell_trials(self, cell: MatrixCell, fallback: int = 1) -> int:
        """The trial budget for one cell: label match > adversary > default."""
        budgets = dict(self.budgets)
        if cell.label in budgets:
            return budgets[cell.label]
        if cell.adversary in budgets:
            return budgets[cell.adversary]
        return self.budget if self.budget is not None else fallback

    def cell_target_width(self, cell: MatrixCell) -> Optional[float]:
        """The adaptive width target for one cell (same matching as budgets);
        ``None`` means the cell runs its fixed budget."""
        widths = dict(self.target_widths)
        if cell.label in widths:
            return widths[cell.label]
        if cell.adversary in widths:
            return widths[cell.adversary]
        return self.target_width

    @property
    def adaptive(self) -> bool:
        """Whether any cell declares an adaptive width target."""
        return self.target_width is not None or bool(self.target_widths)

    def total_trials(self, fallback: int = 1) -> int:
        """Total trials across supported cells under the matrix budgets."""
        return sum(self.cell_trials(c, fallback) for c in self.cells())

    def with_size(self, n: int, f: Optional[int] = None) -> "ScenarioMatrix":
        """The same matrix at a different system size.

        An explicitly pinned ``f`` survives when ``n`` is unchanged; once
        ``n`` moves, ``f`` is re-derived unless the caller supplies one (a
        pinned fault count for the old ``n`` may be invalid for the new).
        """
        if f is None and n == self.n:
            f = self.f
        return ScenarioMatrix(
            name=self.name,
            protocols=self.protocols,
            adversaries=self.adversaries,
            latencies=self.latencies,
            n=n,
            f=f,
            description=self.description,
            budget=self.budget,
            budgets=self.budgets,
            target_width=self.target_width,
            target_widths=self.target_widths,
            track_bytes=self.track_bytes,
            track_memory=self.track_memory,
        )


class CellAccumulator:
    """Constant-memory aggregation of one cell's trial rows.

    Folds each trial's flat result row into streaming accumulators —
    :class:`~repro.harness.metrics.Welford` for the means (bit-identical to
    the materialized ``sum/len`` path, see metrics), and
    :class:`~repro.harness.metrics.StreamingProportion` for the
    agreement-rate Wilson interval.  A 10⁵-trial cell costs a handful of
    floats, not 10⁵ dicts.

    Doubles as the progress view adaptive stopping rules consume
    (:mod:`repro.harness.adaptive`): ``trials`` plus :meth:`width` over the
    cell's proportion metrics.
    """

    def __init__(self, cell: MatrixCell) -> None:
        self.cell = cell
        self.trials = 0
        self._decide = Welford()
        self._agreement = Welford()
        self._agreement_prop = StreamingProportion()
        self._max_view = Welford()
        self._decision_time = Welford()
        self._messages = Welford()
        self._bytes = Welford()
        self._peak_mem = Welford()

    def add(self, row: Dict[str, Any]) -> None:
        self.trials += 1
        self._decide.add(row["decided"] / row["n_correct"])
        agreement_ok = bool(row["agreement_ok"])
        self._agreement.add(1.0 if agreement_ok else 0.0)
        self._agreement_prop.add(agreement_ok)
        self._max_view.add(float(row["max_view"]))
        self._decision_time.add(row["last_decision_time"])
        self._messages.add(float(row["total_messages"]))
        self._bytes.add(float(row["total_bytes"]))
        # Presence-sniffed: rows from runs without memory telemetry (or
        # from older row producers) simply never feed the accumulator.
        peak = row.get("peak_mem_mb")
        if peak is not None:
            self._peak_mem.add(float(peak))

    def width(self, metric: str = "agreement_rate") -> float:
        """Current Wilson interval width of a proportion metric.

        The progress hook for adaptive stopping: 1.0 before any trial (the
        zero-information interval), shrinking as trials fold in.  Unknown
        metrics raise a KeyError that names what is available.
        """
        if metric != "agreement_rate":
            raise KeyError(
                f"unknown stopping metric {metric!r}; available: "
                f"agreement_rate"
            )
        return self._agreement_prop.interval_width

    def summary(self) -> Dict[str, Any]:
        """The per-cell report row (means, rates, intervals, and costs).

        The cost columns (``mean_messages``/``mean_bytes`` with stderr
        companions) reproduce communication-cost comparisons; bytes are 0
        unless the cell was built with ``track_bytes=True``.
        ``interval_width`` is the achieved agreement-interval width — the
        quantity adaptive runs drive to a target, reported for fixed runs
        too so budget choices can be audited after the fact.
        """
        agreement_low, agreement_high = self._agreement_prop.interval
        peak_mem = (
            {"mean_peak_mem_mb": round(self._peak_mem.mean, 2)}
            if self._peak_mem.count
            else {}
        )
        return {
            "protocol": self.cell.protocol,
            "adversary": self.cell.adversary,
            "latency": self.cell.latency,
            "trials": self.trials,
            "decide_rate": round(self._decide.mean, 4),
            "decide_stderr": round(self._decide.stderr, 4),
            "agreement_rate": self._agreement.mean,
            "agreement_ci_low": round(agreement_low, 4),
            "agreement_ci_high": round(agreement_high, 4),
            "interval_width": round(agreement_high - agreement_low, 4),
            "mean_max_view": self._max_view.mean,
            "mean_decision_time": round(self._decision_time.mean, 3),
            "mean_messages": round(self._messages.mean, 1),
            "messages_stderr": round(self._messages.stderr, 1),
            "mean_bytes": round(self._bytes.mean, 1),
            "bytes_stderr": round(self._bytes.stderr, 1),
            **peak_mem,
        }


@dataclass
class MatrixReport:
    """Per-cell aggregates over the matrix's seeded runs.

    ``trials`` is the uniform per-cell override the caller requested, or
    ``None`` when per-cell matrix budgets applied (each row's ``trials``
    column carries its own count either way).  Adaptive runs additionally
    carry ``target_width``/``chunk`` and per-row ``trials_used`` /
    ``stop_reason`` columns.
    """

    matrix: str
    trials: Optional[int]
    master_seed: int
    rows: List[Dict[str, Any]] = field(default_factory=list)
    #: Uniform adaptive width target this report ran under (None = fixed
    #: budgets or per-matrix widths; the rows tell the per-cell story).
    target_width: Optional[float] = None
    #: Checkpoint period adaptive rules were evaluated at (None = fixed).
    chunk: Optional[int] = None

    @property
    def adaptive(self) -> bool:
        """Whether this report ran adaptively.

        ``chunk`` is the canonical signal (:func:`run_matrix` sets it only
        for adaptive runs, so even an empty-celled adaptive report keeps
        its metadata); the row sniff keeps hand-assembled reports'
        ``headers``/``table_rows`` consistent.
        """
        return self.chunk is not None or (
            bool(self.rows) and "trials_used" in self.rows[0]
        )

    @property
    def headers(self) -> List[str]:
        head = [
            "protocol",
            "adversary",
            "latency",
            "trials",
        ]
        if self.adaptive:
            head += ["trials_used", "stop_reason"]
        head += [
            "decide_rate",
            "decide_stderr",
            "agreement_rate",
            "agreement_ci_low",
            "agreement_ci_high",
            "interval_width",
            "mean_max_view",
            "mean_decision_time",
            "mean_messages",
            "messages_stderr",
            "mean_bytes",
            "bytes_stderr",
        ]
        # Presence-sniffed telemetry column: only memory-tracked runs
        # produce it, and hand-assembled reports without it stay valid.
        if self.rows and "mean_peak_mem_mb" in self.rows[0]:
            head.append("mean_peak_mem_mb")
        return head

    def table_rows(self) -> List[List[Any]]:
        return [[row[h] for h in self.headers] for row in self.rows]

    @property
    def all_agreement_ok(self) -> bool:
        return all(row["agreement_rate"] == 1.0 for row in self.rows)


def run_matrix(
    matrix: ScenarioMatrix,
    trials: Optional[int] = None,
    master_seed: int = 0,
    workers: int = 0,
    engine: Optional[ExperimentEngine] = None,
    max_time: float = 5000.0,
    backend: Optional[str] = None,
    target_width: Optional[float] = None,
    stopping: Optional[StoppingRule] = None,
    chunk: int = DEFAULT_CHUNK,
) -> MatrixReport:
    """Stream every supported cell's trials and aggregate per cell.

    ``trials`` overrides every cell uniformly; ``None`` (default) applies
    the matrix's per-cell budgets (fallback 1).  Trial seeds derive from
    ``(master_seed, global trial index)`` — cell ``k``'s trial ``j`` has
    index ``sum(caps[:k]) + j`` — so the report is bit-identical for any
    worker count.  ``backend="serial"`` is the same as ``workers=0`` (no
    other value is accepted).  Because results fold into
    :class:`CellAccumulator` as they arrive, memory stays constant in the
    number of trials.

    Every cell runs through :func:`~repro.harness.adaptive.consume_adaptive`
    under one rule: ``FixedBudget(cap)`` for a fixed cell, or — with
    ``target_width`` (uniform), the matrix's own
    ``target_width``/``target_widths``, or an explicit ``stopping`` rule
    for every cell — an **adaptive** rule that stops the cell at the first
    ``chunk`` boundary where its agreement-rate Wilson interval is at most
    the target width, the budget becoming a worst case.  Rule evaluation
    is deterministic, so ``trials_used`` is identical for every worker
    count; seeds keep the fixed-budget index layout, so an adaptive cell's
    estimates are bit-identical to the same-length prefix of the fixed
    run.  Adaptive reports' rows gain ``trials_used`` / ``stop_reason``
    columns (``trials`` keeps the cap).

    All cells share one engine stream (bounded to ``window=chunk`` when
    any cell may stop early), so a pool never drains at a cell boundary:
    once a cell's rule fires, its remaining specs are never generated and
    its results still in flight are dropped.
    """
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if stopping is not None and target_width is not None:
        raise ValueError("pass target_width or stopping, not both")
    if target_width is not None and not 0.0 < target_width <= 1.0:
        raise ValueError(f"target_width must be in (0, 1], got {target_width}")
    if backend not in (None, "serial"):
        raise ValueError(
            f"unknown backend {backend!r}; pass workers= (0/1 serial, "
            f"k > 1 a pool of k processes)"
        )
    if backend == "serial":
        workers = 0
    cells = matrix.cells(supported_only=True)
    caps = [
        trials if trials is not None else matrix.cell_trials(c)
        for c in cells
    ]
    adaptive = (
        stopping is not None or target_width is not None or matrix.adaptive
    )

    def rule_for(cell: MatrixCell, cap: int) -> StoppingRule:
        if stopping is not None:
            return stopping
        width = (
            target_width
            if target_width is not None
            else matrix.cell_target_width(cell)
        )
        if width is None:
            return FixedBudget(cap)
        return TargetWidth(width, metric="agreement_rate", max_trials=cap)

    stopped = [False] * len(cells)
    #: The cell of every spec handed to the engine, in submission order —
    #: which is the order results come back in.
    owners: Deque[int] = deque()

    def specs() -> Iterator[TrialSpec]:
        base = 0
        for k, (cell, cap) in enumerate(zip(cells, caps)):
            for index in range(base, base + cap):
                if stopped[k]:
                    break
                owners.append(k)
                yield TrialSpec(
                    index=index,
                    seed=derive_seed(master_seed, index),
                    params=(cell, max_time),
                )
            base += cap

    def cell_rows(results: Iterator[Dict[str, Any]], k: int, cap: int):
        """Cell ``k``'s results, past the dropped ones of stopped cells."""
        own = (row for row in results if owners.popleft() == k)
        return itertools.islice(own, cap)

    report = MatrixReport(
        matrix=matrix.name,
        trials=trials,
        master_seed=master_seed,
        target_width=target_width,
        chunk=chunk if adaptive else None,
    )
    with engine_scope(engine, workers) as resolved:
        results = resolved.stream(
            run_matrix_cell, specs(), window=chunk if adaptive else None
        )
        try:
            for k, (cell, cap) in enumerate(zip(cells, caps)):
                accumulator = CellAccumulator(cell)
                used, reason = consume_adaptive(
                    cell_rows(results, k, cap),
                    accumulator.add,
                    accumulator,
                    rule_for(cell, cap),
                    chunk,
                )
                stopped[k] = True
                row = accumulator.summary()
                if adaptive:
                    row["trials"] = cap
                    row["trials_used"] = used
                    row["stop_reason"] = reason
                report.rows.append(row)
        finally:
            results.close()
    return report


#: Named matrices the CLI can run.  ``smoke`` is deliberately tiny — it is
#: the CI target (`repro sweep --trials 4 --workers 2`).
MATRICES: Dict[str, ScenarioMatrix] = {
    "smoke": ScenarioMatrix(
        name="smoke",
        protocols=("probft",),
        adversaries=("none", "silent"),
        latencies=("constant",),
        n=8,
        description="2 ProBFT cells at n=8; seconds, not minutes.",
    ),
    "probft-adversaries": ScenarioMatrix(
        name="probft-adversaries",
        protocols=("probft",),
        n=20,
        description="ProBFT under every adversary × latency model at n=20.",
        budget=2,
        budgets=(("equivocation", 6), ("targeted-scheduler", 4)),
    ),
    "schedulers": ScenarioMatrix(
        name="schedulers",
        adversaries=("none", "targeted-scheduler"),
        latencies=("constant", "exponential"),
        n=10,
        description=(
            "Every protocol under the receiver-targeted scheduler and "
            "heavy-tailed (exponential) delays at n=10."
        ),
        budgets=(("targeted-scheduler", 6), ("none", 2)),
    ),
    "latency-tails": ScenarioMatrix(
        name="latency-tails",
        adversaries=("none", "silent", "crash"),
        latencies=("exponential",),
        n=16,
        description=(
            "Exponential (heavy-tail, capped) delays under benign and "
            "fail-stop adversaries at n=16."
        ),
        budget=3,
    ),
    "adversary-complete": ScenarioMatrix(
        name="adversary-complete",
        adversaries=None,
        latencies=("constant",),
        n=8,
        description=(
            "Every protocol × every registered adversary at n=8 — the "
            "no-unsupported-cells audit; the CI matrix-completeness smoke "
            "target."
        ),
    ),
    "adaptive-demo": ScenarioMatrix(
        name="adaptive-demo",
        protocols=("probft",),
        adversaries=("none", "silent"),
        latencies=("constant",),
        n=8,
        budget=64,
        target_width=0.2,
        description=(
            "Adaptive Wilson-width budgets: each n=8 cell stops at the "
            "first checkpoint where its agreement interval is <= 0.2 wide "
            "(trial budget 64 is the worst case, not the cost)."
        ),
    ),
    "byte-costs": ScenarioMatrix(
        name="byte-costs",
        adversaries=("none", "flooding", "duplication"),
        latencies=("constant",),
        n=10,
        track_bytes=True,
        description=(
            "Per-cell message- and byte-cost columns (bit complexity as a "
            "first-class metric) under benign, flooding, and duplicating "
            "conditions at n=10."
        ),
    ),
    "full": ScenarioMatrix(
        name="full",
        description=(
            "Every protocol × adversary × latency combination at n=20 "
            "(no combination is unsupported)."
        ),
    ),
}


def get_matrix(name: str) -> ScenarioMatrix:
    """Look up a named matrix; unknown names raise a clear KeyError."""
    try:
        return MATRICES[name]
    except KeyError:
        raise KeyError(
            f"unknown matrix {name!r}; known matrices: "
            f"{', '.join(sorted(MATRICES))}"
        ) from None


def list_matrices() -> List[str]:
    return sorted(MATRICES)
