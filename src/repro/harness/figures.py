"""The paper's artifacts as tables: what ``repro figures`` prints.

One function per artifact, each returning ``(title, headers, rows)`` for
:func:`repro.harness.tables.render_table`; the title's first line names the
artifact and any further lines state the paper's claim.  Analytic columns
come from :mod:`repro.analysis`; measured columns run the protocols at
fixed seeds, so every table is deterministic.  ``docs/figures.md`` is the
committed output of ``python -m repro figures``.
"""

from __future__ import annotations

import itertools
import math

from ..adversary.behaviors import silent_factory
from ..analysis import agreement as A
from ..analysis import messages as M
from ..analysis import quorum_probability as Q
from ..analysis import termination as T
from ..config import ProtocolConfig, max_faults
from ..core.protocol import ProBFTDeployment
from ..net.latency import ConstantLatency
from ..smr.app import CounterApp
from ..smr.service import SMRDeployment
from ..streamlined import StreamDeployment
from ..sync.timeouts import FixedTimeout
from .parallel import spawn_seeds
from .registry import MatrixCell, cell_deployment_spec
from .trial import run_trial

#: The paper's redundancy values (Figures 1b and 5), all at l = 2.
O_VALUES = (1.6, 1.7, 1.8)
PROTOCOLS = ("pbft", "probft", "hotstuff")
FIG5_N = [100, 150, 200, 250, 300]
FIG5_F_RATIOS = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30]


def _view1(protocol: str, n: int, f: int):
    """The fault-free unit-latency cell's first seed that decides in view 1
    (the good case the paper counts; ProBFT sometimes needs a view change)."""
    cell = MatrixCell(protocol, "none", "constant", n, f)
    specs = (cell_deployment_spec(cell, s, 10_000.0) for s in itertools.count())
    return next(r for r in map(run_trial, specs) if r.max_view == 1)


def fig1a_steps():
    rows = [
        [n] + [_view1(p, n, max_faults(n)).steps for p in PROTOCOLS]
        for n in (10, 25, 50)
    ]
    rows.append(["expected", M.PBFT_STEPS, M.PROBFT_STEPS, M.HOTSTUFF_STEPS])
    return (
        "Fig. 1a: good-case communication steps, measured on a unit-latency "
        "network\npaper: PBFT 3, ProBFT 3, HotStuff trades steps for linear "
        "messages",
        ["n", "PBFT steps", "ProBFT steps", "HotStuff steps"],
        rows,
    )


def fig1b_messages():
    ns = [100, 150, 200, 250, 300, 350, 400]
    series = M.figure1b_series(ns, o_values=O_VALUES)
    rows = [
        [n]
        + [curve[i][1] for curve in series.values()]
        + [round(M.probft_to_pbft_ratio(n, o), 3) for o in O_VALUES]
        for i, n in enumerate(ns)
    ]
    return (
        "Fig. 1b: exchanged messages vs n (analytic, q = 2 sqrt(n))\n"
        "paper: ProBFT sends ~18-25% of PBFT's messages at o=1.7 over the "
        "upper n range",
        ["n", *series, *(f"ProBFT/PBFT o={o}" for o in O_VALUES)],
        rows,
    )


def fig1b_measured():
    rows = []
    for n in (100, 200):
        pbft, probft, hotstuff = (
            _view1(p, n, n // 5).protocol_messages for p in PROTOCOLS
        )
        rows.append([
            n, pbft, M.pbft_messages(n), hotstuff, M.hotstuff_messages(n),
            probft, round(M.probft_expected_network_messages(n, 1.7)),
        ])
    return (
        "Fig. 1b, measured: protocol messages of a view-1 run vs the "
        "formulas (o=1.7)",
        ["n", "PBFT measured", "PBFT formula", "HS measured", "HS formula",
         "ProBFT measured", "ProBFT expected"],
        rows,
    )


def _fig5_panel(title, x_label, curve):
    """One Figure 5 panel: ``curve(o)`` gives ``[(x, bound, exact), ...]``."""
    headers = [x_label] + [
        f"{kind} o={o}" for o in O_VALUES for kind in ("bound", "exact")
    ]
    rows = [
        [points[0][0]] + [v for point in points for v in point[1:]]
        for points in zip(*map(curve, O_VALUES))
    ]
    return title, headers, rows


def fig5_agreement_vs_n():
    return _fig5_panel(
        "Fig. 5 top-left: within-view agreement vs n (f/n=0.2, Byzantine "
        "leader, optimal split)\npaper: in the 0.999..1 band, increasing with "
        "n; bound n/a where Theorem 7's Chernoff domain fails",
        "n",
        lambda o: A.agreement_curve_vs_n(FIG5_N, 0.2, o),
    )


def fig5_termination_vs_n():
    return _fig5_panel(
        "Fig. 5 top-right: per-replica termination vs n (f/n=0.2, correct "
        "leader after GST)\npaper: increases with n; a higher o gives a "
        "higher probability",
        "n",
        lambda o: T.termination_curve_vs_n(FIG5_N, 0.2, o),
    )


def fig5_agreement_vs_f():
    return _fig5_panel(
        "Fig. 5 bottom-left: within-view agreement vs f/n (n=100, Byzantine "
        "leader, optimal split)\npaper: decreases with f/n",
        "f/n",
        lambda o: A.agreement_curve_vs_f(100, FIG5_F_RATIOS, o),
    )


def fig5_termination_vs_f():
    return _fig5_panel(
        "Fig. 5 bottom-right: per-replica termination vs f/n (n=100)\n"
        "paper: decreases with f/n (y-range 0.25..1)",
        "f/n",
        lambda o: T.termination_curve_vs_f(100, FIG5_F_RATIOS, o),
    )


def fig5_attack_cell():
    n, f, trials = 20, 4, 8
    cell = MatrixCell("probft", "equivocation", "constant", n, f)
    results = [
        run_trial(cell_deployment_spec(cell, seed, 5000.0))
        for seed in spawn_seeds(2024, trials)
    ]
    return (
        "Fig. 5, measured: the optimal-split attack in the full protocol "
        "(the probft/equivocation/constant cell)\nthe chain counts quorum "
        "formation only; equivocation detection (Alg. 1 lines 23-25) blocks "
        "what it counts",
        ["n", "f", "trials", "violations", "undecided",
         "chain P(violation, any)"],
        [[
            n, f, trials,
            sum(not r.agreement_ok for r in results),
            sum(not r.all_decided for r in results),
            A.violation_exact_any(n, f, 1.7, 2.0),
        ]],
    )


def complexity():
    claimed = {"pbft": 2.0, "probft": 1.5, "hotstuff": 1.0}
    rows = []
    for claim in M.complexity_table():
        protocol = claim.protocol.lower()
        small, large = (
            _view1(protocol, n, n // 5).protocol_messages for n in (64, 256)
        )
        alpha = math.log(large / small) / math.log(256 / 64)
        rows.append([
            claim.protocol, claim.steps, claim.message_complexity,
            claim.communication_complexity, small, large, round(alpha, 3),
            claimed[protocol],
        ])
    return (
        "§3.3 complexity: the claims beside measured message growth "
        "(counts ~ n^alpha)",
        ["protocol", "steps", "message complexity", "communication complexity",
         "msgs n=64", "msgs n=256", "measured alpha", "claimed alpha"],
        rows,
    )


def phase_split():
    """The O(n) + O(n√n) + O(n√n) decomposition of a view-1 ProBFT run."""
    config = ProtocolConfig(n=144, f=28)
    by_type = _view1("probft", config.n, config.f).messages_by_type
    votes = config.sample_size * (config.n - 1)
    return (
        f"§3.3 ProBFT per-phase message split (n={config.n}, "
        f"s={config.sample_size})",
        ["phase", "measured", "expected"],
        [
            ["Propose", by_type["Propose"], config.n - 1],
            ["Prepare", by_type["Prepare"], votes],
            ["Commit", by_type["Commit"], votes],
        ],
    )


def communication_bits():
    rows = []
    for n in (20, 40, 80):
        config = ProtocolConfig(n=n, f=n // 5)
        good = ProBFTDeployment(
            config, latency=ConstantLatency(1.0), track_bytes=True
        ).run(max_time=1000)
        bad = ProBFTDeployment(
            config, latency=ConstantLatency(1.0), track_bytes=True,
            timeout_policy=FixedTimeout(20.0), byzantine={0: silent_factory()},
        ).run(max_time=5000)
        g, b = good.network.stats, bad.network.stats
        good_propose = g.bytes_by_type["Propose"] / g.sent_by_type["Propose"]
        bad_propose = b.bytes_by_type["Propose"] / b.sent_by_type["Propose"]
        rows.append([
            n, round(good_propose), round(bad_propose),
            round(bad_propose / good_propose, 1), g.bytes_total, b.bytes_total,
            max(d.view for d in bad.decisions.values()),
        ])
    return (
        "§3.3 communication: canonical-encoding bytes, fault-free vs a "
        "silent view-1 leader\npaper: a view-change Propose carries a "
        "deterministic quorum of NewLeader messages -> O(n^2 sqrt(n)) "
        "communication",
        ["n", "Propose bytes (good)", "Propose bytes (view change)",
         "blow-up x", "total bytes (good)", "total bytes (view change)",
         "last view"],
        rows,
    )


def constructions():
    n, f, decisions = 16, 3, 6
    config = ProtocolConfig(n=n, f=f)

    def row(name, dep, decided, consistent, wasted=None):
        stats = dep.network.stats
        return [
            name, decided, dep.sim.now, round(decided / dep.sim.now, 3),
            stats.sent_total, stats.sent("Wish") + stats.sent("NewLeader"),
            wasted, consistent,
        ]

    rows = []
    for name, pipeline in (("SMR (sequential)", 1), ("SMR (pipeline=4)", 4)):
        smr = SMRDeployment(
            config, CounterApp, num_slots=decisions, seed=1, pipeline=pipeline
        )
        smr.run(max_time=10_000)
        rows.append(row(name, smr, decisions, smr.logs_consistent()))
    stream = StreamDeployment(config, seed=1)
    stream.run_until(
        lambda: stream.min_finalized_height() >= decisions, max_time=10_000
    )
    rows.append(row(
        "Streamlined", stream, stream.min_finalized_height(),
        stream.chains_consistent(),
    ))
    silent = silent_factory()
    faulty = StreamDeployment(
        config, seed=2, byzantine={r: silent for r in (0, 14, 15)}
    )
    faulty.run_until(lambda: faulty.min_finalized_height() >= 4, max_time=10_000)
    last_epoch = max(r.current_epoch for r in faulty.correct_replicas().values())
    wasted = sum(
        (e - 1) % n in faulty.byzantine_ids for e in range(1, last_epoch)
    )
    rows.append(row(
        "Streamlined, 3 silent", faulty, faulty.min_finalized_height(),
        faulty.chains_consistent(), wasted,
    ))
    return (
        f"§7 constructions: multi-decision ProBFT (n={n}, f={f})\n"
        "paper future work: SMR, and streamlined consensus with no "
        "view-change sub-protocol (a Byzantine leader's epoch is wasted, "
        "not changed)",
        ["construction", "decisions", "sim time", "decisions/time",
         "total msgs", "Wish+NewLeader msgs", "leader epochs wasted",
         "consistent"],
        rows,
    )


#: The ledger's sizes, and Theorem 4's number of correct-leader views.
LEDGER_N = (100, 300, 1000)
VIEWS = 3


def _domain(bound, exact):
    """A claim's cells when its premise is its bound's domain."""
    return bound, exact, not math.isnan(bound)


def _claims_at(n, o):
    """``(label, bound, exact, premise)`` per claim at one paper point.

    ``exact`` is None where the claim has no chain.  A comparison (Theorems
    5 and 6) states no bound; its exact cell is the smallest gain, so the
    claim holds where it is > 0.  Lemma 4 and Theorem 7 read their Fig. 5
    panel's function.
    """
    c = ProtocolConfig(n=n, f=n // 5, o=o)
    f, l, q, s = c.f, c.l, c.q, c.sample_size
    ((_, lemma4, replica_chain),) = T.termination_curve_vs_n([n], 0.2, o, l)
    ((_, theorem7, agreement_chain),) = A.agreement_curve_vs_n([n], 0.2, o, l)
    per_view = T.theorem15_all_terminate(n, f, o, l, strict=False)
    all_chain = T.all_terminate_exact(n, f, o, l)
    third = (n - f) // 3
    before, after = A.theorem5_merging_increases_violation(
        n, f, o, l, [third, third, n - f - 2 * third]
    )
    by_r = Q.theorem6_monotone_in_r(n, s, q, (n // 2, n - f, n))
    side, late = A.optimal_side_senders(n, f), (n + f) // 2
    premise2 = Q.theorem2_premise_holds(n, f, l, o)
    return [
        ("Lemma 1: E[senders reaching j], r = n-f",
         Q.expected_senders_reaching(n - f, s, n), None, True),
        ("Theorem 11: Pr(quorum), r = n-f", *_domain(
            Q.prob_quorum_theorem11(n, n - f, s, q, strict=False),
            Q.prob_quorum_exact(n, n - f, s, q))),
        ("Corollary 2: Pr(quorum), q = ceil(l sqrt(n))", *_domain(
            Q.prob_quorum_corollary2(n, f, o, q, strict=False),
            Q.prob_quorum_exact_config(n, f, o, l))),
        ("Theorem 2/14: Pr(quorum), q = l sqrt(n)",
         Q.prob_quorum_theorem2(n, f, l, o, strict=False),
         Q.prob_quorum_exact_config(n, f, o, l), premise2),
        ("Lemma 3: Pr(commit quorum)", *_domain(
            T.lemma3_commit_quorum_prob(n, f, o, l, strict=False),
            T.decide_chain(n, o, l, n - f, 0)[1])),
        ("Lemma 4: Pr(replica decides), Fig. 5 top-right",
         *_domain(lemma4, replica_chain)),
        ("Theorem 15: Pr(all correct decide)", *_domain(per_view, all_chain)),
        ("Theorem 3/16: 1 - 2(n-f) exp(-sqrt(n))",
         T.theorem3_asymptotic(n, f), all_chain, premise2),
        (f"Theorem 4/17: Pr(all decide within k={VIEWS} views)", *_domain(
            per_view if math.isnan(per_view)
            else T.decide_within_views(per_view, VIEWS),
            T.decide_within_views(all_chain, VIEWS))),
        ("Lemma 5: Pr(both sides prepare), optimal split", *_domain(
            A.lemma5_disagreement_bound(n, f, o, l, strict=False),
            Q.prob_quorum_exact(n, side, s, q) ** 2)),
        ("Theorem 5/13: gain of merging 2 of 3 even groups",
         None, after - before, True),
        ("Theorem 6/12: gain of r = n/2 -> n-f -> n",
         None, min(b - a for a, b in zip(by_r, by_r[1:])), True),
        ("Theorem 7/18: within-view agreement, Fig. 5 top-left",
         *_domain(theorem7, agreement_chain)),
        ("Lemma 6: Pr(quorum from r = (n+f)/2)", *_domain(
            A.lemma6_decide_bound(n, f, o, l, late, strict=False),
            Q.prob_quorum_exact(n, late, s, q))),
        ("Theorem 8/19: Pr(conflicting proposal after a decision)",
         *_domain(A.theorem8_viewchange_bound(n, f, o, l, strict=False), None)),
        ("Corollary 1: safety", *_domain(A.corollary1_safety(n, f, o, l), None)),
    ]


def paper_claims():
    points = {(n, o): _claims_at(n, o) for n in LEDGER_N for o in O_VALUES}
    rows = [
        [claim[0], o] + [v for n in LEDGER_N for v in points[n, o][i][1:]]
        for i, claim in enumerate(points[LEDGER_N[0], O_VALUES[0]])
        for o in O_VALUES
    ]
    return (
        "Paper claims: each lemma, theorem and corollary at l=2, f=n/5 "
        "(numbered as in arXiv 2405.04606)\nbound: the stated form (n/a "
        "outside its domain); exact: the binomial chain of the same event (- "
        "where none); premise: whether the claim's premise or domain holds",
        ["claim", "o"] + [
            f"{column} n={n}" for n in LEDGER_N
            for column in ("bound", "exact", "premise")
        ],
        rows,
    )


#: Every artifact, in the order ``repro figures`` prints them.
ARTIFACTS = (
    fig1a_steps,
    fig1b_messages,
    fig1b_measured,
    fig5_agreement_vs_n,
    fig5_termination_vs_n,
    fig5_agreement_vs_f,
    fig5_termination_vs_f,
    fig5_attack_cell,
    complexity,
    phase_split,
    communication_bits,
    constructions,
    paper_claims,
)
