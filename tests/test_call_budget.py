"""A per-delivery cost that timing cannot see: Python calls per event.

Under the paper's continuous latency every vote is a delivery of its own,
and what one delivery costs in the queue, the network's accounting, the
stop probe and the vote kernel's walk is interpreter work per event.  A
regression there moves a trial's wall time by a few percent, inside the
box's run-to-run spread; the number of Python-level calls per event moves
exactly.  Counted with ``sys.setprofile`` (a ``call`` event per Python
frame entered; C functions are not counted) inside ``TrialContext.execute``
of an n=100 exponential-latency trial, after one untraced run of the same
cell so that process-wide caches read the same whatever ran before.
``tools/opcount.py`` prints the same census per function, with opcodes.

The same census pins the prover's path: every replica draws a VRF sample
per phase, and ``VRF.prove`` was the largest single layer of a cold n=1000
trial; and the kernels' entries, counted in one place (``_kernel_calls``):
which kernel the run driver was entered for, and with which kind of bucket.
"""

from __future__ import annotations

import sys

import pytest

from repro.config import ProtocolConfig
from repro.core.columnar import RunKernel
from repro.crypto.keys import KeyRegistry
from repro.crypto.verdicts import VerdictTable
from repro.crypto.vrf import VRF, phase_seed
from repro.harness.registry import MatrixCell, cell_deployment_spec
from repro.harness.trial import TrialContext, run_trial
from repro.messages.hotstuff import HsProposal
from repro.messages.pbft import PbftPropose
from repro.messages.probft import Propose
from repro.net.network import message_kind


def _counting_calls(run):
    """``run()`` under a profile hook: its result and the Python frames entered."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return result, calls


def _calls_per_event(protocol: str, f: int, seed: int, max_time: float):
    spec = cell_deployment_spec(MatrixCell(protocol, "none", "exponential", n=100, f=f), seed, max_time)
    run_trial(spec)  # warm the process-wide caches the trial touches
    context = TrialContext(spec)
    context.build()
    result, calls = _counting_calls(context.execute)
    return result, calls, context.deployment.sim.events_processed


@pytest.mark.parametrize(
    "protocol, max_time, events, budget",
    [
        # (8.52 and 6.33 calls per event before the per-delivery cuts.)
        ("probft", 25.0, 6_383, 5.25),
        ("pbft", 10_000.0, 18_352, 2.95),
    ],
)
def test_calls_per_event_stay_within_budget(protocol, max_time, events, budget):
    result, calls, processed = _calls_per_event(protocol, 33, 5, max_time)
    assert result.all_decided
    assert processed == events  # the same trial: only who calls may move
    assert calls / processed <= budget, (calls, processed, calls / processed)


@pytest.mark.parametrize("n", [9, 1000])
def test_calls_per_vrf_prove_stay_within_budget(n):
    """Python calls per ``VRF.prove`` with a verdict table, below (n=9, 43
    words) and above (n=1000, 152 words) the sampler's array break-even:
    12 — the prove, the key pair, ``prove_with``, ``digest`` (six frames),
    the expansion (two) and the birth registration — plus one when a first
    request falls short and is doubled (7 of these 100 at n=9).  21 at both
    sizes before the prover's path was shortened."""
    vrf = VRF(KeyRegistry(n), VerdictTable())
    s = ProtocolConfig(n).sample_size
    seeds = [phase_seed(view, "prepare") for view in range(1, 101)]
    vrf.prove(0, "warm-up", s)  # grows the shared ids outside the count
    outputs = []

    def prove_all():
        for i, seed in enumerate(seeds):
            outputs.append(vrf.prove(i % n, seed, s))

    _, calls = _counting_calls(prove_all)
    assert len({output.proof for output in outputs}) == len(seeds)
    assert vrf.cache_stats()["misses"] == len(seeds) + 1  # every one expanded
    assert calls / len(seeds) <= 12.1, calls / len(seeds)


def _kernel_calls(cell, seed, max_time):
    """A trial's result, its deployment, and every entry into a kernel of
    its table (a frame of the run driver, ``RunKernel.__call__``) as the
    kernel and the kind of the bucket it was handed."""
    spec = cell_deployment_spec(cell, seed, max_time)
    context = TrialContext(spec)
    context.build()
    driver = RunKernel.__call__.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is driver:
            args = frame.f_locals
            calls.append((args["self"], message_kind(args["run"][args["pos"]][1])))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = context.execute()
    finally:
        sys.setprofile(previous)
    return result, context.deployment, calls


def _wish_kernel_calls(cell, seed, max_time):
    """A trial's result, its deployment and how many times the wish kernel
    was entered."""
    result, deployment, calls = _kernel_calls(cell, seed, max_time)
    wishes = deployment.stack.wishes
    return result, deployment, sum(kernel is wishes for kernel, _ in calls)


@pytest.mark.parametrize(
    "n, f, seed, views",
    [
        (100, 33, 3, 3),  # (view 2 missed)
        (300, 99, 11, None),
    ],
)
def test_wish_kernel_calls_per_view_change(n, f, seed, views):
    """A constant-latency view change is one same-time run of n-1 Wish
    broadcasts: one kernel call takes it, in array passes (n-1 calls, one
    per bucket, before wish groups)."""
    cell = MatrixCell("probft", "silent", "constant", n=n, f=f)
    result, deployment, calls = _wish_kernel_calls(cell, seed, 600.0)
    assert result.all_decided and result.max_view >= 2
    assert views is None or result.max_view == views
    assert calls <= 4 * (result.max_view - 1), calls
    assert deployment.vote_kernel_stats()["wish_passes"] >= 1


def test_wish_kernel_calls_per_wish_delivery():
    """Under exponential latency every Wish bucket has one recipient, and a
    chain of them is one walk: a kernel call per ~10 deliveries (at least
    one per delivery before wish chains)."""
    cell = MatrixCell("probft", "silent", "exponential", n=40, f=13)
    result, deployment, calls = _wish_kernel_calls(cell, 3, 600.0)
    wishes = deployment.network.stats.delivered_by_type["Wish"]
    assert result.all_decided and result.max_view == 2 and wishes == 39 * 39
    assert calls <= 0.25 * wishes, (calls, wishes)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wish_kernel_calls_under_equivocation(seed):
    """Wish buckets are the wish kernel's only calls: with an equivocating
    leader under exponential latency its calls were half of a trial's Wish
    deliveries while every Propose bucket went through it to be declined
    (0.28-0.53 at n=40), 0.03-0.04 once they stopped."""
    cell = MatrixCell("probft", "equivocation", "exponential", n=40, f=13)
    result, deployment, calls = _wish_kernel_calls(cell, seed, 5000.0)
    wishes = deployment.network.stats.delivered_by_type["Wish"]
    assert result.agreement_ok and wishes > 0
    assert calls <= 0.05 * wishes, (calls, wishes)


@pytest.mark.parametrize(
    "protocol, proposal",
    [("probft", Propose), ("pbft", PbftPropose), ("hotstuff", HsProposal)],
)
def test_proposals_enter_no_kernel(protocol, proposal):
    """A kind with no kernel in the table goes straight to the per-recipient
    loop: no proposal bucket is handed to a kernel to be declined (every
    one was, by the vote or the wish kernel, while they were chained).  An
    equivocating leader: a view change, so every protocol's kernels run."""
    cell = MatrixCell(protocol, "equivocation", "exponential", n=40, f=13)
    result, deployment, calls = _kernel_calls(cell, 0, 5000.0)
    assert result.all_decided
    assert deployment.network.stats.delivered_by_type[proposal.TYPE] > 0
    assert calls and not [kind for _, kind in calls if kind is proposal]
