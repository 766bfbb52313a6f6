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
The exact per-vote counts of an n=1000 happy-path trial sit beside them.
"""

from __future__ import annotations

import sys
from array import array

import pytest

from repro.config import ProtocolConfig
from repro.core.columnar import RunKernel
from repro.crypto.keys import KeyRegistry
from repro.crypto.verdicts import VerdictTable
from repro.crypto.vrf import _BLOCK_CELLS, VRF, phase_seed
from repro.harness.registry import MatrixCell, cell_deployment_spec
from repro.harness.trial import TrialContext, run_trial
from repro.messages.hotstuff import HsProposal
from repro.messages.pbft import PbftPropose
from repro.messages.probft import Propose
from repro.net.latency import ConstantLatency, ExponentialLatency, UniformLatency
from repro.net.network import Network, message_kind
from repro.net.simulator import Simulator


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


@pytest.mark.parametrize(
    "latency, bound",
    [
        (ConstantLatency(1.0), 10),
        (ExponentialLatency(mean=1.0, cap=50.0, seed=1), 13),
        (UniformLatency(0.5, 1.5, seed=1), 13),
    ],
    ids=["constant", "exponential", "uniform"],
)
def test_send_side_calls_do_not_grow_with_fan_out(latency, bound):
    """A coalesced fan-out, draw to queued records, is a fixed few Python
    frames whatever its size and whether its targets come as an id array
    or a list: nothing on the send side is called per target.  13 with a
    drawing model (its draws, the times and the buckets are a comprehension
    each), 10 with a constant one."""
    sim = Simulator()
    network = Network(sim, 300, latency=latency)
    for r in range(300):
        network.register(r, lambda src, message: None)
    network.use_kernel({})
    network.multicast(0, [1], "m")  # (the first send of a kind names its counter)
    sim.clear()
    counts = []
    for size in (1, 2, 30, 63, 64, 299):
        for targets in (array("H", range(1, size + 1)), list(range(1, size + 1))):
            _, calls = _counting_calls(lambda: network.multicast(0, targets, "m"))
            counts.append(calls)
            sim.clear()
    assert len(set(counts)) == 1 and counts[0] <= bound, counts


def _prove_calls(vrf, proves):
    """Python calls made by ``vrf.prove(*args)`` for each of ``proves``, and
    the outputs (after a warm-up prove)."""
    outputs = []

    def prove_all():
        for args in proves:
            outputs.append(vrf.prove(*args))

    _, calls = _counting_calls(prove_all)
    return outputs, calls


def test_calls_per_vrf_prove_stay_within_budget():
    """Python calls per ``VRF.prove`` with a verdict table when every prove
    is the only one of its seed (n=9): each expands its whole block, all
    nine provers, so the misses are per block.  9.6 calls a prove; 10 while
    an n=9 prove expanded its own key alone (plus one when a first request
    fell short), 12 while ``digest`` encoded in a comprehension and
    ``prove`` asked for a key pair, 21 before the prover's path was
    shortened."""
    n = 9
    vrf = VRF(KeyRegistry(n), VerdictTable())
    s = ProtocolConfig(n).sample_size
    vrf.prove(0, "warm-up", s)
    seeds = [phase_seed(view, "prepare") for view in range(1, 101)]
    lone = [(i % n, seed, s) for i, seed in enumerate(seeds)]
    outputs, calls = _prove_calls(vrf, lone)
    assert len({output.proof for output in outputs}) == len(seeds)
    assert vrf.cache_stats()["misses"] == (len(seeds) + 1) * n  # per block
    assert calls / len(seeds) <= 12.1, calls / len(seeds)


@pytest.mark.parametrize("n, budget", [(9, 3.5), (1000, 5)])
def test_calls_per_vrf_prove_of_a_phase(n, budget):
    """The protocol's pattern — every replica proves each phase's seed —
    expands each block of provers once, at every n: 2.9 calls a prove at
    n=9 (one block; 10 while n=9 proved one key at a time) and 2.4 at
    n=1000 (blocks of 16; 12 while every prove expanded alone), and each
    sample is expanded exactly once."""
    vrf = VRF(KeyRegistry(n), VerdictTable())
    s = ProtocolConfig(n).sample_size
    vrf.prove(0, "warm-up", s)
    expanded = vrf.cache_stats()["misses"]
    seeds = [phase_seed(1, "prepare"), phase_seed(1, "commit"), phase_seed(2, "prepare")]
    proves = [(r, seed, s) for seed in seeds for r in range(n)]
    outputs, calls = _prove_calls(vrf, proves)
    assert vrf.cache_stats()["misses"] - expanded == 3 * n
    assert len({output.proof for output in outputs}) == 3 * n
    assert calls / len(proves) <= budget, calls / len(proves)


def test_calls_per_lone_vrf_prove():
    """A prove that is the only one of its seed (no workload makes one)
    still expands its whole block: 100 seeds, one prove each, are 100
    blocks of B samples, at 0.50 calls per sample expanded (12 per sample
    when every prove expanded alone)."""
    n = 1000
    vrf = VRF(KeyRegistry(n), VerdictTable())
    s = ProtocolConfig(n).sample_size
    block = _BLOCK_CELLS // n
    vrf.prove(0, "warm-up", s)
    seeds = [phase_seed(view, "prepare") for view in range(1, 101)]
    lone = [(i % n, seed, s) for i, seed in enumerate(seeds)]
    outputs, calls = _prove_calls(vrf, lone)
    assert len({output.proof for output in outputs}) == len(seeds)
    expanded = vrf.cache_stats()["misses"]
    assert expanded == 100 * block + block
    assert calls / (expanded - block) <= 1.5, calls / (expanded - block)


def test_a_vote_at_buffer_speed():
    """On a fault-free constant-latency n=1000 trial that decides in view 1
    the per-vote work is an exact count."""
    n = 1000
    cell = MatrixCell("probft", "none", "constant", n=n, f=333)
    happy = TrialContext(cell_deployment_spec(cell, seed=3, max_time=600.0))
    outcome = happy.execute()
    assert outcome.all_decided and outcome.max_view == 1, outcome
    counts = happy.deployment.crypto.verdicts.counts
    # One Prepare and one Commit sample per replica, expanded once (a block
    # of provers at a time) and never again: everything honest is born valid.
    assert counts.samples_expanded == 2 * n, counts.samples_expanded
    assert counts.born["vrf"] == 2 * n, dict(counts.born)
    # A phase in one pass: ~1,800 vote buckets, all of one delivery time per
    # phase, reach the kernel as runs and are applied a few thousand votes
    # at a time; only the leader's own Prepare, which lands alone, is below
    # the break-even and walked.
    routes = happy.deployment.vote_kernel_stats()
    assert 16 * routes["vote_passes"] <= routes["vectorised"], routes
    assert routes["walked"] <= 0.01 * routes["vectorised"], routes
    # Signed on first read, and an honest tag has no reader here.
    tags = happy.deployment.crypto.signatures.cache_stats()["tags_computed"]
    assert counts.tags_computed == tags == 0, counts.tags_computed
    assert counts.computed.get("signature", 0) == 0, dict(counts.computed)
    assert counts.computed.get("vrf", 0) == 0, dict(counts.computed)
    # Membership on demand: neither the kernel's own-sample route nor a
    # sender's delivery to itself asks "i in S", so no vote of a fault-free
    # trial carries a built set.
    born = happy.deployment.crypto.verdicts._entries["vrf"]
    proven = [(key[1][0], entry[0]) for key, entry in born.items()]
    assert len(proven) == 2 * n, len(proven)
    self_sampled = sum(prover in out.sample for prover, out in proven)
    built = sum("_members" in out.__dict__ for _, out in proven)
    assert built == 0 < self_sampled < len(proven) // 4, (built, self_sampled)


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
