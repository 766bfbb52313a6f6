"""The stack at the sizes tier-1 cannot afford (the ``slow`` tier).

Production ``==`` oracle at n=300 and for PBFT at n=100, a view change at
n=1000, the memory of an n=5000 trial, and the counters of an n=300
exponential-latency trial: validated once, chains of one-recipient buckets,
one queue entry per fan-out.  Run with ``python -m pytest -q -m slow``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.harness.registry import MatrixCell, cell_deployment_spec
from repro.harness.trial import TrialContext, run_trial

from .helpers import reference_spec

pytestmark = pytest.mark.slow


def _spec(n, f, adversary="none", latency="uniform", seed=0, protocol="probft"):
    cell = MatrixCell(protocol, adversary, latency, n=n, f=f, track_bytes=n <= 30)
    return cell_deployment_spec(cell, seed=seed, max_time=600.0)


def _tags(context):
    return context.deployment.crypto.signatures.cache_stats()["tags_computed"]


@pytest.mark.parametrize("protocol", ["probft", "pbft"])
def test_flooding_equals_the_oracle_byte_for_byte(protocol):
    """The flooder's shared seats drive ProBFT and PBFT alike.  Sizing a
    message encodes it, so both stacks compute the tags they send (the only
    production reader) and must report the same bytes."""
    spec = _spec(30, 5, "flooding", seed=2, protocol=protocol)
    tabled, table_free = TrialContext(spec), TrialContext(reference_spec(spec))
    production = tabled.execute()
    assert production == table_free.execute()
    assert production.total_bytes > 0
    assert _tags(tabled) > 0 and _tags(table_free) > 0


@pytest.mark.parametrize("latency", ["constant", "uniform"])
def test_n300_equals_the_oracle(latency):
    """Above the sampler's array break-even: an n=300 request is 91 words,
    and each prover's block of 54 is expanded in one array pass at its
    first prove (every n <= 40 request is at most 50, below it)."""
    spec = _spec(300, 99, latency=latency)
    production = run_trial(spec)
    assert production == run_trial(reference_spec(spec))
    assert production.all_decided


def test_n1000_silent_leader_decides_in_view_2():
    """Scale survives a view change: 10^6 Wish messages, and nobody reads
    an honest signature tag on the way."""
    silent = TrialContext(_spec(1000, 333, "silent", "constant", seed=11))
    result = silent.execute()
    assert result.all_decided and result.agreement_ok, result
    assert result.max_view == 2, result
    assert _tags(silent) == 0


def test_n5000_trial_decides_within_80_mb():
    """Peak heap (tracemalloc): 120.1 MB while every sample element was an
    int of its own, 55.2 MB with shared ids."""
    spec = dataclasses.replace(
        _spec(5000, 999, latency="constant", seed=2024), track_memory=True
    )
    result = run_trial(spec)
    assert result.all_decided and result.agreement_ok, result
    assert result.peak_mem_mb <= 80, result.peak_mem_mb


def test_n300_exponential_validates_once_and_chains():
    """Under continuous latency every bucket has one recipient: a vote's
    token is computed by its first recipient and looked up by the rest, and
    a chain of buckets is walked per kernel call."""
    jitter = TrialContext(_spec(300, 99, latency="exponential", seed=5))
    result = jitter.execute()
    assert result.all_decided and result.agreement_ok, result
    counts = jitter.deployment.crypto.verdicts.counts
    fanouts = 2 * 300 * result.max_view  # a Prepare and a Commit a replica and view
    tokens, lookups = counts.computed["vote"], counts.reused["vote"]
    assert tokens <= fanouts + 2, (tokens, fanouts)
    assert lookups >= 30 * tokens, (lookups, tokens)
    routes = jitter.deployment.vote_kernel_stats()
    assert 16 * routes["vote_chains"] <= routes["walked"], routes


def test_n300_exponential_queues_a_fanout_as_one_entry():
    """A multicast waits in the heap as one cursor over its deliveries,
    sorted by (time, seq), not as one entry per recipient."""
    deployment = _spec(300, 99, latency="exponential", seed=5).build()
    sim = deployment.sim
    deployment.run_until(lambda: sim.pending_events >= 5000, max_time=600.0)
    entries, pending = len(sim._heap), sim.pending_events
    assert 8 * entries <= pending, (entries, pending)


@pytest.mark.parametrize(
    "latency,route", [("constant", "vectorised"), ("exponential", "walked")]
)
def test_pbft_rides_the_vote_kernel(latency, route):
    """PBFT on the ProBFT skeleton: an array pass per phase at constant
    latency, chains of one-recipient buckets under exponential latency, and
    the trial still equals the oracle."""
    spec = _spec(100, 33, latency=latency, protocol="pbft")
    context = TrialContext(spec)
    production = context.execute()
    assert production == run_trial(reference_spec(spec))
    assert production.all_decided, production
    routes = context.deployment.vote_kernel_stats()
    assert routes[route] > 0 and routes["declined"] == 0, routes


def test_pbft_duplication_delivers_what_the_oracle_delivers():
    """A kernel-applied vote its recipient no longer counts is not
    delivered, so delivered counts equal the oracle's where every vote
    bucket is declined and delivered whole: under duplication."""
    spec = _spec(100, 33, "duplication", "exponential", seed=4, protocol="pbft")
    tabled, table_free = TrialContext(spec), TrialContext(reference_spec(spec))
    assert tabled.execute() == table_free.execute()
    ours = tabled.deployment.network.stats
    theirs = table_free.deployment.network.stats
    assert ours.delivered_total == theirs.delivered_total > 0
    assert ours.delivered_by_type == theirs.delivered_by_type
    routes = tabled.deployment.vote_kernel_stats()
    assert routes["declined"] > 0 and routes["walked"] == routes["vectorised"] == 0
