"""The wire contract, fuzzed: a seeded sweep derived from the messages' hints.

Each protocol's messages are first built as an honest run would build them
(the *seeds*).  Then every field of every object inside a seed — found from
the dataclasses' own fields, with range mutations read off their
annotations, so a new field is fuzzed without editing this file — is
replaced, one at a time, by each junk value, and every envelope on the way
up is signed again with its signer's own key (a zero tag where the junk
cannot even be encoded).  Seeds and mutants go through ``on_message`` to a
bystander and to view 2's leader, and through the network to everyone, on
the production stack and on the oracle: nothing may raise, the run decides,
and both stacks decide alike.  A Byzantine seat that sends its own mutants
into an n=30 trial must leave it deciding and equal to its oracle.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
from itertools import chain
from typing import Annotated, Any, List, get_args, get_origin, get_type_hints

import pytest

import repro
from repro.crypto.signatures import Signed
from repro.crypto.vrf import phase_seed
from repro.messages.base import CanonicalMessage, ProposalStatement, conforms
from repro.messages.hotstuff import HsNewView, HsProposal, HsQuorumCert, HsVote, HsVotePayload
from repro.messages.pbft import PbftCommit, PbftNewLeader, PbftPrepare, PbftPropose
from repro.messages.probft import Commit, NewLeader, Prepare, Propose
from repro.smr.replica import SlotEnvelope
from repro.streamlined.block import Block, BlockProposal, BlockVote
from repro.sync.synchronizer import Wish
from repro.types import MAX_VIEW

from .helpers import reference_spec


class _HashRaises(bytes):
    def __hash__(self):
        raise RuntimeError("hostile __hash__")


class _EqRaises(bytes):
    __hash__ = bytes.__hash__

    def __eq__(self, other):
        raise RuntimeError("hostile __eq__")


class _IntHashRaises(int):
    def __hash__(self):
        raise RuntimeError("hostile __hash__")


class _IntEqRaises(int):
    __hash__ = int.__hash__

    def __eq__(self, other):
        raise RuntimeError("hostile __eq__")


def _nested(depth: int) -> tuple:
    value: tuple = ()
    for _ in range(depth):
        value = (value,)
    return value


#: What any field may be replaced by: the wrong type, ``bool`` for ``int``,
#: an ``int`` past ``int64``, unhashable, a ``bytes`` / ``int`` subclass
#: whose ``__hash__`` or ``__eq__`` raises, a deeply nested tuple.  Range
#: mutations come from the field's own annotation (:func:`_out_of_range`).
JUNK = (
    None, "x", 7, 2**64, 1.5, True, [1], {"a": 1},
    _HashRaises(b"v"), _EqRaises(b"v"), _IntHashRaises(1), _IntEqRaises(1),
    _nested(100),
)


def _out_of_range(hint) -> tuple:
    """Just outside an ``Annotated[int, low, high]`` range (a ``View``)."""
    if get_origin(hint) is Annotated:
        _base, low, high = get_args(hint)
        return (low - 1, high + 1)
    return ()


def _mutants(obj, resign):
    """Every copy of ``obj`` with one field (of a dataclass) or the first
    item (of a tuple) somewhere inside replaced by junk."""
    if type(obj) is tuple and obj:
        for item in chain(JUNK, _mutants(obj[0], resign)):
            yield (item,) + obj[1:]
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        hints = get_type_hints(type(obj), include_extras=True)
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            junk = chain(JUNK, _out_of_range(hints.get(f.name)), _mutants(value, resign))
            for replacement in junk:
                yield _with(obj, f.name, replacement, resign)


def _with(obj, name, value, resign):
    """``obj`` with ``name`` replaced; an envelope is signed again with its
    signer's key unless its tag is the field replaced."""
    if type(obj) is not Signed:
        return dataclasses.replace(obj, **{name: value})
    if name == "signature":
        return Signed(obj.payload, obj.signer, value)
    fields = {"payload": obj.payload, "signer": obj.signer, name: value}
    return resign(obj.signer, fields["signer"], fields["payload"])


def _signing(crypto, config, only=None):
    """``(sign, prove, resign)`` over ``crypto``'s keys — ``only``'s key for
    everything when given (a Byzantine seat has no other)."""
    def key(r):
        return crypto.registry.key_pair(only if only is not None else r).private_key

    def sign(r, payload):
        r = only if only is not None else r
        return crypto.signatures.sign_with(key(r), r, payload)

    def prove(r, view, tag):
        r = only if only is not None else r
        seed = phase_seed(view, tag, config.seed_domain)
        return crypto.vrf.prove_with(key(r), r, seed, config.sample_size)

    def resign(owner, signer, payload):
        try:
            return crypto.signatures.sign_with(key(owner), signer, payload)
        except TypeError:  # junk with no canonical encoding: a forged tag
            return Signed(payload, signer, bytes(32))

    return sign, prove, resign


def _seeds(protocol, config, sign, prove, quorum):
    """Messages of an honest run of ``protocol``: view 1's proposal and a
    vote of each kind (leader 0), and view 2's NewLeader / NewView, proposal
    (leader 1, justified) and a Wish — ``(sender, envelope)`` pairs.  Its
    certificates, justifications and QCs hold ``quorum(size)`` signers."""
    d, n, f = config.seed_domain, config.n, config.f
    wish = (5, sign(5, Wish(view=2, domain=d)))
    if protocol == "probft":
        s1 = sign(0, ProposalStatement(1, b"v", d))
        s2 = sign(1, ProposalStatement(2, b"v", d))

        def vote(kind, r):
            return sign(r, kind(statement=s1, sample=prove(r, 1, kind.__name__.lower())))

        cert = tuple(vote(Prepare, r) for r in quorum(config.q))
        justification = tuple(
            sign(r, NewLeader(2, 1, b"v", cert, d)) for r in quorum(config.det_quorum)
        )
        return [
            (0, sign(0, Propose(1, s1, None))),
            (5, vote(Prepare, 5)),
            (5, vote(Commit, 5)),
            (5, sign(5, NewLeader(2, 1, b"v", cert, d))),
            (1, sign(1, Propose(2, s2, justification))),
            wish,
        ]
    if protocol == "pbft":
        s1 = sign(0, ProposalStatement(1, b"v", d))
        s2 = sign(1, ProposalStatement(2, b"v", d))
        cert = tuple(sign(r, PbftPrepare(s1)) for r in quorum(config.det_quorum))
        justification = tuple(
            sign(r, PbftNewLeader(2, 1, b"v", cert)) for r in quorum(config.det_quorum)
        )
        return [
            (0, sign(0, PbftPropose(1, s1, None))),
            (5, sign(5, PbftPrepare(s1))),
            (5, sign(5, PbftCommit(s1))),
            (5, sign(5, PbftNewLeader(2, 1, b"v", cert))),
            (1, sign(1, PbftPropose(2, s2, justification))),
            wish,
        ]
    votes = tuple(sign(r, HsVotePayload(1, b"v", "prepare")) for r in quorum(n - f))
    qc = HsQuorumCert(1, b"v", "prepare", votes)
    votes2 = tuple(sign(r, HsVotePayload(2, b"v", "prepare")) for r in quorum(n - f))
    qc2 = HsQuorumCert(2, b"v", "prepare", votes2)
    return [
        (5, sign(5, HsNewView(2, qc))),
        (1, sign(1, HsProposal(2, b"v", "prepare", qc))),
        (1, sign(1, HsProposal(2, b"v", "pre-commit", qc2))),
        (5, sign(5, HsVote(sign(5, HsVotePayload(2, b"v", "prepare"))))),
        wish,
    ]


def _traffic(protocol, crypto, config, only=None):
    """Seeds, then all their mutants, as ``(sender, message)``: valid
    certificates and quorums, or with ``only``, one signer's copies of
    each — well-typed, but no quorum."""
    sign, prove, resign = _signing(crypto, config, only)
    quorum = range if only is None else lambda size: range(1)
    seeds = _seeds(protocol, config, sign, prove, quorum)
    mutants = [(src, m) for src, seed in seeds for m in _mutants(seed, resign)]
    return seeds + mutants


PROTOCOLS = ["probft", "pbft", "hotstuff"]


class TestSweep:
    @staticmethod
    def _run(protocol, reference):
        """n=8 with a silent view-1 leader: the seeds of view 1 reach
        replicas that voted nobody yet, view 2's are buffered at its leader
        (replica 1) and replayed when the view change lands there."""
        from repro.harness.registry import MatrixCell, cell_deployment_spec

        cell = MatrixCell(protocol, "silent", "constant", n=8, f=2)
        spec = cell_deployment_spec(cell, seed=11, max_time=600.0)
        dep = (reference_spec(spec) if reference else spec).build()
        dep.start()
        traffic = _traffic(protocol, dep.crypto, dep.config)
        for src, message in traffic:
            for dst in (3, 1):  # a bystander, and view 2's leader
                dep.replicas[dst].on_message(src, message)
        for src, message in traffic:
            dep.network.multicast(src, [d for d in range(8) if d != src], message)
        dep.run(max_time=600.0)
        assert dep.all_correct_decided() and dep.agreement_ok
        return len(traffic), {r: (d.value, d.view) for r, d in dep.decisions.items()}

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_nothing_raises_and_both_stacks_decide_alike(self, protocol):
        sent, production = self._run(protocol, False)
        assert sent > 700
        assert self._run(protocol, True) == (sent, production)

    def test_slot_envelopes(self):
        """SMR's envelope, around a slot-1 Prepare and Wish, mutated the same
        way (its ``inner`` included), sent at t=0.5 of a serving trial."""
        from repro.smr.workload import ServingSpec, build_serving_deployment, serve

        spec = ServingSpec(num_clients=4, requests_per_client=2, seed=2)

        def run(reference):
            dep = build_serving_deployment(spec, reference=reference)
            config = dep.stack.slot_config(1)
            sign, prove, resign = _signing(dep.crypto, config)
            statement = sign(0, ProposalStatement(1, b"v", config.seed_domain))
            seeds = [
                (5, SlotEnvelope(1, sign(5, Prepare(statement, prove(5, 1, "prepare"))))),
                (5, SlotEnvelope(1, sign(5, Wish(2, config.seed_domain)))),
            ]
            traffic = seeds + [(s, m) for s, seed in seeds for m in _mutants(seed, resign)]

            def inject():
                for src, message in traffic:
                    for dst in (3, 1):
                        dep.replicas[dst].on_message(src, message)
                    dep.network.multicast(src, [d for d in range(9) if d != src], message)

            dep.sim.schedule(0.5, inject)
            return len(traffic), serve(spec, dep)

        (sent, result), oracle = run(False), run(True)
        assert sent > 150 and oracle == (sent, result)
        assert result.completed == spec.total_requests
        assert result.timed_out == 0 and result.logs_consistent
        assert oracle[1].latencies == result.latencies


def _mutating_seat(protocol):
    class Seat:
        """Byzantine seat: at the start, every seed and mutant of its own
        (everything signed with its key alone) to everyone."""

        def __init__(self, replica_id, config, crypto, transport):
            self.id, self._config = replica_id, config
            self._crypto, self._transport = crypto, transport
            self.sent = 0

        def start(self):
            everyone = [d for d in range(self._config.n) if d != self.id]
            for _src, message in _traffic(protocol, self._crypto, self._config, self.id):
                self._transport.multicast(everyone, message)
                self.sent += 1

        def on_message(self, src, message):
            pass

    return Seat


class TestMutatingSeat:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_n30_trial_decides_and_equals_its_oracle(self, protocol):
        """Seat 0 leads view 1: its seeds hold its one valid proposal."""
        from repro.harness.registry import MatrixCell, cell_deployment_spec
        from repro.harness.trial import TrialContext

        def context(reference):
            cell = MatrixCell(protocol, "none", "constant", n=30, f=5)
            spec = dataclasses.replace(
                cell_deployment_spec(cell, seed=6, max_time=600.0),
                byzantine={0: _mutating_seat(protocol)},
            )
            return TrialContext(reference_spec(spec) if reference else spec)

        production = context(False)
        result = production.execute()
        assert result == context(True).execute()
        assert result.all_decided and result.agreement_ok
        assert production.deployment.replicas[0].sent > 700


def _message_classes():
    """Every message class under ``repro``."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            importlib.import_module(info.name)
    seen, todo = set(), list(CanonicalMessage.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.add(cls)
            todo += cls.__subclasses__()
    return sorted(seen, key=lambda c: (c.__module__, c.__qualname__))


class TestContract:
    def test_every_message_class_has_a_wire_type(self):
        classes = _message_classes()
        assert {Propose, NewLeader, Prepare, Commit, PbftPropose, PbftNewLeader,
                PbftPrepare, PbftCommit, HsVotePayload, HsQuorumCert, HsNewView,
                HsProposal, HsVote, Wish, SlotEnvelope, ProposalStatement,
                Block, BlockProposal, BlockVote} <= set(classes)
        for cls in classes:
            assert conforms(None, cls) is False  # compiles its hints, or raises
            hints = get_type_hints(cls, include_extras=True)
            for f in dataclasses.fields(cls):
                if (cls, f.name) != (SlotEnvelope, "inner"):
                    # (A bare ``Signed`` field would take any message.)
                    assert hints[f.name] not in (object, Any, Signed), (cls, f.name)

    @pytest.mark.parametrize("hint", [Any, List[int], Annotated[str, 0, 1]])
    def test_a_hint_it_cannot_read_is_refused(self, hint):
        with pytest.raises(TypeError):
            conforms(None, hint)

    def test_views_are_exact_ints_in_range(self):
        statement = ProposalStatement(0, b"v")
        assert conforms(statement, ProposalStatement)
        assert conforms(dataclasses.replace(statement, view=MAX_VIEW), ProposalStatement)
        for view in (-1, MAX_VIEW + 1, True, 1.0, _IntEqRaises(1)):
            assert not conforms(dataclasses.replace(statement, view=view), ProposalStatement)
