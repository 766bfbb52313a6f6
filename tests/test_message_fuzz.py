"""The wire contract, fuzzed: a seeded sweep derived from the messages' hints.

Each protocol's messages are first built as an honest run would build them
(the *seeds*).  Then every field of every object inside a seed — found from
the dataclasses' own fields, with range mutations read off their
annotations, so a new field is fuzzed without editing this file — is
replaced, one at a time, by each junk value; so is a VRF sample's first id
(by int-like junk) and its array (by one of another typecode), an
envelope's tag (by a forged one of the right type), its signer (by another
seat carrying the same tag), and every object (by an equal instance of a
subclass).  Every envelope on the way up is signed again with its signer's
own key (a zero tag where the junk cannot even be encoded).

Unit by unit, a mutant vote or proposal that breaks the contract or carries
a forged tag is judged invalid, a second pass computes no new verdict, and a
replica fed only mutants it cannot accept sends nothing.  Seeds and mutants
go through ``on_message`` to a bystander and to view 2's leader, and through
the network to everyone, on the production stack and on the oracle: nothing
may raise, the run decides in its pinned views, and both stacks decide
alike.  A Byzantine seat that sends its own seeds and mutants into an n=30
trial must leave it deciding in its pinned views and equal to its oracle;
one in the view-1 leader's seat that sends only its mutants that break the
contract is a silent leader: the trial decides in the views a silent
leader's trial does, and every decided value is exactly ``bytes``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import pkgutil
from array import array
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


def _mutants(obj, resign, n):
    """Every copy of ``obj`` with one field (of a dataclass), the first item
    (of a tuple) or the first id (of an ``n``-replica sample) somewhere
    inside replaced by junk, or one object inside replaced by an equal
    instance of a subclass of its class; an envelope's, by its
    :func:`_parts`, forged tags included."""
    if type(obj) is tuple and obj:
        for item in chain(JUNK, _mutants(obj[0], resign, n)):
            yield (item,) + obj[1:]
    elif type(obj) is array:
        first, rest = obj[0], tuple(obj[1:])
        for bad in (-1, n, 2**16, 2**64, True, _IntHashRaises(first), _IntEqRaises(first)):
            yield (bad,) + rest
        yield from (array("h", (-1,) + rest), array("I", (2**16,) + rest), array("d", obj))
    elif type(obj) is Signed:
        for part in _parts(type(obj.payload)):
            yield from _part(obj, part, resign, n)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _field_mutants(obj, f.name, resign, n)
        yield _subclassed(obj)


@functools.cache
def _hints(cls):
    return get_type_hints(cls, include_extras=True)


def _field_mutants(obj, name, resign, n):
    """Copies of the dataclass ``obj`` with its field ``name`` replaced by
    junk, by a value just outside its annotated range, or by one of the
    field's own mutants."""
    value = getattr(obj, name)
    junk = chain(JUNK, _out_of_range(_hints(type(obj)).get(name)), _mutants(value, resign, n))
    for replacement in junk:
        if replacement is not value:
            yield _with(obj, name, replacement, resign)


def _parts(kind):
    """Where an envelope around a ``kind`` payload is mutated: the whole
    payload, each of its fields, its class, the envelope's signer and tag,
    forged tags and the envelope's class."""
    fields = (f"payload.{f.name}" for f in dataclasses.fields(kind))
    return ("payload", *fields, "payload-subclass", "signer", "signature", "forged", "subclass")


def _part(envelope, part, resign, n):
    """The mutants of ``envelope`` at one of its :func:`_parts`."""
    payload = envelope.payload
    if part == "forged":
        return list(_forged(envelope))
    if part == "subclass":
        return [_subclassed(envelope)]
    if part in ("signer", "signature"):
        return list(_field_mutants(envelope, part, resign, n))
    if part == "payload":
        inner = JUNK
    elif part == "payload-subclass":
        inner = (_subclassed(payload),)
    else:
        inner = _field_mutants(payload, part.removeprefix("payload."), resign, n)
    return [_with(envelope, "payload", m, resign) for m in inner]


def _with(obj, name, value, resign):
    """``obj`` with ``name`` replaced; an envelope is signed again with its
    signer's key unless its tag is the field replaced."""
    if type(obj) is not Signed:
        return dataclasses.replace(obj, **{name: value})
    if name == "signature":
        return Signed(obj.payload, obj.signer, value)
    fields = {"payload": obj.payload, "signer": obj.signer, name: value}
    return resign(obj.signer, fields["signer"], fields["payload"])


def _forged(envelope):
    """Tags of the right type that nobody made for ``envelope``: all zeros,
    its own with one bit flipped, and its own under another valid seat."""
    tag = envelope.signature
    return (
        Signed(envelope.payload, envelope.signer, bytes(32)),
        Signed(envelope.payload, envelope.signer, bytes([tag[0] ^ 1]) + tag[1:]),
        Signed(envelope.payload, envelope.signer ^ 1, tag),
    )


@functools.cache
def _subclass(cls):
    return type(f"Sub{cls.__name__}", (cls,), {})


def _subclassed(obj):
    """``obj``'s fields in an instance of a subclass of its class (one that
    could override ``__hash__`` / ``__eq__``)."""
    fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return _subclass(type(obj))(**fields)


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
    """Seeds, and all their mutants, as two lists of ``(sender, message)``:
    valid certificates and quorums, or with ``only``, one signer's copies
    of each — well-typed, but no quorum."""
    sign, prove, resign = _signing(crypto, config, only)
    quorum = range if only is None else lambda size: range(1)
    seeds = _seeds(protocol, config, sign, prove, quorum)
    return seeds, [(src, m) for src, seed in seeds for m in _mutants(seed, resign, config.n)]


def _judge(protocol, config, crypto, message):
    """The protocol's own verdict on a vote, a proposal or a NewLeader for
    view 2, alone (``None``: nothing it judges outside a replica)."""
    from repro.baselines.pbft.predicates import (
        pbft_safe_proposal, pbft_valid_new_leader, pbft_vote_token,
    )
    from repro.core.predicates import safe_proposal, valid_new_leader
    from repro.core.replica import prevalidate_vote

    payload = getattr(message, "payload", None)
    if protocol == "probft":
        vote, proposal, new_leader = (Prepare, Commit), Propose, NewLeader
        token, safe, valid = prevalidate_vote, safe_proposal, valid_new_leader
    elif protocol == "pbft":
        vote, proposal, new_leader = (PbftPrepare, PbftCommit), PbftPropose, PbftNewLeader
        token, safe, valid = pbft_vote_token, pbft_safe_proposal, pbft_valid_new_leader
    else:
        return None
    if isinstance(payload, vote):
        verdict = token(config, crypto, message)
        return verdict is not None and verdict.valid
    if isinstance(payload, proposal):
        return safe(message, config, crypto)
    if isinstance(payload, new_leader):
        return valid(message, 2, config, crypto)
    return None


def _envelopes(obj):
    """Every envelope inside a well-typed message, its own included."""
    if type(obj) is Signed:
        yield obj
        obj = obj.payload
    if type(obj) is tuple:
        for item in obj:
            yield from _envelopes(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _envelopes(getattr(obj, f.name))


PROTOCOLS = ["probft", "pbft", "hotstuff"]

#: The payload class of each of a protocol's seeds, in :func:`_seeds`' order.
SEED_KINDS = {
    "probft": (Propose, Prepare, Commit, NewLeader, Propose, Wish),
    "pbft": (PbftPropose, PbftPrepare, PbftCommit, PbftNewLeader, PbftPropose, Wish),
    "hotstuff": (HsNewView, HsProposal, HsProposal, HsVote, Wish),
}

#: One refusal case per protocol, seed and :func:`_parts` of it.
REFUSAL_CASES = [
    pytest.param(protocol, i, part, id=f"{protocol}-{i}{kind.__name__}-{part}")
    for protocol, kinds in SEED_KINDS.items()
    for i, kind in enumerate(kinds)
    for part in _parts(kind)
]

#: The views the n=8 sweep decides in: the seeds hold leader 0's one valid
#: view-1 proposal, HotStuff's none (its view 2 decides).
SWEEP_DECISION_VIEWS = {"probft": (1,), "pbft": (1,), "hotstuff": (2,)}


def _silent_leader_cell(protocol, reference=False):
    """n=8 with a silent view-1 leader, started: the seeds of view 1 reach
    replicas that voted nobody yet, view 2's are buffered at its leader
    (replica 1) and replayed when the view change lands there."""
    from repro.harness.registry import MatrixCell, cell_deployment_spec

    cell = MatrixCell(protocol, "silent", "constant", n=8, f=2)
    spec = cell_deployment_spec(cell, seed=11, max_time=600.0)
    dep = (reference_spec(spec) if reference else spec).build()
    dep.start()
    return dep


class TestSweep:
    @staticmethod
    def _run(protocol, reference):
        dep = _silent_leader_cell(protocol, reference)
        seeds, mutants = _traffic(protocol, dep.crypto, dep.config)
        traffic = seeds + mutants
        for src, message in traffic:
            for dst in (3, 1):  # a bystander, and view 2's leader
                dep.replicas[dst].on_message(src, message)
        for src, message in traffic:
            dep.network.multicast(src, [d for d in range(8) if d != src], message)
        dep.run(max_time=600.0)
        assert dep.all_correct_decided() and dep.agreement_ok
        views = tuple(sorted({d.view for d in dep.decisions.values()}))
        assert views == SWEEP_DECISION_VIEWS[protocol]
        return len(traffic), {r: (d.value, d.view) for r, d in dep.decisions.items()}

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_nothing_raises_and_both_stacks_decide_alike(self, protocol):
        sent, production = self._run(protocol, False)
        assert sent > 700
        assert self._run(protocol, True) == (sent, production)

    @pytest.mark.parametrize("protocol, seed, part", REFUSAL_CASES)
    def test_every_mutant_is_refused_once(self, protocol, seed, part):
        """Judged alone, no ProBFT mutant vote, proposal or NewLeader is
        valid, and a PBFT one only if it is still well-typed and carries
        only its signers' own tags (PBFT reads no statement domain: its
        domain mutants are valid).  Fed to a bystander and to view 2's
        leader, the others get no answer, no view change, no block and no
        decision; and a second pass over them computes no new verdict.  One
        case per part of one seed: together, the sweep's every mutant."""
        dep = _silent_leader_cell(protocol)
        sign, prove, resign = _signing(dep.crypto, dep.config)
        seeds = _seeds(protocol, dep.config, sign, prove, range)
        assert tuple(type(m.payload) for _src, m in seeds) == SEED_KINDS[protocol]
        src, envelope = seeds[seed]
        mutants = [(src, m) for m in _part(envelope, part, resign, dep.config.n)]
        sent = dep.network.stats.sent_total

        def judged():
            return [_judge(protocol, dep.config, dep.crypto, m) for _src, m in mutants]

        verdicts = judged()
        assert mutants
        # (A payload that is no message at all is nothing the protocol judges.)
        judged_kind = protocol != "hotstuff" and type(envelope.payload) is not Wish
        assert not judged_kind or part == "payload" or False in verdicts
        assert protocol != "probft" or not any(verdicts)
        for (_src, message), valid in zip(mutants, verdicts):
            if valid:  # no junk, no forgery
                assert conforms(message, Signed), message
                assert all(map(dep.crypto.signatures.verify, _envelopes(message))), message
        refused = [m for m, valid in zip(mutants, verdicts) if not valid]

        def feed():
            for src, message in refused:
                for dst in (3, 1):
                    dep.replicas[dst].on_message(src, message)

        feed()
        computed = dict(dep.crypto.verdicts.counts.computed)
        assert judged() == verdicts
        feed()
        assert dict(dep.crypto.verdicts.counts.computed) == computed
        assert dep.network.stats.sent_total == sent
        for replica in (dep.replicas[3], dep.replicas[1]):
            assert replica.current_view == 1 and replica.decision is None
            assert not getattr(replica, "view_blocked", False)

    @pytest.mark.parametrize("protocol", ["probft", "pbft"])
    def test_slot_envelopes(self, protocol):
        """SMR's envelope, around a slot-1 vote, Wish and the slot leader's
        Propose, mutated the same way (its ``inner`` included, and the
        leader's value by junk that is no ``bytes``), sent at t=0.5 of a
        serving trial."""
        from repro.core.leader import leader_of
        from repro.smr.workload import ServingSpec, build_serving_deployment, serve

        spec = ServingSpec(protocol=protocol, num_clients=4, requests_per_client=2, seed=2)

        def run(reference):
            dep = build_serving_deployment(spec, reference=reference)
            config = dep.stack.slot_config(1)
            sign, prove, resign = _signing(dep.crypto, config)
            leader = leader_of(1, config)
            statement = sign(leader, ProposalStatement(1, b"v", config.seed_domain))
            if protocol == "probft":
                vote = Prepare(statement, prove(5, 1, "prepare"))
                propose = Propose(1, statement, None)
            else:
                vote, propose = PbftPrepare(statement), PbftPropose(1, statement, None)
            seeds = [
                (5, SlotEnvelope(1, sign(5, vote))),
                (5, SlotEnvelope(1, sign(5, Wish(2, config.seed_domain)))),
                (leader, SlotEnvelope(1, sign(leader, propose))),
            ]
            traffic = seeds + [
                (s, m) for s, seed in seeds for m in _mutants(seed, resign, config.n)
            ]

            def inject():
                for src, message in traffic:
                    for dst in (3, 1):
                        dep.replicas[dst].on_message(src, message)
                    dep.network.multicast(src, [d for d in range(9) if d != src], message)

            dep.sim.schedule(0.5, inject)
            return len(traffic), serve(spec, dep)

        (sent, result), oracle = run(False), run(True)
        assert sent > 250 and oracle == (sent, result)
        assert result.completed == spec.total_requests
        assert result.timed_out == 0 and result.logs_consistent
        assert oracle[1].latencies == result.latencies


def _mutating_seat(protocol, seeds=True):
    class Seat:
        """Byzantine seat: at the start, its own seeds and mutants (everything
        signed with its key alone) to everyone — without ``seeds``, only the
        mutants that break the wire contract."""

        def __init__(self, replica_id, config, crypto, transport):
            self.id, self._config = replica_id, config
            self._crypto, self._transport = crypto, transport
            self.sent = 0

        def start(self):
            everyone = [d for d in range(self._config.n) if d != self.id]
            own, mutants = _traffic(protocol, self._crypto, self._config, self.id)
            if not seeds:
                own, mutants = [], [(s, m) for s, m in mutants if not conforms(m, Signed)]
            for _src, message in own + mutants:
                self._transport.multicast(everyone, message)
                self.sent += 1

        def on_message(self, src, message):
            pass

    return Seat


def _seat_spec(protocol, seat, adversary="none", latency="constant"):
    """n=30, f=5, seed 6, the ``adversary`` cell, with ``seat`` at seat 0."""
    from repro.harness.registry import MatrixCell, cell_deployment_spec

    cell = MatrixCell(protocol, adversary, latency, n=30, f=5, track_bytes=True)
    spec = cell_deployment_spec(cell, seed=6, max_time=600.0)
    return spec if seat is None else dataclasses.replace(spec, byzantine={0: seat})


class TestMutatingSeat:
    @staticmethod
    def _execute(spec):
        """``spec``'s trial, production and oracle: the production context
        and its result, which must equal the oracle's and keep agreement."""
        from repro.harness.trial import TrialContext

        production = TrialContext(spec)
        result = production.execute()
        assert result == TrialContext(reference_spec(spec)).execute()
        assert result.all_decided and result.agreement_ok
        assert result.total_bytes > 0
        return production, result

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_n30_trial_decides_and_equals_its_oracle(self, protocol):
        """Seat 0 leads view 1: its seeds hold its one valid proposal (none
        for HotStuff)."""
        production, result = self._execute(_seat_spec(protocol, _mutating_seat(protocol)))
        assert result.decision_views == SWEEP_DECISION_VIEWS[protocol]
        assert production.deployment.replicas[0].sent > 700
        if protocol == "probft":  # (its vote kernel declines a group it cannot pass)
            assert production.deployment.vote_kernel_stats()["declined"] > 0

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_a_leader_of_mutants_only_is_a_silent_one(self, protocol):
        """Seat 0 leads view 1 with nothing but mutants that break the wire
        contract, a message dropped whole: the trial decides in the views a
        silent leader's trial does, and only ``bytes``: no junk value is
        ever decided."""
        from repro.harness.trial import run_trial

        seat = _mutating_seat(protocol, seeds=False)
        production, result = self._execute(_seat_spec(protocol, seat, latency="exponential"))
        assert production.deployment.replicas[0].sent > 500
        silent = _seat_spec(protocol, None, "silent", latency="exponential")
        assert result.decision_views == run_trial(silent).decision_views
        assert min(result.decision_views) >= 2
        decided = [d.value for d in production.deployment.decisions.values()]
        assert decided and all(type(value) is bytes for value in decided)


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
    under_repro = (c for c in seen if c.__module__.startswith("repro."))  # (not _subclassed's)
    return sorted(under_repro, key=lambda c: (c.__module__, c.__qualname__))


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
