"""Tests for repro.crypto.keys and repro.crypto.signatures."""

import pytest

from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.signatures import SignatureScheme
from repro.errors import SignatureError, UnknownReplicaError


class TestKeyRegistry:
    def test_deterministic_derivation(self):
        r1 = KeyRegistry(5, master_seed=b"seed")
        r2 = KeyRegistry(5, master_seed=b"seed")
        for i in range(5):
            assert r1.key_pair(i) == r2.key_pair(i)

    def test_different_seeds_different_keys(self):
        r1 = KeyRegistry(5, master_seed=b"a")
        r2 = KeyRegistry(5, master_seed=b"b")
        assert r1.key_pair(0) != r2.key_pair(0)

    def test_all_keys_distinct(self):
        reg = KeyRegistry(50)
        privates = {reg.key_pair(i).private_key for i in range(50)}
        publics = {reg.key_pair(i).public_key for i in range(50)}
        assert len(privates) == 50
        assert len(publics) == 50

    def test_unknown_replica(self):
        reg = KeyRegistry(5)
        with pytest.raises(UnknownReplicaError):
            reg.key_pair(7)

    def test_resolve_public(self):
        reg = KeyRegistry(5)
        pair = reg.key_pair(3)
        assert reg.resolve_public(pair.public_key).replica == 3
        with pytest.raises(UnknownReplicaError):
            reg.resolve_public(b"\x00" * 32)

    def test_public_keys_bulk(self):
        reg = KeyRegistry(5)
        keys = reg.public_keys([0, 2])
        assert set(keys) == {0, 2}

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            KeyRegistry(0)


class TestSignatures:
    @pytest.fixture
    def scheme(self):
        return SignatureScheme(KeyRegistry(10))

    def test_sign_verify_roundtrip(self, scheme):
        signed = scheme.sign(2, ("hello", 42))
        assert scheme.verify(signed)

    def test_tampered_payload_rejected(self, scheme):
        from dataclasses import replace

        signed = scheme.sign(2, ("hello", 42))
        forged = replace(signed, payload=("hello", 43))
        assert not scheme.verify(forged)

    def test_wrong_signer_claim_rejected(self, scheme):
        from dataclasses import replace

        signed = scheme.sign(2, "msg")
        forged = replace(signed, signer=3)
        assert not scheme.verify(forged)

    def test_forging_with_wrong_key_fails(self, scheme):
        # Adversary holds replica 5's key but claims to be replica 2.
        registry = KeyRegistry(10)
        stolen = registry.key_pair(5).private_key
        forged = scheme.sign_with(stolen, 2, "msg")
        assert not scheme.verify(forged)

    def test_unknown_signer_rejected(self, scheme):
        from dataclasses import replace

        signed = scheme.sign(2, "msg")
        forged = replace(signed, signer=99)
        assert not scheme.verify(forged)

    def test_require_valid_raises(self, scheme):
        from dataclasses import replace

        signed = scheme.sign(1, "x")
        scheme.require_valid(signed)  # no raise
        with pytest.raises(SignatureError):
            scheme.require_valid(replace(signed, payload="y"))

    def test_signatures_differ_per_signer(self, scheme):
        assert scheme.sign(1, "x").signature != scheme.sign(2, "x").signature

    def test_signatures_differ_per_payload(self, scheme):
        assert scheme.sign(1, "x").signature != scheme.sign(1, "y").signature

    def test_signed_is_canonically_encodable(self, scheme):
        from repro.crypto.hashing import stable_encode

        signed = scheme.sign(1, ("a", 1))
        assert stable_encode(signed) == stable_encode(scheme.sign(1, ("a", 1)))


class TestPublicKeysOnFirstRead:
    """A registry derives public keys, and the public-key index, for their
    first reader; what a reader gets is what was always computed."""

    def test_registry_computes_no_public_key_until_one_is_read(self, monkeypatch):
        from repro.crypto import keys
        from repro.crypto.hashing import digest

        domains = []
        monkeypatch.setattr(
            keys, "digest", lambda *parts: domains.append(parts[0]) or digest(*parts)
        )
        reg = KeyRegistry(6, master_seed=b"lazy")
        # Private keys are hashed over their shared encoded prefix, not
        # through digest(); no public key is derived at all.
        assert domains == []
        assert reg._by_public is None
        assert all("public_key" not in vars(reg.key_pair(r)) for r in range(6))
        pair = reg.key_pair(4)
        assert reg.public_key(4) == digest("public-key", pair.private_key)
        assert reg.public_key(4) is pair.public_key  # kept, not recomputed
        assert domains.count("public-key") == 1
        assert reg.resolve_public(pair.public_key) is pair  # index: first caller
        assert domains.count("public-key") == 6 and len(reg._by_public) == 6

    def test_answers_are_what_eager_derivation_gave(self):
        from repro.crypto.hashing import digest

        reg = KeyRegistry(5, master_seed=b"same")
        for r in range(5):
            private = digest("private-key", b"same", r)
            public = digest("public-key", private)
            pair = reg.key_pair(r)
            assert pair == KeyPair(r, private, public)
            assert hash(pair) == hash(KeyPair(r, private, public))
            assert reg.public_key(r) == public
            assert reg.resolve_public(public) is pair
        assert reg.public_keys([1, 3]) == {
            r: digest("public-key", reg.key_pair(r).private_key) for r in (1, 3)
        }

    def test_a_pair_survives_pickling_unread_or_read(self):
        import pickle

        reg = KeyRegistry(2, master_seed=b"pickle")
        unread = pickle.loads(pickle.dumps(reg.key_pair(0)))
        assert "public_key" not in vars(unread)
        assert unread == reg.key_pair(0)
        assert pickle.loads(pickle.dumps(reg.key_pair(0))) == unread


def _random_payloads(count, scheme, registry, seed=20):
    """``(signer, payload)`` pairs over everything that gets signed: scalars,
    nested tuples, messages, VRF outputs, and envelopes — ``sign()``-made,
    ``sign_with``-made and hand-built — nested inside payloads."""
    import random

    from repro.crypto.signatures import Signed
    from repro.crypto.vrf import VRF
    from repro.messages.base import ProposalStatement
    from repro.messages.probft import Prepare

    rng = random.Random(seed)
    vrf = VRF(registry)
    n = registry.n

    def scalar():
        return rng.choice(
            [rng.randrange(-5, 10**6), rng.random(), None, True,
             "s%d" % rng.randrange(99), rng.randbytes(rng.randrange(0, 40))]
        )

    def value(depth):
        kind = rng.randrange(8 if depth < 3 else 2)
        if kind < 2:
            return scalar()
        if kind == 2:
            return tuple(value(depth + 1) for _ in range(rng.randrange(4)))
        if kind == 3:
            seed = "%d||prepare" % rng.randrange(1, 9)
            return vrf.prove(rng.randrange(n), seed, rng.randrange(1, n + 1))
        signer = rng.randrange(n)
        inner = value(depth + 1)
        if kind == 4:
            return scheme.sign(signer, inner)
        if kind == 5:
            key = registry.key_pair(rng.randrange(n)).private_key  # maybe not signer's
            return scheme.sign_with(key, signer, inner)
        if kind == 6:
            return Signed(inner, signer, rng.randbytes(32))
        statement = scheme.sign(signer, ProposalStatement(rng.randrange(1, 5), inner, "d"))
        return Prepare(statement=statement, sample=vrf.prove(signer, "1||prepare", 3))

    return [(rng.randrange(n), value(0)) for _ in range(count)]


class TestTagOnFirstRead:
    """``sign()`` hands out an envelope whose tag its first reader computes:
    byte for byte the tag ``sign_with`` computes at once, counted once, and
    never computed for code that only moves the envelope around."""

    @pytest.fixture
    def registry(self):
        return KeyRegistry(7, master_seed=b"first-read")

    @pytest.fixture
    def scheme(self, registry):
        return SignatureScheme(registry)

    @staticmethod
    def _tags(scheme):
        return scheme.cache_stats()["tags_computed"]

    def test_same_bytes_as_the_explicit_key_path(self, scheme, registry):
        pairs = _random_payloads(240, scheme, registry)
        assert len({type(p).__name__ for _, p in pairs}) >= 8  # a real mix
        for signer, payload in pairs:
            key = registry.key_pair(signer).private_key
            honest = scheme.sign(signer, payload)
            explicit = scheme.sign_with(key, signer, payload)
            assert "signature" not in vars(honest)
            before = self._tags(scheme)
            assert honest.signature == explicit.signature
            assert self._tags(scheme) == before + 1  # the first read ...
            assert honest.signature is honest.signature
            assert self._tags(scheme) == before + 1  # ... and only the first
            assert honest == explicit and hash(honest) == hash(explicit)
            assert repr(honest) == repr(explicit)
            assert honest.canonical() == explicit.canonical()
            assert scheme.verify(honest) and scheme.verify(explicit)

    def test_equality_hash_and_encoding_are_readers_too(self, scheme, registry):
        from repro.crypto.hashing import stable_encode

        key = registry.key_pair(3).private_key
        explicit = scheme.sign_with(key, 3, ("p", 1))
        for read in (
            lambda e: e == explicit, hash, repr, stable_encode,
            lambda e: stable_encode(("wrapped", e)),
        ):
            envelope = scheme.sign(3, ("p", 1))
            before = self._tags(scheme)
            read(envelope)
            assert self._tags(scheme) == before + 1
            assert vars(envelope)["signature"] == explicit.signature

    def test_eager_tags_and_verification_are_not_counted(self, scheme, registry):
        key = registry.key_pair(1).private_key
        explicit = scheme.sign_with(key, 1, "x")
        assert "signature" in vars(explicit)
        assert scheme.verify(explicit) and self._tags(scheme) == 0
        # A table-free verify recomputes the expected tag itself, then reads
        # the envelope's: one on-demand tag per sign()-made envelope.
        honest = scheme.sign(1, "x")
        assert scheme.verify(honest) and scheme.verify(honest)
        assert self._tags(scheme) == 1

    def test_unknown_signer_still_raises_at_sign_time(self, scheme):
        with pytest.raises(UnknownReplicaError):
            scheme.sign(7, "msg")
        with pytest.raises(UnknownReplicaError):
            scheme.sign(-1, "msg")

    def test_hand_built_copy_is_verified_from_scratch(self, registry):
        from repro.config import ProtocolConfig
        from repro.crypto.context import CryptoContext
        from repro.crypto.signatures import Signed

        crypto = CryptoContext._over(registry).instance(ProtocolConfig(n=7))
        counts = crypto.verdicts.counts
        honest = crypto.signatures.sign(2, ("vote", b"A"))
        copy = Signed(("vote", b"A"), 2, honest.signature)
        assert copy == honest and copy is not honest
        assert "_tag_source" not in vars(copy)  # a plain envelope
        assert crypto.signatures.verify(copy)
        assert counts.computed["signature"] == 1  # not answered by honest's entry
        other = Signed(("vote", b"B"), 2, honest.signature)
        assert not crypto.signatures.verify(other)
        assert counts.computed["signature"] == 2 and counts.tags_computed == 1

    def test_copies_are_plain_envelopes_without_the_registry(self, scheme, registry):
        import copy
        import dataclasses
        import pickle

        inner = scheme.sign(4, ("inner", 1))
        honest = scheme.sign(5, ("outer", inner))
        copies = [
            pickle.loads(pickle.dumps(honest)),
            copy.copy(honest),
            copy.deepcopy(honest),
            dataclasses.replace(honest),
        ]
        assert "KeyRegistry" not in repr(pickle.dumps(honest))
        for made in copies:
            assert made == honest and made is not honest
            assert set(vars(made)) == {"payload", "signer", "signature"}
            assert scheme.verify(made)
        # The nested envelope was pickled and deep-copied the same way.
        for made in (copies[0], copies[2]):
            nested = made.payload[1]
            assert nested is not inner and "_tag_source" not in vars(nested)
            assert vars(nested)["signature"] == inner.signature
        assert self._tags(scheme) == 2  # honest's and inner's, once each
        tampered = dataclasses.replace(honest, payload=("outer", "else"))
        assert not scheme.verify(tampered)

    def test_an_envelope_holds_no_key_table_or_scheme(self, registry):
        from repro.config import ProtocolConfig
        from repro.crypto.context import CryptoContext
        from repro.crypto.verdicts import VerdictCounts

        crypto = CryptoContext._over(registry).instance(ProtocolConfig(n=7))
        envelope = crypto.signatures.sign(0, "m")
        held = vars(envelope)
        assert set(held) == {"payload", "signer", "_tag_source"}
        source = held["_tag_source"]
        assert source[0] is registry and source[1] is crypto.verdicts.counts
        assert [type(x) for x in source] == [KeyRegistry, VerdictCounts]

    def test_sending_and_delivering_reads_no_tag(self, scheme):
        from repro.net.network import Network, message_type_name
        from repro.net.simulator import Simulator
        from repro.sync.synchronizer import Wish

        sim = Simulator()
        net = Network(sim, 4)
        got = []
        for r in range(4):
            net.register(r, lambda src, message, r=r: got.append((r, message)))
        envelope = scheme.sign(0, Wish(view=2))
        assert message_type_name(envelope) == "Wish"
        net.multicast(0, [1, 2, 3], envelope)
        sim.run()
        assert [r for r, _ in got] == [1, 2, 3]
        assert all(message is envelope for _, message in got)
        assert net.stats.delivered_by_type["Wish"] == 3
        assert self._tags(scheme) == 0 and "signature" not in vars(envelope)
