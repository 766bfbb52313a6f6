"""Tests for repro.crypto.vrf (paper §2.4)."""

import gc
import hashlib
import math
import random
import struct
import weakref
from array import array
from dataclasses import replace
from itertools import islice

import pytest

from repro.config import ProtocolConfig
from repro.crypto import vrf as vrf_module
from repro.crypto.hashing import digest, stable_encode
from repro.crypto.keys import KeyRegistry
from repro.crypto.verdicts import VerdictTable
from repro.crypto.vrf import (
    _ARRAY_MIN_WORDS,
    _BLOCK_CELLS,
    _DOMAIN,
    VRF,
    VRFOutput,
    _first_request,
    _sample_from_key,
    _sample_from_stream,
    _samples_from_grid,
    phase_seed,
)
from repro.errors import UnknownReplicaError, VRFError
from repro.types import id_typecode


@pytest.fixture
def vrf():
    return VRF(KeyRegistry(30))


class TestProve:
    def test_sample_size_and_distinctness(self, vrf):
        out = vrf.prove(3, "seed", 10)
        assert len(out.sample) == 10
        assert len(set(out.sample)) == 10
        assert all(0 <= r < 30 for r in out.sample)

    def test_deterministic(self, vrf):
        assert vrf.prove(3, "seed", 10) == vrf.prove(3, "seed", 10)

    def test_different_seeds_different_samples(self, vrf):
        # Collision resistance: distinct seeds give (a.s.) distinct samples.
        a = vrf.prove(3, phase_seed(1, "prepare"), 10)
        b = vrf.prove(3, phase_seed(1, "commit"), 10)
        assert a.sample != b.sample or a.proof != b.proof

    def test_different_replicas_different_samples(self, vrf):
        a = vrf.prove(3, "seed", 10)
        b = vrf.prove(4, "seed", 10)
        assert a.proof != b.proof

    def test_full_sample(self, vrf):
        out = vrf.prove(0, "s", 30)
        assert sorted(out.sample) == list(range(30))

    def test_invalid_sizes(self, vrf):
        with pytest.raises(VRFError):
            vrf.prove(0, "s", 0)
        with pytest.raises(VRFError):
            vrf.prove(0, "s", 31)


class TestVerify:
    def test_valid_output_verifies(self, vrf):
        out = vrf.prove(5, "seed", 8)
        assert vrf.verify(5, "seed", 8, out)

    def test_wrong_replica_rejected(self, vrf):
        out = vrf.prove(5, "seed", 8)
        assert not vrf.verify(6, "seed", 8, out)

    def test_wrong_seed_rejected(self, vrf):
        out = vrf.prove(5, "seed", 8)
        assert not vrf.verify(5, "other", 8, out)

    def test_wrong_size_rejected(self, vrf):
        out = vrf.prove(5, "seed", 8)
        assert not vrf.verify(5, "seed", 9, out)

    def test_tampered_sample_rejected(self, vrf):
        out = vrf.prove(5, "seed", 8)
        replaced = next(r for r in range(30) if r not in out.sample)
        tampered = replace(out, sample=(replaced,) + tuple(out.sample[1:]))
        assert not vrf.verify(5, "seed", 8, tampered)

    def test_forged_proof_rejected(self, vrf):
        out = vrf.prove(5, "seed", 8)
        forged = replace(out, proof=b"\x00" * 32)
        assert not vrf.verify(5, "seed", 8, forged)

    def test_uniqueness(self, vrf):
        """A prover cannot produce two different valid outputs for one input."""
        out = vrf.prove(5, "seed", 8)
        # Any alternative sample fails verification (proof is a function of
        # (sk, seed, s) and the sample is a function of the proof).
        other = vrf.prove(5, "other-seed", 8)
        hybrid = VRFOutput(sample=other.sample, proof=out.proof)
        assert not vrf.verify(5, "seed", 8, hybrid)

    def test_require_valid(self, vrf):
        out = vrf.prove(5, "seed", 8)
        vrf.require_valid(5, "seed", 8, out)
        with pytest.raises(VRFError):
            vrf.require_valid(6, "seed", 8, out)

    def test_unknown_replica_rejected(self, vrf):
        out = vrf.prove(5, "seed", 8)
        assert not vrf.verify(99, "seed", 8, out)


class TestUniformity:
    def test_inclusion_frequency_roughly_uniform(self, vrf):
        """Pseudorandomness sanity: each replica appears in ~s/n of samples."""
        n, s, draws = 30, 10, 600
        counts = [0] * n
        for k in range(draws):
            out = vrf.prove(k % n, f"seed-{k}", s)
            for r in out.sample:
                counts[r] += 1
        expected = draws * s / n
        for c in counts:
            assert 0.6 * expected < c < 1.4 * expected

    def test_membership_prob_matches_s_over_n(self, vrf):
        n, s, draws = 30, 10, 900
        hits = sum(
            1 for k in range(draws) if 7 in vrf.prove(k % n, f"z{k}", s).sample
        )
        assert abs(hits / draws - s / n) < 0.06


class TestPhaseSeed:
    def test_format(self):
        assert phase_seed(3, "prepare") == "3||prepare"
        assert phase_seed(3, "commit") == "3||commit"

    def test_domain_scoping(self):
        assert phase_seed(3, "prepare", "slot-1") == "slot-1#3||prepare"
        assert phase_seed(3, "prepare", "slot-1") != phase_seed(3, "prepare", "slot-2")

    def test_distinct_across_views_and_phases(self):
        seeds = {
            phase_seed(v, t)
            for v in range(1, 10)
            for t in ("prepare", "commit")
        }
        assert len(seeds) == 18


def _key(tag) -> bytes:
    return hashlib.sha256(str(tag).encode()).digest()


def _stream(words) -> bytes:
    return b"".join(word.to_bytes(8, "big") for word in words)


def _sample_from_words(words, n, s):
    """The stream → sample step on hand-built words, as a tuple."""
    return tuple(_sample_from_stream(_stream(words), n, s))


def _oracle_from_stream(stream: bytes, n: int, s: int):
    """The derivation as it was before the numpy expansion, word by word in
    Python integers: the oracle the array path must equal (as the id array
    of its values)."""
    words = struct.unpack(">%dQ" % (len(stream) // 8), stream)
    limit = 2**64 - 2**64 % n
    distinct = dict.fromkeys([w % n for w in words if w < limit])
    return array(id_typecode(n), islice(distinct, s))


def _oracle_from_key(key: bytes, n: int, s: int, word_count=None):
    if word_count is None:
        expected = n * (math.log(n / (n - s)) if s < n else math.log(n) + 1.0)
        word_count = int(1.25 * expected) + 8
    while True:
        stream = hashlib.shake_256(key).digest(8 * word_count)
        sample = _oracle_from_stream(stream, n, s)
        if len(sample) == s:
            return sample
        word_count *= 2


class TestSampleFromWords:
    """The pure word → sample step, on hand-built words."""

    LIMIT_10 = (2**64 // 10) * 10  # words at or above this are rejected

    def test_reduces_mod_n_in_order(self):
        assert _sample_from_words([13, 27, 41, 5], 10, 3) == (3, 7, 1)

    def test_word_at_or_above_limit_is_skipped(self):
        words = [self.LIMIT_10 + 4, self.LIMIT_10, 2**64 - 1, self.LIMIT_10 - 1, 2]
        # The three rejected words would have named 4, 0 and 5.
        assert _sample_from_words(words, 10, 2) == (9, 2)

    def test_duplicates_skipped_first_occurrence_order_kept(self):
        words = [7, 3, 17, 3, 9, 27, 13, 1]
        assert _sample_from_words(words, 10, 4) == (7, 3, 9, 1)

    def test_short_result_when_words_run_out(self):
        assert _sample_from_words([4, 14, 24], 10, 2) == (4,)
        assert _sample_from_words([], 10, 2) == ()

    def test_n3_rejects_only_the_all_ones_word(self):
        # ⌊2⁶⁴/3⌋·3 = 2⁶⁴ − 1: exactly one word value is above the limit.
        top = 2**64 - 1
        # top − 1 names 2, 4 names 1; the rejected word would have named 0.
        assert _sample_from_words([top, top - 1, top, 4], 3, 3) == (2, 1)
        assert _sample_from_words([top] * 4, 3, 1) == ()

    def test_power_of_two_n_rejects_nothing(self):
        assert _sample_from_words([2**64 - 1, 2**64 - 2, 7], 8, 3) == (7, 6)

    @pytest.mark.parametrize("n, code", [(1000, "H"), (2**16, "H"), (2**16 + 1, "I")])
    def test_sample_is_an_unsigned_id_array(self, n, code):
        for count in (3, _ARRAY_MIN_WORDS):  # the dict route and the array pass
            words = [2**63 + 5, 9, n - 1] + [7] * (count - 3)
            sample = _sample_from_stream(_stream(words), n, 3)
            assert type(sample) is array and sample.typecode == code
            assert sample.tolist() == [(2**63 + 5) % n, 9, n - 1]

    # Up to 2¹⁶ every rejected word starts with six 0xff bytes, and the
    # sampler skips its rejection scan on streams without them; 2¹⁷ + 1 is a
    # size whose limit word (2⁶⁴ − 122,881) starts with only five.
    @pytest.mark.parametrize(
        "n",
        [3, 9, 10, 40, 300, 1000, 5000, 2**16 - 1, 2**16, 2**16 + 1, 100003, 2**17 + 1],
    )
    def test_crafted_streams_with_words_at_and_above_the_limit(self, n):
        """Random words salted with values on both sides of ⌊2⁶⁴/n⌋·n, in
        streams of random length and of lengths just below, at and just
        above the array pass's break-even."""
        rng = random.Random(n)
        limit = 2**64 - 2**64 % n
        top = 2**64 - 1
        edge = [limit - 1, min(limit, top), min(limit + 1, top), top, 0, n - 1]
        for _ in range(40):
            words = [rng.getrandbits(64) for _ in range(rng.randrange(1, 60))]
            for _ in range(rng.randrange(1, 6)):
                words.insert(rng.randrange(len(words) + 1), rng.choice(edge))
            s = rng.randrange(1, n + 1)
            stream = _stream(words)
            assert _sample_from_stream(stream, n, s) == _oracle_from_stream(
                stream, n, s
            )
        for length in [_ARRAY_MIN_WORDS + d for d in (-1, 0, 1) for _ in range(12)]:
            # Words below 2n name ids again and again: the dedupe has work.
            words = [rng.getrandbits(64) % (2 * n) for _ in range(length)]
            for _ in range(rng.randrange(6)):  # some streams have no edge word
                words[rng.randrange(length)] = rng.choice(edge)
            stream = _stream(words)
            for s in (1, rng.randrange(1, min(n, length) + 1), n):
                assert _sample_from_stream(stream, n, s) == _oracle_from_stream(
                    stream, n, s
                ), (length, s)


class TestExpansionAgainstPurePythonOracle:
    """numpy expansion == the word-by-word derivation, key by key."""

    SIZES = (1, 2, 3, 9, 40, 300, 1000, 5000)

    def test_random_keys_sizes_and_samples(self):
        rng = random.Random(18)
        checked = 0
        for n in self.SIZES:
            # s == n (the full permutation) is always among the shapes.
            sizes = {1, n, *(rng.randrange(1, n + 1) for _ in range(6))}
            for s in sorted(sizes):
                for _ in range(16 if n < 5000 else 6):
                    key = _key(("oracle", n, s, rng.random()))
                    assert _sample_from_key(key, n, s) == _oracle_from_key(
                        key, n, s
                    ), (n, s)
                    checked += 1
        assert checked >= 500

    @pytest.mark.parametrize("n", SIZES)
    def test_forced_short_first_request_takes_the_doubling_path(self, n):
        rng = random.Random(n)
        for s in {1, n, rng.randrange(1, n + 1)}:
            key = _key(("short", n, s))
            expected = _oracle_from_key(key, n, s)
            for count in (1, 2, 5):
                assert _sample_from_key(key, n, s, word_count=count) == expected
                assert _oracle_from_key(key, n, s, word_count=count) == expected


class TestSampleFromKey:
    @staticmethod
    def _reference(key, n, s):
        # Textbook form: read the XOF one word at a time, reject, reduce,
        # skip what was already drawn.
        stream = hashlib.shake_256(key).digest(8 * 64 * (n + 8))
        limit = (2**64 // n) * n
        out = []
        for (word,) in struct.iter_unpack(">Q", stream):
            if word < limit and word % n not in out:
                out.append(word % n)
                if len(out) == s:
                    return array(id_typecode(n), out)
        raise AssertionError("reference stream too short")

    def test_matches_reference_across_shapes(self):
        for tag in ("k0", "k1", "k2"):
            for n, s in [(1, 1), (7, 7), (30, 10), (64, 1), (500, 45), (500, 77)]:
                assert _sample_from_key(_key(tag), n, s) == self._reference(
                    _key(tag), n, s
                ), (tag, n, s)

    def test_golden_pinned_samples(self):
        # Frozen repro-vrf-v2 outputs: any change to the expansion trips
        # these immediately.
        golden = {
            ("golden-a", 30, 10): (28, 21, 2, 0, 29, 24, 26, 9, 23, 7),
            ("golden-c", 7, 7): (2, 0, 6, 3, 5, 4, 1),
            ("golden-b", 500, 45): (
                51, 490, 60, 95, 126, 294, 354, 392, 156, 92, 476, 122, 94,
                406, 161, 34, 379, 282, 67, 298, 304, 306, 336, 279, 285,
                413, 7, 143, 55, 355, 88, 28, 409, 335, 70, 57, 3, 246, 199,
                402, 233, 25, 419, 317, 215,
            ),
        }
        for (tag, n, s), expected in golden.items():
            assert tuple(_sample_from_key(_key(tag), n, s)) == expected

    @pytest.mark.parametrize("n", [7, 500])
    def test_full_sample_is_a_permutation_whatever_the_first_request(self, n):
        for tag in range(5):
            sample = _sample_from_key(_key(tag), n, n)
            assert sorted(sample) == list(range(n))
            # Forcing a first request far too small takes the doubling path
            # several times; the XOF prefix is stable, so nothing changes.
            assert _sample_from_key(_key(tag), n, n, word_count=1) == sample

    def test_partial_sample_independent_of_first_request(self):
        for count in (1, 3, 45, 4096):
            assert _sample_from_key(_key("p"), 500, 45, word_count=count) == (
                _sample_from_key(_key("p"), 500, 45)
            )

    def test_single_replica(self):
        assert _sample_from_key(_key("one"), 1, 1).tolist() == [0]

    def test_distinct_ids_at_scale(self):
        sample = _sample_from_key(_key("distinct"), 2000, 90)
        assert len(set(sample)) == 90
        assert all(0 <= r < 2000 for r in sample)


class TestSampleDistribution:
    """The contract of the derivation: a uniform draw without replacement."""

    KEYS = 3000
    SIGMAS = 5.0

    @staticmethod
    def _within(count, trials, p, sigmas):
        sd = (trials * p * (1.0 - p)) ** 0.5
        return abs(count - trials * p) <= sigmas * sd

    @pytest.mark.parametrize("n,s", [(40, 23), (300, 60), (1000, 108)])
    def test_inclusion_and_position_uniformity(self, n, s):
        included = [0] * n
        buckets = 10  # n is a multiple of 10 at every shape above
        first = [0] * buckets
        last = [0] * buckets
        for k in range(self.KEYS):
            sample = _sample_from_key(_key(f"dist-{n}-{k}"), n, s)
            for r in sample:
                included[r] += 1
            first[sample[0] * buckets // n] += 1
            last[sample[-1] * buckets // n] += 1
        # Each id is in a sample with probability s/n (o·q/n in the paper).
        for count in included:
            assert self._within(count, self.KEYS, s / n, self.SIGMAS)
        # The first and the last draw are each uniform over the ids.
        for count in first + last:
            assert self._within(count, self.KEYS, 1.0 / buckets, self.SIGMAS)


class TestVRFOutputMembers:
    def test_members_cached_per_object(self, vrf):
        out = vrf.prove(3, "seed", 10)
        members = out.members()
        assert {i for i, bit in enumerate(members) if bit} == set(out.sample)
        assert out.members() is members  # built once, reused

    def test_contains_and_len(self, vrf):
        out = vrf.prove(3, "seed", 10)
        assert out.sample[0] in out
        absent = next(r for r in range(30) if r not in out.sample)
        assert absent not in out
        assert len(out) == 10


class TestIdArrays:
    """A sample is an unsigned id array: 2 bytes an id up to 2¹⁶ replicas,
    4 above, no ``int`` object per id; equality is by values and proof, so a
    decoded sample of plain ints still equals and verifies."""

    @pytest.mark.parametrize("n", [9, 300, 1000, 2**16])
    def test_an_honest_sample_stores_2_bytes_an_id(self, n):
        vrf = VRF(KeyRegistry(n), VerdictTable())
        s = min(n, 90)
        key = vrf._registry.key_pair(n - 1).private_key
        outputs = [vrf.prove(r, phase_seed(1, "prepare"), s) for r in (0, 1, n - 1)]
        outputs.append(vrf.prove_with(key, n - 1, "with", s))
        outputs.append(VRFOutput(_sample_from_key(_key("k"), n, s), _key("k")))
        for output in outputs:
            sample = output.sample
            assert type(sample) is array and sample.typecode == "H"
            assert memoryview(sample).nbytes == 2 * s

    def test_a_prove_past_2_16_replicas_is_a_4_byte_array_equal_to_the_oracle(self):
        n = 70_000
        registry = KeyRegistry(n)
        vrf = VRF(registry, VerdictTable())
        s = ProtocolConfig(n).sample_size
        for replica in (0, 66_000, n - 1):
            output = vrf.prove(replica, "wide", s)
            key = _sampler_key(registry, replica, "wide", s)
            assert type(output.sample) is array and output.sample.typecode == "I"
            assert output.sample.tolist() == list(_oracle_from_key(key, n, s))
            assert max(output.sample) >= 2**16
            assert vrf.verify(replica, "wide", s, output)

    def test_verify_accepts_an_equal_sample_of_plain_ints(self):
        vrf = VRF(KeyRegistry(1000))
        tvrf = VRF(KeyRegistry(1000), VerdictTable())
        out = vrf.prove(7, "seed", 90)
        # Equality is the wire contract: a decoded sample is a tuple of ints.
        rebuilt = VRFOutput(
            sample=tuple(int(str(r)) for r in out.sample), proof=out.proof
        )
        assert rebuilt == out and out == rebuilt and hash(rebuilt) == hash(out)
        assert vrf.verify(7, "seed", 90, rebuilt)
        assert tvrf.verify(7, "seed", 90, rebuilt)
        wide = VRFOutput(sample=array("I", out.sample), proof=out.proof)
        assert wide == out and vrf.verify(7, "seed", 90, wide)

    @pytest.mark.parametrize(
        "forge",
        [
            lambda ids: array("d", ids),  # equal values, but no ids
            lambda ids: array("h", [-1] + ids[1:]),
            lambda ids: array("H", ids[:-1]),
            lambda ids: tuple(ids[:-1]) + (1000,),
            lambda ids: tuple(ids[:-1]) + (-1,),
            lambda ids: tuple(ids[:-1]) + (float(ids[-1]),),
            lambda ids: list(ids),
        ],
        ids=["floats", "signed-negative", "short", "n", "negative", "a-float", "list"],
    )
    def test_verify_refuses_what_is_no_id_array(self, forge):
        vrf = VRF(KeyRegistry(1000))
        out = vrf.prove(7, "seed", 90)
        forged = VRFOutput(sample=forge(out.sample.tolist()), proof=out.proof)
        assert not vrf.verify(7, "seed", 90, forged)

    def test_outputs_differ_by_proof_or_values(self):
        out = VRFOutput(array("H", [1, 2, 3]), b"p")
        assert out != VRFOutput(array("H", [1, 2, 4]), b"p")
        assert out != VRFOutput((1, 2), b"p")
        assert out != VRFOutput(array("H", [1, 2, 3]), b"q")
        assert out != VRFOutput(None, b"p") and out != (array("H", [1, 2, 3]), b"p")
        equal = {out, VRFOutput((1, 2, 3), b"p"), VRFOutput(array("I", [1, 2, 3]), b"p")}
        assert len(equal) == 1


class TestVRFOutputEncoding:
    def test_equal_outputs_encode_identically(self, vrf):
        out = vrf.prove(3, "seed", 10)
        clone = VRFOutput(sample=tuple(out.sample), proof=bytes(out.proof))
        assert stable_encode(out) == stable_encode(clone)

    def test_sample_packed_as_one_bytes_value(self, vrf):
        out = vrf.prove(3, "seed", 10)
        tag, packed, proof = out.canonical()
        assert (tag, proof) == ("vrf-output", out.proof)
        assert struct.unpack(">10I", packed) == tuple(out.sample)
        assert packed == struct.pack(">10I", *out.sample)

    def test_members_order_and_length_change_the_encoding(self):
        proof = b"\x01" * 32
        encodings = {
            stable_encode(VRFOutput(sample=sample, proof=proof))
            for sample in [(1, 2, 3), (3, 2, 1), (1, 2), (1, 2, 4), (258,), (1, 2)]
        }
        assert len(encodings) == 5


class TestTabledVRF:
    """A VRF over a verdict table: verified once per object, proven purely."""

    @pytest.fixture
    def tvrf(self):
        return VRF(KeyRegistry(30), VerdictTable())

    @staticmethod
    def _counts(tvrf):
        return tvrf._verdicts.counts

    def test_bit_identical_to_fresh_vrf(self, tvrf, vrf):
        for replica in (0, 5, 29):
            for s in (1, 10, 30):
                assert tvrf.prove(replica, "z", s) == vrf.prove(replica, "z", s)

    def test_prove_is_pure_and_never_memoized(self, tvrf):
        a = tvrf.prove(3, "seed", 10)
        b = tvrf.prove(3, "seed", 10)
        assert a == b and a is not b
        # The first expanded its block (all 30 provers), the repeat its row
        # again.
        assert tvrf.cache_stats()["misses"] == 30 + 1

    def test_verdict_is_pinned_to_the_object(self, tvrf):
        key = tvrf._registry.key_pair(3).private_key
        out = tvrf.prove_with(key, 3, "seed", 10)
        assert tvrf.verify(3, "seed", 10, out)
        assert tvrf.verify(3, "seed", 10, out)
        counts = self._counts(tvrf)
        assert counts.computed["vrf"] == 1 and counts.reused["vrf"] == 1
        # An equal-but-distinct object misses (identity key, not equality).
        clone = VRFOutput(sample=out.sample, proof=out.proof)
        assert tvrf.verify(3, "seed", 10, clone)
        assert counts.computed["vrf"] == 2

    def test_verdict_is_for_one_replica_seed_and_size(self, tvrf):
        """A prepare sample replayed in a commit is judged again."""
        out = tvrf.prove(3, "1||prepare", 10)
        assert tvrf.verify(3, "1||prepare", 10, out)
        assert not tvrf.verify(3, "1||commit", 10, out)
        assert not tvrf.verify(4, "1||prepare", 10, out)
        assert tvrf.verify(3, "1||prepare", 10, out)
        assert self._counts(tvrf).computed["vrf"] == 2

    def test_forgery_rejected_consistently(self, tvrf):
        out = tvrf.prove(3, "seed", 10)
        forged = replace(out, proof=b"\x00" * 32)
        assert not tvrf.verify(3, "seed", 10, forged)
        assert not tvrf.verify(3, "seed", 10, forged)  # the recorded False
        assert self._counts(tvrf).reused["vrf"] == 1

    def test_copied_output_takes_the_full_path(self, tvrf):
        """Only the prover's own object is valid by birth: an equal copy
        recomputes the sampler key and expands the sample again."""
        out = tvrf.prove(3, "seed", 10)
        counts = self._counts(tvrf)
        assert counts.born["vrf"] == 1
        expanded = tvrf.cache_stats()["misses"]
        assert tvrf.verify(3, "seed", 10, out)
        assert counts.computed["vrf"] == 0
        assert tvrf.cache_stats()["misses"] == expanded
        clone = VRFOutput(sample=tuple(out.sample), proof=bytes(out.proof))
        assert clone == out and clone is not out
        assert tvrf.verify(3, "seed", 10, clone)
        assert counts.computed["vrf"] == 1
        assert tvrf.cache_stats()["misses"] == expanded + 1

    def test_corrupted_key_output_takes_the_full_path(self, tvrf):
        """The adversary proving with a corrupted replica's real key gets a
        valid output — verified by replay, never by birth."""
        key = tvrf._registry.key_pair(3).private_key
        out = tvrf.prove_with(key, 3, "seed", 10)
        counts = self._counts(tvrf)
        expanded = tvrf.cache_stats()["misses"]
        assert tvrf.verify(3, "seed", 10, out)
        assert counts.born["vrf"] == 0 and counts.computed["vrf"] == 1
        assert tvrf.cache_stats()["misses"] == expanded + 1
        # Under any other key the recomputed sampler key already differs.
        forged = tvrf.prove_with(_key("corrupted"), 3, "seed", 10)
        assert not tvrf.verify(3, "seed", 10, forged)
        assert counts.born["vrf"] == 0

    def test_tampered_member_rejected_after_replay(self, tvrf):
        out = tvrf.prove(3, "seed", 10)
        absent = next(r for r in range(30) if r not in out.sample)
        tampered = replace(
            out, sample=tuple(out.sample[:4]) + (absent,) + tuple(out.sample[5:])
        )
        expanded = tvrf.cache_stats()["misses"]
        assert not tvrf.verify(3, "seed", 10, tampered)
        assert tvrf.cache_stats()["misses"] == expanded + 1

    def test_prove_with_never_registers(self, tvrf):
        key = hashlib.sha256(b"corrupted").digest()
        a = tvrf.prove_with(key, 3, "seed", 10)
        b = tvrf.prove_with(key, 3, "seed", 10)
        assert a == b and a is not b
        assert len(tvrf._verdicts) == 0 and not self._counts(tvrf).born


def _sampler_key(registry, replica, seed, s):
    return digest(_DOMAIN, registry._private_key_of(replica), seed, s)


class TestBlocksAgainstPurePythonOracle:
    """A prove expands its whole block of provers in one pass, at every n;
    every output is still the word-by-word derivation of its own sampler
    key, whoever asks first and in whatever order."""

    @staticmethod
    def _check(vrf, replica, seed, s):
        registry = vrf._registry
        output = vrf.prove(replica, seed, s)
        key = _sampler_key(registry, replica, seed, s)
        assert output.proof == key
        assert output.sample == _oracle_from_key(key, registry.n, s), (replica, s)

    @pytest.mark.parametrize("n", [9, 40, 110, 129, 300, 1000, 5000])
    def test_first_and_last_block_equal_the_oracle(self, n):
        rng = random.Random(n)
        registry = KeyRegistry(n, master_seed=b"blocks-%d" % n)
        block = max(1, _BLOCK_CELLS // n)
        last = n - 1 - (n - 1) % block  # the last block's first id
        for s in sorted({1, rng.randrange(2, n), n}):
            vrf = VRF(registry, VerdictTable())
            seed = phase_seed(s, "prepare")
            provers = sorted({*range(min(block, n)), *range(last, n)})
            for replica in provers:
                self._check(vrf, replica, seed, s)
            assert vrf.cache_stats()["misses"] == len(provers)  # each once
            assert vrf._pending  # in blocks, below the array break-even too

    @pytest.mark.parametrize("n, size", [(300, 300 - 5 * 54), (1000, 8)])
    def test_a_last_block_is_cut_at_n(self, n, size):
        vrf = VRF(KeyRegistry(n), VerdictTable())
        s = ProtocolConfig(n).sample_size
        self._check(vrf, n - 1, "cut", s)
        assert vrf.cache_stats()["misses"] == size
        for replica in range(n - size, n - 1):
            self._check(vrf, replica, "cut", s)
        assert vrf.cache_stats()["misses"] == size

    def test_a_block_of_one_is_a_prove_alone(self):
        """Past ``_BLOCK_CELLS / 2`` provers a block would hold one: each
        prove expands its own key, as below the break-even."""
        n, s = _BLOCK_CELLS // 2 + 1, 100
        assert _first_request(n, s) >= _ARRAY_MIN_WORDS
        vrf = VRF(KeyRegistry(n), VerdictTable())
        for replica in (0, n - 1):
            self._check(vrf, replica, "alone", s)
        assert vrf._shapes[s][0] == 0 and not vrf._pending
        assert vrf.cache_stats()["misses"] == 2

    def test_provers_in_any_order(self):
        n = 300
        vrf = VRF(KeyRegistry(n), VerdictTable())
        s = ProtocolConfig(n).sample_size
        order = list(range(n))
        random.Random(7).shuffle(order)
        for replica in [n - 1] + [r for r in order if r != n - 1]:
            self._check(vrf, replica, "any-order", s)
        assert vrf.cache_stats()["misses"] == vrf.cache_stats()["born_valid"] == n
        assert not any(vrf._pending.values())  # every output handed out

    def test_a_repeat_prove_expands_its_row_again(self):
        n = 300
        vrf = VRF(KeyRegistry(n), VerdictTable())
        s = ProtocolConfig(n).sample_size
        block = _BLOCK_CELLS // n
        a = vrf.prove(3, "again", s)
        b = vrf.prove(3, "again", s)  # the block's others still wait
        assert a == b and a is not b
        assert vrf.cache_stats()["misses"] == block + 1
        for replica in range(block):
            vrf.prove(replica, "again", s)  # 3 once more, the rest first
        c = vrf.prove(3, "again", s)  # every output of the block handed out
        assert c == a and vrf.cache_stats()["misses"] == block + 3

    @pytest.mark.parametrize("replica", [-1, 300, 303, 10**6, "x", None])
    def test_an_id_outside_the_registry_raises(self, replica):
        vrf = VRF(KeyRegistry(300), VerdictTable())
        s = ProtocolConfig(300).sample_size
        vrf.prove(299, "outside", s)  # the last block waits in the store
        with pytest.raises(UnknownReplicaError):
            vrf.prove(replica, "outside", s)

    def test_short_first_requests_take_the_doubling(self, monkeypatch):
        """First requests so small that only some rows of a block draw ``s``
        ids: those rows are the pass's, the others are doubled alone."""
        n, s = 300, 60
        registry = KeyRegistry(n)
        keys = [_sampler_key(registry, r, "short", s) for r in range(54)]
        expected = [_oracle_from_key(key, n, s) for key in keys]
        monkeypatch.setattr(vrf_module, "_ARRAY_MIN_WORDS", 1)
        mixed = 0
        for count in [1, *range(s, 2 * s, 3)]:
            monkeypatch.setattr(vrf_module, "_first_request", lambda n, s: count)
            stream = b"".join(hashlib.shake_256(k).digest(8 * count) for k in keys)
            short = sum(len(row) < s for row in _samples_from_grid(stream, 54, n, s))
            mixed += 0 < short < len(keys)
            vrf = VRF(registry, VerdictTable())
            proven = [vrf.prove(r, "short", s).sample for r in range(54)]
            assert proven == expected, count
            assert vrf.cache_stats()["misses"] == 54
        assert mixed  # some first request split the block

    @pytest.mark.parametrize("n", [110, 300, 1000, 5000, 2**16 + 1])
    def test_rejected_words_inside_one_row(self, n):
        """Hand-built rows, one salted with words at and above ⌊2⁶⁴/n⌋·n and
        one with fewer than ``s`` distinct ids (kept short), between random
        rows."""
        rng = random.Random(n)
        limit = 2**64 - 2**64 % n
        top = 2**64 - 1
        count, rows, s = 80, 5, 20
        words = [[rng.getrandbits(64) for _ in range(count)] for _ in range(rows)]
        for column in rng.sample(range(count), 12):
            words[1][column] = rng.choice([limit, min(limit + 1, top), top])
        words[3] = [rng.randrange(s - 1) for _ in range(count)]  # short
        streams = [_stream(row) for row in words]
        grid = _samples_from_grid(b"".join(streams), rows, n, s)
        assert grid == [_oracle_from_stream(stream, n, s) for stream in streams]
        assert [len(sample) == s for sample in grid] == [True] * 3 + [False, True]

    def test_prove_with_and_verify_are_unchanged(self):
        n = 1000
        vrf = VRF(KeyRegistry(n), VerdictTable())
        s = ProtocolConfig(n).sample_size
        proven = vrf.prove(5, "with", s)
        key = vrf._registry.key_pair(5).private_key
        explicit = vrf.prove_with(key, 5, "with", s)
        assert explicit == proven and explicit is not proven
        block = _BLOCK_CELLS // n
        assert vrf.cache_stats()["misses"] == block + 1  # prove_with: alone
        assert vrf.verify(5, "with", s, explicit)  # replayed alone
        assert vrf.cache_stats()["misses"] == block + 2
        assert not vrf.verify(6, "with", s, explicit)
        assert vrf._verdicts.counts.born["vrf"] == 1  # prove's alone

    def test_registry_keys_are_the_digest_of_each_id(self):
        for master_seed in (b"repro-probft", b"", b"\x1f" * 3, digest("x", 1)):
            registry = KeyRegistry(50, master_seed)
            for r in range(50):
                key = digest("private-key", master_seed, r)
                assert registry._private_key_of(r) == key
                assert registry.key_pair(r).private_key == key


class TestBlocksDieWithTheirInstance:
    """A block holds outputs that no prove asked for yet; its store lives on
    the instance's VRF and goes with it."""

    def test_a_finished_trial_drops_its_vrf(self):
        from repro.harness.registry import MatrixCell, cell_deployment_spec
        from repro.harness.trial import TrialContext

        cell = MatrixCell("probft", "silent-f", "constant", n=129, f=42)
        gc.collect()
        gc.disable()
        try:
            context = TrialContext(cell_deployment_spec(cell, 1, 600.0))
            assert context.execute().agreement_ok
            vrf = context.deployment.crypto.vrf
            assert any(vrf._pending.values())  # silent seats never proved
            ref = weakref.ref(vrf)
            del context, vrf
            assert ref() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_retired_slot_drops_its_vrf(self, monkeypatch):
        """An n=9 slot proves in blocks; its store goes when the slot
        retires, and the run is the one of a prove at a time."""
        from repro.smr.app import CounterApp
        from repro.smr.service import SMRDeployment

        def served():
            deployment = SMRDeployment(
                ProtocolConfig(n=9, f=2), CounterApp, num_slots=4, seed=2
            )
            deployment.start()
            vrf = weakref.ref(deployment.stack.stacks[1].crypto.vrf)
            deployment.sim.run(until=3.0)  # slot 1's votes are proven
            blocks = dict(vrf()._pending)
            deployment.run(max_time=5_000.0)
            assert deployment.all_applied()
            return deployment, vrf, blocks

        # A block of one prover: every prove expands its own key alone.
        with monkeypatch.context() as patch:
            patch.setattr(vrf_module, "_BLOCK_CELLS", 9)
            alone, _, blocks = served()
        assert not blocks
        gc.collect()
        gc.disable()
        try:
            deployment, vrf, blocks = served()
            assert blocks and vrf() is None and not deployment.stack.stacks
            assert deployment.applied == alone.applied
            assert deployment.sim.events_processed == alone.sim.events_processed
            assert gc.collect() == 0
        finally:
            gc.enable()
