"""Tests for repro.crypto.hashing."""

from dataclasses import replace

import pytest

from repro.crypto.hashing import digest, digest_hex, stable_encode
from repro.messages.base import ProposalStatement


class TestStableEncode:
    def test_primitives_distinct(self):
        # Note: tuples and lists intentionally encode identically, so only
        # one sequence representative appears here.
        values = [None, True, False, 0, 1, 1.0, b"1", "1", (), {}]
        encodings = [stable_encode(v) for v in values]
        assert len(set(encodings)) == len(encodings)

    def test_bool_not_confused_with_int(self):
        assert stable_encode(True) != stable_encode(1)
        assert stable_encode(False) != stable_encode(0)

    def test_str_bytes_distinct(self):
        assert stable_encode("abc") != stable_encode(b"abc")

    def test_dict_order_independent(self):
        assert stable_encode({"a": 1, "b": 2}) == stable_encode({"b": 2, "a": 1})

    def test_set_order_independent(self):
        assert stable_encode({1, 2, 3}) == stable_encode({3, 2, 1})

    def test_nested_structures(self):
        v1 = ("x", [1, 2, {"k": b"v"}], {"s"})
        v2 = ("x", [1, 2, {"k": b"v"}], {"s"})
        assert stable_encode(v1) == stable_encode(v2)

    def test_list_vs_tuple_same(self):
        # Lists and tuples encode identically (sequences).
        assert stable_encode([1, 2]) == stable_encode((1, 2))

    def test_length_prefix_prevents_concatenation_ambiguity(self):
        assert stable_encode(("ab", "c")) != stable_encode(("a", "bc"))

    def test_canonical_objects(self):
        s1 = ProposalStatement(view=1, value=b"x")
        s2 = ProposalStatement(view=1, value=b"x")
        assert stable_encode(s1) == stable_encode(s2)
        s3 = ProposalStatement(view=2, value=b"x")
        assert stable_encode(s1) != stable_encode(s3)

    def test_encoding_kept_on_the_object_not_in_its_value(self):
        s1 = ProposalStatement(view=1, value=b"x")
        encoded = stable_encode(s1)
        assert stable_encode(s1) is encoded  # second call reads the cache
        s2 = ProposalStatement(view=1, value=b"x")
        assert s1 == s2 and hash(s1) == hash(s2) and repr(s1) == repr(s2)
        # A changed copy starts without the original's cached bytes.
        s3 = replace(s1, view=2)
        assert stable_encode(s3) != encoded

    def test_unencodable_raises(self):
        with pytest.raises(TypeError):
            stable_encode(object())


class TestDigest:
    def test_deterministic(self):
        assert digest("a", 1, b"z") == digest("a", 1, b"z")

    def test_sensitive_to_order(self):
        assert digest("a", "b") != digest("b", "a")

    def test_part_boundaries(self):
        assert digest("ab", "c") != digest("a", "bc")

    def test_length(self):
        assert len(digest("x")) == 32

    def test_hex_form(self):
        assert digest_hex("x") == digest("x").hex()
