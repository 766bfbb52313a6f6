"""Canonical serialization and hashing helpers.

All signatures and VRF outputs in the simulation are computed over a
*canonical encoding* of Python values, so two structurally equal messages
always hash identically regardless of construction order.

Objects exposing ``canonical()`` — every such type in the codebase is a
frozen dataclass (Signed, VRFOutput, the message classes, certificates) —
carry their encoded bytes on themselves once encoded: whoever encodes at all
(the table-free oracle verifying per recipient, byte accounting) encodes the
*same* object many times (a broadcast vote's shared leader statement once
per tag over a message embedding it), and a cache that lives in the
object's ``__dict__`` dies with the object, so nothing encoded in one trial
is held after it.  Objects that expose ``canonical()``
MUST be immutable for this cache (and for signing in general) to be sound.
"""

from __future__ import annotations

import hashlib
from typing import Any

_SEPARATOR = b"\x1f"


def stable_encode(value: Any) -> bytes:
    """Encode ``value`` into a canonical byte string.

    Supports the types that appear in protocol messages: ``bytes``, ``str``,
    ``int``, ``float``, ``bool``, ``None``, and (possibly nested) tuples,
    lists, dicts (sorted by encoded key), sets/frozensets (sorted), and enums
    or dataclass-like objects exposing ``canonical()``.
    """
    # Exact-type dispatch for the shapes that dominate message encoding
    # (ints, strings, bytes, tuples); the isinstance chain below remains
    # the semantic reference and handles every subclass the same way it
    # always did (``bool`` is not an exact match for ``int``, so the
    # bool-before-int ordering is preserved).
    t = type(value)
    if t is int:
        return b"I" + str(value).encode()
    if t is str:
        raw = value.encode("utf-8")
        return b"S" + len(raw).to_bytes(8, "big") + raw
    if t is bytes:
        return b"Y" + len(value).to_bytes(8, "big") + value
    if t is tuple:
        parts = [stable_encode(v) for v in value]
        return b"L" + len(parts).to_bytes(8, "big") + _SEPARATOR.join(parts)
    if value is None:
        return b"N"
    if isinstance(value, bool):  # must precede int check
        return b"B1" if value else b"B0"
    if isinstance(value, int):
        return b"I" + str(value).encode()
    if isinstance(value, float):
        return b"F" + repr(value).encode()
    if isinstance(value, bytes):
        return b"Y" + len(value).to_bytes(8, "big") + value
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"S" + len(raw).to_bytes(8, "big") + raw
    if isinstance(value, (tuple, list)):
        parts = [stable_encode(v) for v in value]
        return b"L" + len(parts).to_bytes(8, "big") + _SEPARATOR.join(parts)
    if isinstance(value, (set, frozenset)):
        parts = sorted(stable_encode(v) for v in value)
        return b"T" + len(parts).to_bytes(8, "big") + _SEPARATOR.join(parts)
    if isinstance(value, dict):
        items = sorted((stable_encode(k), stable_encode(v)) for k, v in value.items())
        parts = [k + _SEPARATOR + v for k, v in items]
        return b"D" + len(parts).to_bytes(8, "big") + _SEPARATOR.join(parts)
    canonical = getattr(value, "canonical", None)
    if callable(canonical):
        attrs = value.__dict__
        encoded = attrs.get("_encoded")
        if encoded is None:
            encoded = attrs["_encoded"] = b"C" + stable_encode(canonical())
        return encoded
    if hasattr(value, "value") and type(value).__module__ != "builtins":
        # Enum-like: encode by class name + value.
        return b"E" + stable_encode((type(value).__name__, value.value))
    raise TypeError(f"cannot canonically encode {type(value).__name__}: {value!r}")


def digest(*parts: Any) -> bytes:
    """SHA-256 digest over the canonical encoding of ``parts``."""
    # One hash call over one buffer: every part is followed by a separator
    # (the trailing empty piece supplies the last one).
    encoded = list(map(stable_encode, parts))
    encoded.append(b"")
    return hashlib.sha256(_SEPARATOR.join(encoded)).digest()


def digest_hex(*parts: Any) -> str:
    """Hex form of :func:`digest` (handy in traces and tests)."""
    return digest(*parts).hex()
