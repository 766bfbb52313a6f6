"""Wire encodings for the SMR log: request envelopes and command batches.

Two framing layers ride *inside* consensus values so they replicate for
free — the per-slot consensus instances order opaque byte strings and never
look inside:

* a **request envelope** tags a client command with a ``(client_id, seq)``
  request id.  Distinct requests carrying identical payloads stay distinct
  log entries (two clients incrementing the same counter must both
  complete), and the id travels through the log so any observer — the
  submitting client, a late-attached client replaying
  ``SMRDeployment.applied``, the workload generator — can match applies
  back to requests without side channels.
* a **batch** packs many commands into one slot value, the leader-side
  aggregation that lets throughput scale past one-request-per-consensus-
  instance.  Batches are applied element-wise, in order, by
  :class:`~repro.smr.log.DecisionLog`.

Both frames start with a ``0x01`` byte, which no plain application command
begins with (apps use printable encodings; the reserved
:data:`~repro.smr.app.NOOP` starts with ``0x00``), so bare legacy commands
pass through every helper unchanged — ``request_payload(b"INC") == b"INC"``
and ``commands_in(b"INC") == [b"INC"]``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..types import Value

__all__ = [
    "REQUEST_PREFIX",
    "BATCH_PREFIX",
    "encode_request",
    "decode_request",
    "request_payload",
    "encode_batch",
    "decode_batch",
    "commands_in",
    "SlotValueDecoder",
]

#: Frame marker for request envelopes: ``\x01R`` + client_id + seq + payload.
REQUEST_PREFIX = b"\x01R"
#: Frame marker for command batches: ``\x01B`` + count + length-prefixed parts.
BATCH_PREFIX = b"\x01B"


def _encode_uint(value: int) -> bytes:
    """Minimal big-endian length-prefixed unsigned int (1 length byte)."""
    if value < 0:
        raise ValueError(f"expected an unsigned int, got {value}")
    body = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    return bytes([len(body)]) + body


def _decode_uint(data: bytes, offset: int) -> Tuple[int, int]:
    """Decode one ``_encode_uint`` field; returns ``(value, next_offset)``."""
    width = data[offset]
    end = offset + 1 + width
    if end > len(data):
        raise ValueError("truncated integer field")
    return int.from_bytes(data[offset + 1 : end], "big"), end


def encode_request(client_id: int, seq: int, payload: Value) -> Value:
    """Wrap ``payload`` in a request envelope identified by ``(client_id, seq)``."""
    return REQUEST_PREFIX + _encode_uint(client_id) + _encode_uint(seq) + payload


def decode_request(value: Value) -> Optional[Tuple[int, int, Value]]:
    """``(client_id, seq, payload)`` for a request envelope, else ``None``.

    Malformed envelopes (truncated id fields) also return ``None`` — a
    Byzantine proposer can put arbitrary bytes in a slot, and garbage must
    degrade to an unmatchable opaque command, never an exception.
    """
    if not value.startswith(REQUEST_PREFIX):
        return None
    try:
        client_id, offset = _decode_uint(value, len(REQUEST_PREFIX))
        seq, offset = _decode_uint(value, offset)
    except (IndexError, ValueError):
        return None
    return client_id, seq, value[offset:]


def request_payload(value: Value) -> Value:
    """The application command inside ``value`` (identity for bare commands)."""
    decoded = decode_request(value)
    return value if decoded is None else decoded[2]


def encode_batch(commands: Sequence[Value]) -> Value:
    """Pack ``commands`` (each possibly a request envelope) into one value.

    Single-command batches are returned bare: a slot that orders one
    request produces the identical log entry whether batching is on or
    off, which keeps small-deployment logs comparable across the knob.
    """
    if not commands:
        raise ValueError("a batch needs at least one command")
    if len(commands) == 1:
        return commands[0]
    parts = [BATCH_PREFIX, _encode_uint(len(commands))]
    for command in commands:
        parts.append(_encode_uint(len(command)))
        parts.append(command)
    return b"".join(parts)


def decode_batch(value: Value) -> Optional[List[Value]]:
    """The command list of a batch value, else ``None`` (incl. malformed)."""
    if not value.startswith(BATCH_PREFIX):
        return None
    try:
        count, offset = _decode_uint(value, len(BATCH_PREFIX))
        commands: List[Value] = []
        for _ in range(count):
            length, offset = _decode_uint(value, offset)
            end = offset + length
            if end > len(value):
                return None
            commands.append(value[offset:end])
            offset = end
    except (IndexError, ValueError):
        return None
    if offset != len(value):
        return None
    return commands


def commands_in(value: Value) -> List[Value]:
    """The commands a slot value orders: batch elements, or the value itself."""
    decoded = decode_batch(value)
    return [value] if decoded is None else decoded


class SlotValueDecoder:
    """Decodes each distinct slot value once for everyone who shares it.

    ``decoder(value)`` is the value's commands, each paired with its decoded
    request envelope (``None`` for a bare command): what every replica's
    log, requeue scan and apply notification need of a decided batch.  The
    deployment owns one and clears it at teardown.
    """

    def __init__(self) -> None:
        self._decoded: Dict[Value, Tuple[tuple, ...]] = {}

    def clear(self) -> None:
        self._decoded.clear()

    def __call__(self, value: Value) -> Tuple[tuple, ...]:
        decoded = self._decoded.get(value)
        if decoded is None:
            decoded = self._decoded[value] = tuple(
                (command, decode_request(command)) for command in commands_in(value)
            )
        return decoded
