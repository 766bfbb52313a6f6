"""Message plumbing shared by all protocols: canonical encoding, and the wire
contract :func:`conforms` reads from every message's annotations."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import (
    Annotated, Any, Callable, Dict, Union, get_args, get_origin, get_type_hints,
)

from ..crypto.signatures import Signed
from ..types import Value, View


#: Per-class field-name tuples: ``dataclasses.fields`` rebuilds Field
#: objects on every call, and ``canonical()`` sits on the signing hot path.
_FIELD_NAMES: dict = {}


class CanonicalMessage:
    """Mixin giving dataclasses a canonical encoding for signing/hashing.

    The encoding is ``(ClassName, field values...)``; nested messages and
    crypto objects recurse through their own ``canonical()``.
    """

    def canonical(self) -> Any:
        cls = type(self)
        names = _FIELD_NAMES.get(cls)
        if names is None:
            names = _FIELD_NAMES[cls] = tuple(
                f.name for f in dataclasses.fields(self)  # type: ignore[arg-type]
            )
        return (cls.__name__,) + tuple(getattr(self, n) for n in names)


#: ``check(obj, memo) -> bool`` per hint, and per message class met inside
#: an envelope: compiled on first use.
_CHECKS: Dict[object, Callable[[object, Any], bool]] = {}
_MESSAGES: Dict[type, Callable[[object, Any], bool]] = {}


def conforms(obj: object, hint, table=None) -> bool:
    """Whether ``obj`` is a well-typed ``hint``, the wire contract the
    messages' annotations spell (DESIGN.md, "What an in-simulation adversary
    can and cannot do"): every class is exact, never a subclass; a message
    class's fields conform; ``Signed[T]`` has an ``int`` signer (bare
    ``Signed``: around any message); ``View`` is in range; a ``VRFOutput``'s
    inside is the VRF's to check.  With a verdict ``table``, each envelope's
    verdict is kept under the uncounted kind ``"shape"``: walked once per
    instance."""
    return _compile(hint)(obj, None if table is None else table.of_kind("shape"))


def _compile(hint) -> Callable[[object, Any], bool]:
    check = _CHECKS.get(hint)
    if check is None:
        check = _CHECKS[hint] = _checker(hint)
    return check


def _envelope(obj, memo) -> bool:
    """Bare ``Signed``; a payload of a message class itself, not of a
    subclass of one."""
    if type(obj) is not Signed:
        return False
    if memo is not None:
        entry = memo.get(id(obj))
        if entry is not None:
            return entry[1]
    payload = obj.payload
    check = _MESSAGES.get(type(payload))
    if check is None:
        if type(payload).__bases__ != (CanonicalMessage,):
            return False
        check = _MESSAGES[type(payload)] = _compile(type(payload))
    ok = type(obj.signer) is int and check(payload, memo)
    if memo is not None:
        memo[id(obj)] = (obj, ok)  # the entry pins obj, so its id stays its own
    return ok


def _checker(hint) -> Callable[[object, Any], bool]:
    origin, args = get_origin(hint), get_args(hint)
    if hint is object:
        return lambda obj, memo: True
    if hint is Signed:
        return _envelope
    if origin is Signed:
        (kind,) = args
        return lambda obj, memo: (
            type(obj) is Signed and type(obj.payload) is kind and _envelope(obj, memo)
        )
    if origin is Annotated and args[0] is int:
        _int, low, high = args
        return lambda obj, memo: type(obj) is int and low <= obj <= high
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        each = _compile(args[0])
        return lambda obj, memo: type(obj) is tuple and all(each(i, memo) for i in obj)
    if origin is Union:
        alternatives = [_compile(a) for a in args]
        return lambda obj, memo: any(alt(obj, memo) for alt in alternatives)
    if origin is not None or not isinstance(hint, type) or hint is Any:
        raise TypeError(f"no wire type for {hint!r}")
    if issubclass(hint, CanonicalMessage):
        return _message(hint)
    return lambda obj, memo: type(obj) is hint


def _message(cls: type) -> Callable[[object, Any], bool]:
    """Exactly ``cls``, every field as annotated.  Fields of an exact class
    or a range (most of them) are checked in line."""
    exact, ranged, nested = [], [], []
    hints = get_type_hints(cls, include_extras=True)
    for name in (f.name for f in dataclasses.fields(cls)):
        hint, check = hints[name], _compile(hints[name])  # (refuses the unreadable)
        if get_origin(hint) is Annotated:
            ranged.append((name,) + get_args(hint)[1:])
        elif hint is object:
            continue
        elif isinstance(hint, type) and hint is not Signed and not issubclass(
            hint, CanonicalMessage
        ):
            exact.append((name, hint))
        else:
            nested.append((name, check))

    def check(obj, memo) -> bool:
        if type(obj) is not cls:
            return False
        for name, kind in exact:
            if type(getattr(obj, name)) is not kind:
                return False
        for name, low, high in ranged:
            value = getattr(obj, name)
            if type(value) is not int or not low <= value <= high:
                return False
        for name, field_check in nested:
            if not field_check(getattr(obj, name), memo):
                return False
        return True

    return check


@dataclass(frozen=True)
class ProposalStatement(CanonicalMessage):
    """The leader-signed inner statement ``⟨v, x⟩_leader``.

    Every Prepare/Commit message carries (a signed copy of) this statement,
    which is what makes leader equivocation *provable*: two validly signed
    statements for the same view with different values are evidence.

    ``domain`` scopes the statement to one consensus instance (see
    :attr:`repro.config.ProtocolConfig.seed_domain`).
    """

    view: View
    value: Value
    domain: str = ""

    def conflicts_with(self, other: "ProposalStatement") -> bool:
        """Same instance and view, different value — the equivocation
        condition (Algorithm 1 line 23)."""
        return (
            self.domain == other.domain
            and self.view == other.view
            and self.value != other.value
        )
