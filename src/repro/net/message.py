"""On-wire message envelope and payload size estimation.

The simulator never serializes payloads — Python objects are handed
across directly — but transfer times depend on message size, so every
send carries a byte size: explicit when the caller knows it, otherwise
estimated structurally by :func:`estimate_size`.

Size estimation sits on the per-message hot path (every datagram and
stream send calls it), so the implementation dispatches on the payload's
concrete type through a handler cache: the first payload of a given type
walks the classification chain once and compiles a small handler
(constant for ``__wire_bytes__`` types, a precomputed field tuple for
dataclasses); every later payload of that type is a single dict lookup
plus the handler call. Wire attributes (``__wire_bytes__``,
``__nonwire_fields__``, ``__wire_memo__``) are therefore read once per
type, at handler build time.

A payload that is re-sent many times — a cached query result goes out
on every cache hit — need not be walked again each time: a dataclass
that is never mutated after construction declares ``__wire_memo__ =
True`` and its handler keeps the walk's result on the instance (see
:func:`estimate_size`).
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, Callable, Dict

from .address import Address

__all__ = ["Envelope", "estimate_size"]

#: Fixed per-message header overhead, in bytes (IP + transport headers).
HEADER_BYTES = 40


def _size_one(payload: Any) -> int:
    """Size handler for ``None`` and booleans: one byte."""
    return 1


def _size_number(payload: Any) -> int:
    """Size handler for ints and floats: eight bytes."""
    return 8


def _size_str(payload: str) -> int:
    """Size handler for strings: UTF-8 encoded length."""
    if payload.isascii():
        return len(payload)
    return len(payload.encode("utf-8", errors="replace"))


def _size_sequence(payload: Any) -> int:
    """Size handler for list/tuple/set/frozenset: items plus framing."""
    total = 8
    get = _HANDLERS.get
    for item in payload:
        cls = item.__class__
        if cls is str:
            total += (
                len(item)
                if item.isascii()
                else len(item.encode("utf-8", errors="replace"))
            )
            continue
        handler = get(cls)
        total += handler(item) if handler is not None else estimate_size(item)
    return total


def _size_dict(payload: Dict[Any, Any]) -> int:
    """Size handler for dicts: keys and values plus framing."""
    total = 8
    get = _HANDLERS.get
    for key, value in payload.items():
        cls = key.__class__
        if cls is str:
            total += (
                len(key)
                if key.isascii()
                else len(key.encode("utf-8", errors="replace"))
            )
        else:
            handler = get(cls)
            total += handler(key) if handler is not None else estimate_size(key)
        cls = value.__class__
        if cls is str:
            total += (
                len(value)
                if value.isascii()
                else len(value.encode("utf-8", errors="replace"))
            )
        else:
            handler = get(cls)
            total += (
                handler(value) if handler is not None else estimate_size(value)
            )
    return total


def _size_repr(payload: Any) -> int:
    """Fallback size handler: length of ``repr``, at least eight bytes."""
    return max(8, len(repr(payload)))


#: Compiled per-type size handlers (see module docstring).
_HANDLERS: Dict[type, Callable[[Any], int]] = {}

_NONE_TYPE = type(None)

#: Template for one unrolled field of a generated dataclass handler.
#: Strings, numbers, ``None`` and booleans — the overwhelming majority
#: of wire fields — are sized inline; anything else dispatches through
#: the handler cache.
_FIELD_TEMPLATE = """\
    v = payload.{name}
    c = v.__class__
    if c is str:
        total += len(v) if v.isascii() else len(v.encode("utf-8", "replace"))
    elif c is int or c is float:
        total += 8
    elif c is _none or c is bool:
        total += 1
    else:
        h = _get(c)
        total += h(v) if h is not None else _est(v)
"""


def _compile_dataclass_handler(
    cls: type, names: "tuple", memo: bool
) -> Callable[[Any], int]:
    """Generate an unrolled size handler for a dataclass's wire fields.

    The generated function reads each field by name (no loop, no
    attrgetter tuple) — field sizing is the hottest code in the net
    layer, one call per message per dataclass payload. With *memo* the
    walk's result is kept on the instance (``_wire_size``) and returned
    from there afterwards.
    """
    if not names:
        return lambda payload: 8
    if memo and not cls.__dictoffset__:
        raise TypeError(
            f"{cls.__name__} declares __wire_memo__ but its instances have "
            "no __dict__ to keep the size in"
        )
    lines = ["def handler(payload):"]
    if memo:
        lines += [
            "    try:",
            "        return payload._wire_size",
            "    except AttributeError:",
            "        pass",
        ]
    lines.append("    total = 8")
    for name in names:
        lines.append(_FIELD_TEMPLATE.format(name=name))
    if memo:
        # Straight into the instance dict: the class may be frozen.
        lines.append("    payload.__dict__['_wire_size'] = total")
    lines.append("    return total")
    namespace = {
        "_get": _HANDLERS.get,
        "_est": estimate_size,
        "_none": _NONE_TYPE,
    }
    exec("\n".join(lines), namespace)  # noqa: S102 - trusted template
    handler = namespace["handler"]
    handler.__qualname__ = f"_size_{cls.__name__}"
    return handler


def _build_handler(cls: type) -> Callable[[Any], int]:
    """Classify *cls* once, cache and return its size handler."""
    wire_bytes = getattr(cls, "__wire_bytes__", None)
    if wire_bytes is not None:
        size = int(wire_bytes)

        def handler(payload: Any, _size: int = size) -> int:
            """Constant size handler for a ``__wire_bytes__`` type."""
            return _size

    elif cls is type(None) or issubclass(cls, bool):
        handler = _size_one
    elif issubclass(cls, (int, float)):
        handler = _size_number
    elif issubclass(cls, bytes):
        handler = len
    elif issubclass(cls, str):
        handler = _size_str
    elif issubclass(cls, (list, tuple, set, frozenset)):
        handler = _size_sequence
    elif issubclass(cls, dict):
        handler = _size_dict
    elif is_dataclass(cls):
        nonwire = getattr(cls, "__nonwire_fields__", ())
        names = tuple(
            f.name for f in fields(cls) if f.name not in nonwire
        )
        handler = _compile_dataclass_handler(
            cls, names, getattr(cls, "__wire_memo__", False)
        )
    else:
        handler = _size_repr
    _HANDLERS[cls] = handler
    return handler


def estimate_size(payload: Any) -> int:
    """Structural estimate of a payload's serialized size in bytes.

    Deterministic and cheap; used whenever a caller does not pass an
    explicit size. Numbers count 8 bytes, strings/bytes their length,
    containers the sum of their items plus a small framing overhead.

    Two escape hatches keep simulation-side instrumentation off the
    wire: an object with a ``__wire_bytes__`` attribute contributes
    exactly that many bytes (a :class:`~repro.core.pipeline.RequestContext`
    declares 0 — it models an out-of-band trace header), and a
    dataclass may list fields in ``__nonwire_fields__`` to exclude them
    from its size.

    A third hatch saves host time only: a dataclass with
    ``__wire_memo__ = True`` is walked once per instance. Its contract
    is that no instance is mutated after construction — nested
    containers included — and that instances have a ``__dict__`` (no
    ``slots=True``), which is checked when the handler is built.
    """
    handler = _HANDLERS.get(payload.__class__)
    if handler is not None:
        return handler(payload)
    return _build_handler(payload.__class__)(payload)


# Pre-compile handlers for the builtin payload types so the very first
# message pays no classification cost.
for _cls in (
    type(None), bool, int, float, bytes, str,
    list, tuple, set, frozenset, dict,
):
    _build_handler(_cls)
del _cls


class Envelope:
    """A payload in flight, stamped with source address and size.

    A plain ``__slots__`` class rather than a (frozen) dataclass: one
    envelope is allocated per message, and a frozen dataclass pays an
    ``object.__setattr__`` call per field on construction.
    """

    __slots__ = ("payload", "source", "destination", "size", "sent_at")

    def __init__(
        self,
        payload: Any,
        source: Address,
        destination: Address,
        size: int,
        sent_at: float,
    ) -> None:
        if size < 0:
            raise ValueError(f"negative message size: {size!r}")
        self.payload = payload
        self.source = source
        self.destination = destination
        self.size = size
        self.sent_at = sent_at

    def __repr__(self) -> str:
        return (
            f"Envelope(payload={self.payload!r}, source={self.source!r}, "
            f"destination={self.destination!r}, size={self.size!r}, "
            f"sent_at={self.sent_at!r})"
        )
