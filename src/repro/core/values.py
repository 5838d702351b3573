"""Tagged JSON encoding of simulator values.

A machine snapshot must capture every value the simulator can hold in a
register, a memory word, a queue, a switch transfer or an in-flight message.
Most of those are plain numbers, but the M-Machine also stores *tagged*
words (guarded pointers), structured hardware records (event records, memory
requests, messages, register writes) and references to assembled programs.

This module maps all of them onto plain JSON: scalars pass through, and
everything else becomes a dict carrying the reserved ``"__snap__"`` tag.
A record (a dataclass) is encoded from its fields in declaration order and
decoded back by field name, through one field walk
(:func:`record_fields`, :func:`encode_record`, :func:`decode_record`) that
names the converters of the few fields whose JSON form is not
:func:`encode_value`'s; a field added to a record is therefore saved and
restored with no edit here or in its owner.  The hardware records that can
sit in a register, a queue or a message carry a tag (see :func:`_codec`);
the records a component keeps in its own tables (cache lines, C-Switch
transfers, coherence directory entries and pending operations) are plain
dicts written through the same walk (:func:`record_codec`).

A component's own state is walked the same way: :func:`state_fields` names
each snapshot attribute of a component class once, with the :class:`Codec`
that converts it, and :class:`repro.core.component.StatefulComponent` saves
and restores every attribute from that list.  The converters compose:
:data:`AS_IS` and :data:`VALUE` for one value, :func:`each` for a list,
:func:`pairs` for a mapping as ``[key, value]`` pairs, :func:`timed` for
``(cycle, value)`` tuples and :func:`record_codec` for an untagged record.
The encoding is self-describing and loss-free:

* ``encode_value(decode_value(x)) == x`` for every encoded document, and
* ``decode_value(encode_value(v))`` reconstructs an equal value, with
  :class:`~repro.isa.program.Program` objects re-assembled from their
  retained source (identical sources decode to the *same* object, which
  restores the sharing between an instruction cache and its thread
  contexts).

Aliasing between containers is not preserved: two references to the same
:class:`~repro.memory.requests.MemRequest` decode to two equal objects.  No
live simulator state holds the same mutable record in two places at once, so
this never changes behaviour.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from functools import lru_cache
from operator import attrgetter
from types import SimpleNamespace
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.isa.assembler import AssemblyError, assemble_cached
from repro.isa.operations import LabelRef
from repro.isa.program import Program
from repro.isa.registers import RegFile, RegisterRef

#: Reserved key marking a tagged (non-plain-JSON) value.
TAG = "__snap__"


class SnapshotError(Exception):
    """Raised for malformed, unsupported or mismatched snapshot data."""


def encode_value(value) -> object:
    """Encode one simulator value into a JSON-compatible structure."""
    # Exact-type fast path: the overwhelming majority of simulator values
    # (memory words, trace fields, queue contents) are plain scalars, and
    # ``type(x) is int`` excludes the IntEnum/bool subclasses that need the
    # slow path below.
    value_type = type(value)
    if value_type is int or value_type is str or value_type is bool:
        return value
    if value is None:
        return value
    if value_type is float:
        if math.isfinite(value):
            return value
        return {TAG: "float", "repr": repr(value)}
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        # Covers SECDED codewords and IntEnums alike; enums that must decode
        # back to their class are wrapped by their owning record's encoder.
        return _encode_int(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        return {TAG: "float", "repr": repr(value)}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, tuple):
        return {TAG: "tuple", "items": [encode_value(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        return {TAG: "set", "items": sorted(encode_value(item) for item in value)}
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value) and TAG not in value:
            return {key: encode_value(item) for key, item in value.items()}
        return {
            TAG: "dict",
            "items": [[encode_value(key), encode_value(item)] for key, item in value.items()],
        }
    return _encode_object(value)


#: One field of a record walk: its name, encoder and decoder.
RecordField = Tuple[str, Callable[[object], object], Callable[[object], object]]


def record_fields(cls, converters: Optional[Mapping[str, Tuple[Callable, Callable]]] = None,
                  ) -> Tuple[RecordField, ...]:
    """The field walk of record class *cls*: each dataclass field in
    declaration order (the key order of its encoded dict) with its encoder
    and decoder, which are :func:`encode_value` and :func:`decode_value`
    unless *converters* maps the field's name to another pair."""
    converters = converters or {}
    return tuple((field.name, *converters.get(field.name, VALUE))
                 for field in dataclasses.fields(cls))


#: One entry of a component's state walk: the attribute, its snapshot key,
#: and its encoder and decoder.
StateField = Tuple[str, str, Callable[[object], object], Callable[[object], object]]


def state_fields(*entries) -> Tuple[StateField, ...]:
    """The state walk of a component class, in snapshot key order (see
    :class:`repro.core.component.StatefulComponent`).

    An entry is an attribute name, whose value is plain JSON data stored as
    it is, or ``(name, codec)`` with the :class:`Codec` that writes and
    reads it.  The snapshot key is the name without its leading underscore."""
    fields = []
    for entry in entries:
        name, (encode, decode) = (entry, AS_IS) if isinstance(entry, str) else entry
        fields.append((name, name.lstrip("_"), encode, decode))
    return tuple(fields)


def encode_record(value, fields: Tuple[RecordField, ...]) -> Dict[str, object]:
    """Encode record *value* as a dict of its *fields*, in walk order."""
    return {name: encode(getattr(value, name)) for name, encode, _ in fields}


def decode_record(cls, data: Dict[str, object], fields: Tuple[RecordField, ...]):
    """Rebuild a *cls* record from a dict that :func:`encode_record` wrote;
    a missing field raises ``KeyError``."""
    return cls(**{name: decode(data[name]) for name, _, decode in fields})


@lru_cache(maxsize=None)
def _codec() -> SimpleNamespace:
    """The record table, and the tagged classes of the packages that import
    this codec.

    ``repro.cluster``, ``repro.events``, ``repro.memory`` and
    ``repro.network`` import this module while they load, so their classes
    are imported here on the first encode or decode that needs one.

    ``records`` maps each tagged record class to its tag and its
    :func:`record_fields` walk, whose key order follows the tag in its
    dict.  The few fields whose JSON form is not :func:`encode_value`'s name
    their converters below."""
    from repro.cluster.cluster import RegWrite  # noqa: PLC0415
    from repro.events.records import EventRecord, EventType  # noqa: PLC0415
    from repro.memory.guarded_pointer import GuardedPointer  # noqa: PLC0415
    from repro.memory.page_table import BlockStatus, LptEntry  # noqa: PLC0415
    from repro.memory.requests import MemOpKind, MemRequest, MemResponse  # noqa: PLC0415
    from repro.network.gtlb import GtlbEntry  # noqa: PLC0415
    from repro.network.message import Message, MessageKind  # noqa: PLC0415

    by_value = attrgetter("value")
    table = {
        RegisterRef: ("reg", {"file": (attrgetter("name"), lambda name: RegFile[name])}),
        MemRequest: ("memreq", {"kind": (by_value, MemOpKind)}),
        MemResponse: ("memresp", {}),
        EventRecord: ("event", {"event_type": (int, EventType)}),
        # The body is decoded item by item, so a body that is not a list is
        # refused here rather than when the message is delivered.
        Message: ("msg", {"kind": (by_value, MessageKind), "body": each()}),
        RegWrite: ("regwrite", {}),
        LptEntry: ("lpt", {"block_status": each(Codec(int, BlockStatus))}),
        GtlbEntry: ("gtlb", {"start_node": (list, tuple), "extent": (list, tuple)}),
    }
    records = {cls: (tag, record_fields(cls, converters))
               for cls, (tag, converters) in table.items()}
    return SimpleNamespace(
        BlockStatus=BlockStatus,
        GuardedPointer=GuardedPointer,
        records=records,
        tags={tag: (cls, fields) for cls, (tag, fields) in records.items()},
    )


def _encode_int(value: int) -> object:
    if isinstance(value, enum.IntEnum):
        # BlockStatus (and any future IntEnum) round-trips through its class.
        if isinstance(value, _codec().BlockStatus):
            return {TAG: "blockstatus", "value": int(value)}
        return int(value)
    return value


def _encode_object(value) -> Dict[str, object]:
    codec = _codec()
    record = codec.records.get(type(value))
    if record is not None:
        tag, fields = record
        return {TAG: tag, **encode_record(value, fields)}
    if isinstance(value, codec.GuardedPointer):
        return {TAG: "gptr", "word": value.encode()}
    if isinstance(value, LabelRef):
        return {TAG: "label", "name": value.name}
    if isinstance(value, Program):
        return {TAG: "program", "name": value.name, "source": value.source}
    raise SnapshotError(f"cannot encode value of type {type(value).__name__}: {value!r}")


def decode_value(encoded) -> object:
    """Decode a structure produced by :func:`encode_value`."""
    if encoded is None or isinstance(encoded, (bool, int, float, str)):
        return encoded
    if isinstance(encoded, list):
        return [decode_value(item) for item in encoded]
    if isinstance(encoded, dict):
        if TAG not in encoded:
            return {key: decode_value(item) for key, item in encoded.items()}
        return _decode_tagged(encoded)
    raise SnapshotError(f"cannot decode value of type {type(encoded).__name__}")


def _decode_tagged(encoded: Dict[str, object]) -> object:
    codec = _codec()
    tag = encoded[TAG]
    if tag == "float":
        return float(encoded["repr"])
    if tag == "tuple":
        return tuple(decode_value(item) for item in encoded["items"])
    if tag == "set":
        return {decode_value(item) for item in encoded["items"]}
    if tag == "dict":
        return {decode_value(key): decode_value(item) for key, item in encoded["items"]}
    if tag == "gptr":
        return codec.GuardedPointer.decode(encoded["word"])
    if tag == "label":
        return LabelRef(encoded["name"])
    if tag == "blockstatus":
        return codec.BlockStatus(encoded["value"])
    if tag == "program":
        try:
            return assemble_cached(encoded["source"], encoded["name"])
        except AssemblyError as exc:
            raise SnapshotError(
                f"program {encoded['name']!r} does not assemble: {exc}") from exc
    # A corrupt document's tag may be unhashable; it is unknown all the same.
    record = codec.tags.get(tag) if isinstance(tag, str) else None
    if record is None:
        raise SnapshotError(f"unknown snapshot value tag {tag!r}")
    cls, fields = record
    return decode_record(cls, encoded, fields)


class Codec(NamedTuple):
    """How one value of a component's state or of a record is written as
    JSON (``encode``) and read back (``decode``)."""

    encode: Callable[[object], object]
    decode: Callable[[object], object]


def _as_is(value):
    return value


#: Plain JSON data, stored as it is.
AS_IS = Codec(_as_is, _as_is)
#: Any simulator value, through :func:`encode_value` and :func:`decode_value`.
VALUE = Codec(encode_value, decode_value)


def each(item: Codec = VALUE, into: Callable = list) -> Codec:
    """A sequence as a list converted item by item, read back into *into*."""
    encode, decode = item
    return Codec(lambda items: [encode(value) for value in items],
                 lambda items: into([decode(value) for value in items]))


def pairs(value: Codec = VALUE, into: Callable = dict) -> Codec:
    """A mapping as an order-preserving list of ``[key, value]`` pairs (dict
    iteration order is part of the simulator's determinism), its keys (ints
    or strings) as they are, read back into *into*."""
    encode, decode = value
    return Codec(lambda mapping: [[key, encode(item)] for key, item in mapping.items()],
                 lambda items: into({key: decode(item) for key, item in items}))


def timed(into: Callable = list) -> Codec:
    """A sequence of ``(cycle, value)`` tuples as ``[cycle, value]`` lists,
    the value through the value codec, read back into *into*."""
    return Codec(lambda items: [[cycle, encode_value(value)] for cycle, value in items],
                 lambda items: into([(cycle, decode_value(value)) for cycle, value in items]))


def record_codec(cls, converters: Optional[Mapping[str, Tuple[Callable, Callable]]] = None,
                 ) -> Codec:
    """An untagged *cls* record as a plain dict of its fields, through the
    :func:`record_fields` walk."""
    fields = record_fields(cls, converters)
    return Codec(lambda value: encode_record(value, fields),
                 lambda data: decode_record(cls, data, fields))


def encode_optional_set(value) -> Optional[List[object]]:
    if value is None:
        return None
    return sorted(encode_value(item) for item in value)


def decode_optional_set(encoded) -> Optional[set]:
    if encoded is None:
        return None
    return {decode_value(item) for item in encoded}
