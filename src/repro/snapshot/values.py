"""Tagged JSON encoding of simulator values.

A machine snapshot must capture every value the simulator can hold in a
register, a memory word, a queue, a switch transfer or an in-flight message.
Most of those are plain numbers, but the M-Machine also stores *tagged*
words (guarded pointers), structured hardware records (event records, memory
requests, messages, register writes) and references to assembled programs.

This module maps all of them onto plain JSON: scalars pass through, and
everything else becomes a dict carrying the reserved ``"__snap__"`` tag.
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

import math
from typing import Dict, List, Optional

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


def _encode_int(value: int) -> object:
    import enum  # noqa: PLC0415

    if isinstance(value, enum.IntEnum):
        # BlockStatus (and any future IntEnum) round-trips through its class.
        from repro.memory.page_table import BlockStatus  # noqa: PLC0415

        if isinstance(value, BlockStatus):
            return {TAG: "blockstatus", "value": int(value)}
        return int(value)
    return value


def _encode_object(value) -> Dict[str, object]:
    from repro.cluster.cluster import RegWrite  # noqa: PLC0415
    from repro.events.records import EventRecord  # noqa: PLC0415
    from repro.isa.operations import LabelRef  # noqa: PLC0415
    from repro.isa.program import Program  # noqa: PLC0415
    from repro.isa.registers import RegisterRef  # noqa: PLC0415
    from repro.memory.guarded_pointer import GuardedPointer  # noqa: PLC0415
    from repro.memory.page_table import LptEntry  # noqa: PLC0415
    from repro.memory.requests import MemRequest, MemResponse  # noqa: PLC0415
    from repro.network.gtlb import GtlbEntry  # noqa: PLC0415
    from repro.network.message import Message  # noqa: PLC0415

    if isinstance(value, GuardedPointer):
        return {TAG: "gptr", "word": value.encode()}
    if isinstance(value, LabelRef):
        return {TAG: "label", "name": value.name}
    if isinstance(value, RegisterRef):
        return {
            TAG: "reg",
            "file": value.file.name,
            "index": value.index,
            "cluster": value.cluster,
            "name": value.name,
        }
    if isinstance(value, Program):
        return {TAG: "program", "name": value.name, "source": value.source}
    if isinstance(value, MemRequest):
        return {
            TAG: "memreq",
            "kind": value.kind.value,
            "address": value.address,
            "data": encode_value(value.data),
            "dest": encode_value(value.dest),
            "vthread": value.vthread,
            "cluster": value.cluster,
            "sync_pre": value.sync_pre,
            "sync_post": value.sync_post,
            "physical": value.physical,
            "is_fp": value.is_fp,
            "issue_cycle": value.issue_cycle,
            "req_id": value.req_id,
        }
    if isinstance(value, MemResponse):
        return {
            TAG: "memresp",
            "request": encode_value(value.request),
            "value": encode_value(value.value),
            "ready_cycle": value.ready_cycle,
            "faulted": value.faulted,
        }
    if isinstance(value, EventRecord):
        return {
            TAG: "event",
            "event_type": int(value.event_type),
            "address": value.address,
            "data": value.data,
            "regspec": value.regspec,
            "is_store": value.is_store,
            "sync_pre": value.sync_pre,
            "sync_post": value.sync_post,
            "vthread": value.vthread,
            "cluster": value.cluster,
            "is_fp": value.is_fp,
            "cycle": value.cycle,
            "extra": encode_value(value.extra),
        }
    if isinstance(value, Message):
        return {
            TAG: "msg",
            "kind": value.kind.value,
            "source_node": value.source_node,
            "dest_node": value.dest_node,
            "priority": value.priority,
            "dip": value.dip,
            "dest_address": value.dest_address,
            "body": [encode_value(item) for item in value.body],
            "send_cycle": value.send_cycle,
            "returned": encode_value(value.returned),
            "msg_id": value.msg_id,
        }
    if isinstance(value, RegWrite):
        return {
            TAG: "regwrite",
            "vthread": value.vthread,
            "ref": encode_value(value.ref),
            "value": encode_value(value.value),
            "clear_pending": value.clear_pending,
            "origin": value.origin,
        }
    if isinstance(value, LptEntry):
        return {
            TAG: "lpt",
            "virtual_page": value.virtual_page,
            "physical_frame": value.physical_frame,
            "writable": value.writable,
            "block_status": [int(status) for status in value.block_status],
        }
    if isinstance(value, GtlbEntry):
        return {
            TAG: "gtlb",
            "base_page": value.base_page,
            "page_group_length": value.page_group_length,
            "start_node": list(value.start_node),
            "extent": list(value.extent),
            "pages_per_node": value.pages_per_node,
            "page_size_words": value.page_size_words,
        }
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
    from repro.cluster.cluster import RegWrite  # noqa: PLC0415
    from repro.events.records import EventRecord, EventType  # noqa: PLC0415
    from repro.isa.assembler import AssemblyError, assemble_cached  # noqa: PLC0415
    from repro.isa.operations import LabelRef  # noqa: PLC0415
    from repro.isa.registers import RegFile, RegisterRef  # noqa: PLC0415
    from repro.memory.guarded_pointer import GuardedPointer  # noqa: PLC0415
    from repro.memory.page_table import BlockStatus, LptEntry  # noqa: PLC0415
    from repro.memory.requests import MemOpKind, MemRequest, MemResponse  # noqa: PLC0415
    from repro.network.gtlb import GtlbEntry  # noqa: PLC0415
    from repro.network.message import Message, MessageKind  # noqa: PLC0415

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
        return GuardedPointer.decode(encoded["word"])
    if tag == "label":
        return LabelRef(encoded["name"])
    if tag == "blockstatus":
        return BlockStatus(encoded["value"])
    if tag == "reg":
        return RegisterRef(
            file=RegFile[encoded["file"]],
            index=encoded["index"],
            cluster=encoded["cluster"],
            name=encoded["name"],
        )
    if tag == "program":
        try:
            return assemble_cached(encoded["source"], encoded["name"])
        except AssemblyError as exc:
            raise SnapshotError(
                f"program {encoded['name']!r} does not assemble: {exc}") from exc
    if tag == "memreq":
        return MemRequest(
            kind=MemOpKind(encoded["kind"]),
            address=encoded["address"],
            data=decode_value(encoded["data"]),
            dest=decode_value(encoded["dest"]),
            vthread=encoded["vthread"],
            cluster=encoded["cluster"],
            sync_pre=encoded["sync_pre"],
            sync_post=encoded["sync_post"],
            physical=encoded["physical"],
            is_fp=encoded["is_fp"],
            issue_cycle=encoded["issue_cycle"],
            req_id=encoded["req_id"],
        )
    if tag == "memresp":
        return MemResponse(
            request=decode_value(encoded["request"]),
            value=decode_value(encoded["value"]),
            ready_cycle=encoded["ready_cycle"],
            faulted=encoded["faulted"],
        )
    if tag == "event":
        return EventRecord(
            event_type=EventType(encoded["event_type"]),
            address=encoded["address"],
            data=encoded["data"],
            regspec=encoded["regspec"],
            is_store=encoded["is_store"],
            sync_pre=encoded["sync_pre"],
            sync_post=encoded["sync_post"],
            vthread=encoded["vthread"],
            cluster=encoded["cluster"],
            is_fp=encoded["is_fp"],
            cycle=encoded["cycle"],
            extra=decode_value(encoded["extra"]),
        )
    if tag == "msg":
        return Message(
            kind=MessageKind(encoded["kind"]),
            source_node=encoded["source_node"],
            dest_node=encoded["dest_node"],
            priority=encoded["priority"],
            dip=encoded["dip"],
            dest_address=encoded["dest_address"],
            body=[decode_value(item) for item in encoded["body"]],
            send_cycle=encoded["send_cycle"],
            returned=decode_value(encoded["returned"]),
            msg_id=encoded["msg_id"],
        )
    if tag == "regwrite":
        return RegWrite(
            vthread=encoded["vthread"],
            ref=decode_value(encoded["ref"]),
            value=decode_value(encoded["value"]),
            clear_pending=encoded["clear_pending"],
            origin=encoded["origin"],
        )
    if tag == "lpt":
        return LptEntry(
            virtual_page=encoded["virtual_page"],
            physical_frame=encoded["physical_frame"],
            writable=encoded["writable"],
            block_status=[BlockStatus(status) for status in encoded["block_status"]],
        )
    if tag == "gtlb":
        return GtlbEntry(
            base_page=encoded["base_page"],
            page_group_length=encoded["page_group_length"],
            start_node=tuple(encoded["start_node"]),
            extent=tuple(encoded["extent"]),
            pages_per_node=encoded["pages_per_node"],
            page_size_words=encoded["page_size_words"],
        )
    raise SnapshotError(f"unknown snapshot value tag {tag!r}")


def encode_pairs(mapping) -> List[List[object]]:
    """Encode a mapping as an order-preserving list of ``[key, value]``
    pairs (dict iteration order is part of the simulator's determinism)."""
    return [[encode_value(key), encode_value(value)] for key, value in mapping.items()]


def decode_pairs(pairs) -> Dict[object, object]:
    return {decode_value(key): decode_value(value) for key, value in pairs}


def encode_counter(counter) -> List[List[object]]:
    """Encode a :class:`collections.Counter` preserving insertion order."""
    return encode_pairs(counter)


def decode_counter(pairs):
    from collections import Counter  # noqa: PLC0415

    counter: Counter = Counter()
    for key, value in pairs:
        counter[decode_value(key)] = value
    return counter


def encode_optional_set(value) -> Optional[List[object]]:
    if value is None:
        return None
    return sorted(encode_value(item) for item in value)


def decode_optional_set(encoded) -> Optional[set]:
    if encoded is None:
        return None
    return {decode_value(item) for item in encoded}
