"""The ``TraceEvent`` contract (``core/trace.py``) and its memory cost.

Every analysis, snapshot and disk chunk reads events through this
contract, so it is pinned here on its own: construction by position and by
keyword, attribute reads of the ``info`` fields, the key order that encoded
rows keep, equality, ``str``/``repr``, the row codec and ``Tracer.first``.
The memory test compares the bytes an event retains with those of the
dataclass that held its own ``info`` dict, kept here as the reference.
"""

import copy
import gc
import json
import pickle
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict

import pytest

from repro.core.trace import TraceEvent, Tracer, decode_event, encode_event


def _recorded(category="send", **info):
    tracer = Tracer()
    tracer.record(12, 3, category, **info)
    (event,) = tracer.events
    return event


def test_construction_by_keyword_and_by_position():
    info = {"cluster": 0, "slot": 2}
    by_keyword = TraceEvent(cycle=5, node=1, category="halt", info=dict(info))
    by_position = TraceEvent(5, 1, "halt", dict(info))
    for event in (by_keyword, by_position):
        assert (event.cycle, event.node, event.category) == (5, 1, "halt")
        assert event.info == info
    assert by_keyword == by_position
    assert TraceEvent(5, 1, "halt").info == {}


def test_recorded_event_equals_the_constructed_one():
    event = _recorded(msg=1, dest=3, priority=0)
    assert event == TraceEvent(12, 3, "send", {"msg": 1, "dest": 3, "priority": 0})


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    tracer.record(1, 0, "halt", cluster=0, slot=0)
    assert len(tracer) == 0


@pytest.mark.parametrize("info", [
    {"msg": 1, "dest": 3, "priority": 0},
    {"priority": 0, "dest": 3, "msg": 1},
    {"body": [1, 2], "dest": 3, "coords": (1, 0, 0)},
], ids=["scalars", "scalars-reversed", "non-scalars"])
def test_info_key_order_is_kept_through_encode_event(info):
    event = _recorded(**info)
    assert list(event.info) == list(info)
    row = encode_event(event)
    assert row[:3] == [12, 3, "send"]
    assert list(row[3]) == list(info)


def test_encoded_scalar_row():
    row = encode_event(_recorded(msg=1, dest=3, priority=0))
    assert json.dumps(row, separators=(",", ":")) == (
        '[12,3,"send",{"msg":1,"dest":3,"priority":0}]'
    )


def test_info_fields_read_as_attributes():
    event = _recorded(msg=1, dest=3, priority=0)
    assert (event.msg, event.dest, event.priority) == (1, 3, 0)
    with pytest.raises(AttributeError, match="address"):
        event.address
    assert getattr(event, "address", None) is None
    assert not hasattr(event, "address")


def test_equality_ignores_info_key_order():
    event = TraceEvent(1, 0, "send", {"msg": 1, "dest": 3})
    assert event == TraceEvent(1, 0, "send", {"dest": 3, "msg": 1})
    assert not event != TraceEvent(1, 0, "send", {"dest": 3, "msg": 1})
    for other in (
        TraceEvent(2, 0, "send", {"msg": 1, "dest": 3}),
        TraceEvent(1, 1, "send", {"msg": 1, "dest": 3}),
        TraceEvent(1, 0, "halt", {"msg": 1, "dest": 3}),
        TraceEvent(1, 0, "send", {"msg": 1, "dest": 4}),
        TraceEvent(1, 0, "send", {"msg": 1}),
        TraceEvent(1, 0, "send", {"msg": 1, "dest": 3, "priority": 0}),
    ):
        assert event != other
        assert not event == other
    assert event != (1, 0, "send", {"msg": 1, "dest": 3})
    assert event != [1, 0, "send", {"msg": 1, "dest": 3}]


def test_events_are_unhashable():
    event = TraceEvent(1, 0, "send", {"msg": 1})
    with pytest.raises(TypeError):
        hash(event)
    with pytest.raises(TypeError):
        {event}


def test_str_and_repr():
    event = _recorded("mem_issue", store=False, address=0x40008, cluster=0)
    assert str(event) == "[    12] node 3 mem_issue: address=262152, cluster=0, store=False"
    assert repr(event) == (
        "TraceEvent(cycle=12, node=3, category='mem_issue', "
        "info={'store': False, 'address': 262152, 'cluster': 0})"
    )
    assert str(TraceEvent(1234567, 0, "halt")) == "[1234567] node 0 halt: "


@pytest.mark.parametrize("info", [
    {"req": 7, "address": 0x100, "store": True, "where": None, "origin": "memory"},
    {"body": [1, 2, 3], "dest": 5},
    {"coords": (1, 2, 0), "msg": 4},
    {},
], ids=["scalars", "list-body", "tuple", "empty"])
def test_decode_inverts_encode(info):
    event = _recorded(**info)
    row = json.loads(json.dumps(encode_event(event)))
    decoded = decode_event(row)
    assert decoded == event
    assert list(decoded.info) == list(info)
    assert encode_event(decoded) == encode_event(event)


def test_first_matches_category_and_fields():
    tracer = Tracer()
    tracer.record(1, 0, "send", msg=1, dest=3)
    tracer.record(2, 1, "send", msg=2, dest=4)
    tracer.record(3, 1, "halt", cluster=0, slot=0)
    tracer.record(4, 2, "send", msg=3, dest=4)
    assert tracer.first("send").cycle == 1
    assert tracer.first("send", dest=4).msg == 2
    assert tracer.first("send", dest=4, msg=3).cycle == 4
    assert tracer.first("send", dest=9) is None
    assert tracer.first("halt", dest=3) is None
    assert tracer.first("mark") is None
    # A field the event lacks matches None, as ``dict.get`` reads it.
    assert tracer.first("halt", dest=None).cycle == 3


def test_decode_refuses_an_info_that_is_not_an_object():
    for info in (None, [], [1, 2], "ab", 3):
        with pytest.raises(ValueError, match="not an object"):
            decode_event([1, 0, "halt", info])


def test_info_is_a_fresh_dict_on_each_access():
    event = _recorded(msg=1, dest=3)
    info = event.info
    assert info is not event.info
    info["msg"] = 99
    del info["dest"]
    assert event.info == {"msg": 1, "dest": 3}
    assert (event.msg, event.dest) == (1, 3)


def test_events_share_one_key_tuple_and_hold_no_dict():
    tracer = Tracer()
    tracer.record(1, 0, "send", msg=1, dest=3)
    tracer.record(2, 1, "send", msg=2, dest=4)
    tracer.record(3, 1, "send", dest=5, msg=3)
    first, second, reordered = tracer.events
    assert first._keys is second._keys
    assert reordered._keys == ("dest", "msg")
    assert TraceEvent(4, 0, "send", {"msg": 4, "dest": 6})._keys is first._keys
    assert not hasattr(first, "__dict__")


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda event: pickle.loads(pickle.dumps(event))],
                         ids=["copy", "deepcopy", "pickle"])
def test_events_copy_and_pickle(clone):
    event = _recorded(msg=1, dest=3)
    cloned = clone(event)
    assert cloned == event and cloned is not event
    assert encode_event(cloned) == encode_event(event)


# ------------------------------------------------------------------- memory


@dataclass
class _DataclassEvent:
    """``TraceEvent`` as it was up to 12.2.0, verbatim: a dataclass that
    holds its own ``info`` dict (the reference of the memory test)."""

    cycle: int
    node: int
    category: str
    info: Dict[str, object] = field(default_factory=dict)

    def __getattr__(self, name: str):
        try:
            return self.info[name]
        except KeyError:
            raise AttributeError(name) from None

    def __str__(self) -> str:
        details = ", ".join(f"{key}={value}" for key, value in sorted(self.info.items()))
        return f"[{self.cycle:6d}] node {self.node} {self.category}: {details}"


#: Events recorded per measurement.
MEMORY_EVENTS = 4000


def _reference_recorder():
    """A ``Tracer.record`` as it was up to 12.2.0, over the reference class."""
    events = []

    def record(cycle, node, category, **info):
        events.append(_DataclassEvent(cycle=cycle, node=node, category=category, info=info))

    return record


def _retained_bytes_per_event(record, info_keys):
    """Bytes that recording :data:`MEMORY_EVENTS` events with small-int info
    values through *record* leaves allocated, per event (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for cycle in range(MEMORY_EVENTS):
            record(cycle, cycle % 64, "mem_issue",
                   **{key: (cycle + offset) % 200 for offset, key in enumerate(info_keys)})
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / MEMORY_EVENTS


@pytest.mark.parametrize("info_keys", [
    ("msg", "dest"),
    ("req", "address", "store", "cluster", "slot", "physical", "where"),
], ids=["2-key", "7-key"])
def test_an_event_retains_at_most_60_percent_of_a_dict_event(info_keys):
    """Each event keeps a shared key tuple and a tuple of values, not a dict
    of its own: it must retain at most 60% of the bytes the reference class
    retains on the same interpreter (a ratio, not a byte count, so it holds
    on every CPython in the CI matrix)."""
    tracer = Tracer()
    shipped = _retained_bytes_per_event(tracer.record, info_keys)
    reference = _retained_bytes_per_event(_reference_recorder(), info_keys)
    assert len(tracer) == MEMORY_EVENTS
    assert shipped <= 0.6 * reference, (
        f"{shipped:.0f} B per event against the reference's {reference:.0f} B"
    )
