"""Rule 1 of the snapshot contract (completeness), checked on real runs.

A :class:`~repro.core.component.StatefulComponent` saves and restores
exactly the attributes its ``_STATE`` table names; a restore runs on a
freshly built machine, so every other attribute must hold the value
construction and loading gave it.  An attribute that a run changes but the
table leaves out (a counter added to a class and forgotten in its table, or
an in-flight buffer that drains again before the run ends) is silently
reset, or emptied, on resume.

For every scenario of ``scenarios.py`` under the event kernel (among them
every registered workload, and the sync-retry and coherent-contention
machines, whose runs hold what no workload does: a deferred
synchronizing-fault retry, a pending coherence grant), this captures each
component's attributes outside ``_STATE`` when the machine's first
``run*`` call starts, and fails if one differs from that capture on a
cycle the clock driver passes to its checkpoint hook (every cycle it
reaches, but those inside a settle window) or after the run.  Objects and
callables compare by identity, everything else by value.
"""

from collections import deque
from functools import lru_cache

import pytest

from repro import MMachine
from repro.core.component import StatefulComponent
from repro.core.scheduler import ClockDriver
from scenarios import SCENARIOS


class _Same:
    """An object or callable, equal only to itself."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, _Same) and other.value is self.value

    def __repr__(self):
        return f"<{type(self.value).__name__} at {id(self.value):#x}>"


_PLAIN = frozenset({type(None), bool, int, float, str})


def _comparable(value):
    """*value* with its containers unfolded, plain data by value and any
    other object by identity."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return dict, tuple([(_comparable(key), _comparable(item)) for key, item in value.items()])
    if isinstance(value, (list, tuple, deque, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        if _PLAIN.issuperset(map(type, items)):
            return type(value), tuple(items)
        return type(value), tuple([_comparable(item) for item in items])
    return _Same(value)


def _components(machine: MMachine):
    """Every stateful component reachable from *machine* through the
    attributes of simulator objects and the items of containers."""
    found, seen, stack = [], set(), [machine]
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, StatefulComponent):
            found.append(value)
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, (list, tuple, deque)):
            stack.extend(value)
        elif type(value).__module__.startswith("repro.") and hasattr(value, "__dict__"):
            stack.extend(vars(value).values())
    return found


#: Attributes outside ``_STATE`` that a run may change because
#: ``load_state_dict`` recomputes them from the walked state.
_DERIVED = {("Crossbar", "_num_pending")}


@lru_cache(maxsize=None)
def _skipped(cls) -> frozenset:
    """The attributes of *cls* that the walk saves, or that are derived."""
    return frozenset({name for name, *_ in cls._STATE}
                     | {name for owner, name in _DERIVED if owner == cls.__name__})


def _outside_state(components) -> dict:
    """``{(component class, id, attribute): comparable value}`` of every
    attribute outside the walk of each of *components*."""
    captured = {}
    for component in components:
        cls = type(component)
        skipped = _skipped(cls)
        for name, value in vars(component).items():
            if name not in skipped:
                captured[cls.__name__, id(component), name] = _comparable(value)
    return captured


def _changed(run, monkeypatch) -> list:
    """``component.attribute`` of each attribute outside ``_STATE`` that
    differs, on a cycle of *run* or after it, from its value at its
    machine's first ``run*`` call."""
    starts = {}
    changed = set()
    running, on_cycle = MMachine._running, ClockDriver._on_cycle

    def compare(components, before):
        after = _outside_state(components)
        if after != before:
            changed.update(f"{cls}.{name}" for cls, ident, name in before.keys() | after.keys()
                           if before.get((cls, ident, name)) != after.get((cls, ident, name)))

    def capturing(machine):
        if id(machine) not in starts:
            components = _components(machine)
            starts[id(machine)] = (machine, components, _outside_state(components))
        return running(machine)

    def checking(kernel):
        compare(*starts[id(kernel.machine)][1:])
        return on_cycle(kernel)

    monkeypatch.setattr(MMachine, "_running", capturing)
    monkeypatch.setattr(ClockDriver, "_on_cycle", checking)
    run()
    monkeypatch.undo()
    if not starts:
        pytest.skip("runs no machine")
    for _, components, before in starts.values():
        compare(components, before)
    return sorted(changed)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_changes_no_attribute_outside_the_walk(name, monkeypatch):
    assert _changed(lambda: SCENARIOS[name]("event"), monkeypatch) == []
