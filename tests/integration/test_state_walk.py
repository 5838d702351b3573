"""Rule 1 of the snapshot contract (completeness), checked on real runs.

A :class:`~repro.core.component.StatefulComponent` saves and restores
exactly the attributes its ``_STATE`` table names; a restore runs on a
freshly built machine, so every other attribute must hold the value
construction and loading gave it.  An attribute that a run changes but the
table leaves out (a counter added to a class and forgotten in its table, or
an in-flight buffer that drains again before the run ends) is silently
reset, or emptied, on resume.

For every registered workload, and for the two hand-built machines of
``test_snapshot_documents.py`` whose runs hold what no workload does (a
deferred synchronizing-fault retry, a pending coherence grant), this
captures each component's attributes outside ``_STATE`` when the machine's
first ``run*`` call starts, and fails if one differs from that capture on a
cycle the clock driver passes to its checkpoint hook (every cycle it
reaches, but those inside a settle window) or after the run.  Objects and
callables compare by identity, everything else by value.
"""

from collections import deque

import pytest

from repro import MMachine
from repro.api import get_workload, workload_names
from repro.core.component import StatefulComponent
from repro.core.scheduler import ClockDriver
from test_snapshot_documents import coherent_contention_machine, sync_retry_machine


class _Same:
    """An object or callable, equal only to itself."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, _Same) and other.value is self.value

    def __repr__(self):
        return f"<{type(self.value).__name__} at {id(self.value):#x}>"


def _comparable(value):
    """*value* with its containers unfolded, plain data by value and any
    other object by identity."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return dict, tuple((_comparable(key), _comparable(item)) for key, item in value.items())
    if isinstance(value, (list, tuple, deque, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return type(value), tuple(_comparable(item) for item in items)
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


def _outside_state(components) -> dict:
    """``{(component class, id, attribute): comparable value}`` of every
    attribute outside the walk of each of *components*."""
    captured = {}
    for component in components:
        cls = type(component).__name__
        walked = {name for name, *_ in component._STATE}
        for name, value in vars(component).items():
            if name not in walked and (cls, name) not in _DERIVED:
                captured[cls, id(component), name] = _comparable(value)
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


@pytest.mark.parametrize("workload", workload_names())
def test_workload_changes_no_attribute_outside_the_walk(workload, monkeypatch):
    assert _changed(lambda: get_workload(workload).call({}), monkeypatch) == []


@pytest.mark.parametrize("build", [sync_retry_machine, coherent_contention_machine])
def test_hand_built_run_changes_no_attribute_outside_the_walk(build, monkeypatch):
    assert _changed(lambda: build().run_until_user_done(10_000), monkeypatch) == []
