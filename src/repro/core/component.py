"""The component contract of the event-driven simulation kernel.

The naive loop ticks every model object every cycle, so a component never
has to say when it next has work -- it is simply asked.  The event kernel
(:mod:`repro.core.scheduler`) instead keeps an *activity ledger*: a node is
ticked only while it is **active**, and an inactive node is woken either by
an external stimulus (a mesh delivery) or by a **scheduled wakeup** at a
cycle the component declared in advance.

For that to be exact, every time-dependent sub-component must be able to
answer one question: *given that you receive no external input, at which
future cycle does your state next change by itself?*  That is the
:class:`SimComponent` protocol.  Implementations in this tree:

* :meth:`repro.memory.memory_system.MemorySystem.next_event_cycle` -- queued
  bank/MIF requests and pending response completion times;
* :meth:`repro.switches.crossbar.Crossbar.next_ready_cycle` -- in-flight
  switch transfers;
* :meth:`repro.network.interface.NetworkInterface.next_event_cycle` --
  retransmission back-off expiries;
* :meth:`repro.runtime.native.NativeHandler.next_event_cycle` -- queued
  records gated behind the handler's ``busy_until`` charge, plus deferred
  synchronizing-fault retries;
* :meth:`repro.node.node.Node.next_event_cycle` -- the fold of all of the
  above plus cluster writebacks and pending asynchronous event records.

The contract has two rules:

1. **No silent self-activation.**  If ``next_event_cycle(cycle)`` returns
   ``None``, the component's observable state must not change on any later
   cycle unless external input arrives first.  Returning a cycle earlier
   than strictly necessary is always safe (the kernel ticks the component,
   finds nothing to do, and asks again); returning one too late is a
   correctness bug.
2. **Ticks with no due work must be pure.**  Between "now" and the returned
   cycle, a tick of the component must neither change architectural state
   nor statistics, so the kernel may skip those ticks entirely.  (Per-cycle
   statistics of the *issue* stage -- idle/stall counters -- are the one
   exception, and the kernel reproduces them in bulk via
   :meth:`repro.node.node.Node.account_idle_cycles`.)  The same rule lets
   an awake node skip a pure phase: :meth:`repro.node.node.Node.tick` calls
   a component only when the container its tick tests first holds
   something, and the C-Switch's arbitration pointer, which moves every
   cycle, is advanced without a delivery.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable


@runtime_checkable
class SimComponent(Protocol):
    """Anything the kernel can put to sleep and wake at a declared cycle."""

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """The earliest cycle strictly after *cycle* at which this
        component's state will change without external input, or ``None``
        if it will not."""
        ...


@runtime_checkable
class MeshObserver(Protocol):
    """Callback interface the kernel registers on the mesh so message
    deliveries (data, ACKs and NACKs alike) reactivate their destination
    node."""

    def message_delivered(self, node_id: int, cycle: int) -> None:
        """A message was just delivered to *node_id* at *cycle*."""
        ...


@runtime_checkable
class StatefulComponent(Protocol):
    """The snapshot half of the component contract (:mod:`repro.snapshot`).

    Every component that holds mutable simulation state implements this
    pair.  The rules:

    1. **Completeness.**  ``state_dict()`` must capture every piece of state
       that can influence future architectural behaviour *or statistics* --
       an omitted counter breaks the bit-exact-resume guarantee just as an
       omitted queue does.  Structure that is rebuilt by construction from
       the :class:`~repro.core.config.MachineConfig` (geometry, wiring,
       callbacks, handler objects) is *not* captured; restore always runs on
       a freshly-constructed, identically-configured machine.
    2. **Plain data.**  The returned dict must be JSON-compatible.  Domain
       values (guarded pointers, event records, messages, requests, register
       writes, programs) go through :func:`repro.core.values.encode_value`;
       mappings whose iteration order matters (and all non-string-keyed
       mappings) are stored as ordered ``[key, value]`` pair lists.
    3. **Exact inversion.**  ``load_state_dict(state_dict())`` on a
       same-configured component must reproduce a component whose observable
       behaviour is indistinguishable, including shared-object identity that
       behaviour depends on (the LTLB re-links the page table's own
       ``LptEntry`` objects, an instruction cache and its thread contexts
       share ``Program`` objects).
    """

    def state_dict(self) -> dict:
        """This component's complete mutable state as plain JSON data."""
        ...

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        ...
