"""Native (Python) runtime handlers.

The paper publishes the mechanism of its Section 4.3 software DRAM-caching /
coherence layer (block-status bits, a home-node directory, handlers invoked
through the same event V-Thread machinery) but not the handler code itself.
Per the reproduction's substitution rule those handlers are implemented here
as *native handlers*: Python callbacks attached to a node's hardware queues
that consume the same event records / message words an assembly handler
would, perform their effects through the node's architectural interfaces
(memory system, network interface, ``xregwr``), and charge an explicit cycle
cost during which they are busy and process nothing else.

The native-handler framework is also used for the default
memory-synchronizing-fault policy (retry after a back-off), which the paper
mentions but does not specify.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.core.component import StatefulComponent
from repro.core.values import SnapshotError, state_fields, timed
from repro.events.queue import EventQueue, HardwareQueue
from repro.events.records import EventRecord, EventType

#: Cycles charged per native-handler invocation, plus the cost per word
#: touched (the paper does not specify the coherence handlers in code).
NATIVE_HANDLER_DISPATCH_CYCLES = 6
NATIVE_HANDLER_CYCLES_PER_WORD = 1
#: Back-off before the default synchronizing-fault handler retries.
SYNC_FAULT_RETRY_CYCLES = 24


class NativeHandler(StatefulComponent):
    """Base class: a handler bound to one hardware queue of one node."""

    _STATE = state_fields("name", "busy_until", "invocations", "cycles_busy")

    #: Work held outside the bound queue, as ``(due cycle, item)`` pairs.
    #: Empty here; a handler that defers work replaces it with a list.
    _deferred: Sequence[tuple] = ()

    def __init__(self, node, queue: HardwareQueue, name: str = "native"):
        self.node = node
        self.queue = queue
        self.name = name
        self.busy_until = -1
        self.invocations = 0
        self.cycles_busy = 0

    # -- framework -----------------------------------------------------------------
    #
    # Every handler exposes three things to the node and the event kernel:
    #
    # ``busy``             -- True while the handler holds deferred work that
    #                         is not visible in any hardware queue (part of
    #                         the node's quiescence predicate);
    # ``has_queued_work``  -- True when the bound hardware queue would make
    #                         the next ``poll`` do something;
    # ``next_event_cycle`` -- SimComponent contract: the next cycle a tick of
    #                         this handler can have an effect, or None.
    #
    # The node ticks a handler, and asks for its next event, only while the
    # bound queue holds a word or ``_deferred`` holds an entry: with both
    # empty, ``tick`` must change nothing.  Handlers that buffer their own
    # future work (like the synchronizing-fault retry handler) keep it in
    # ``_deferred`` and override ``next_event_cycle``; a handler whose
    # ``tick`` does per-cycle work the kernel cannot see would violate the
    # contract in :mod:`repro.core.component`.

    @property
    def busy(self) -> bool:
        """True while the handler holds work outside its hardware queue."""
        return bool(self._deferred)

    def has_queued_work(self) -> bool:
        """True when the bound hardware queue has something to consume."""
        return False

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        if self.has_queued_work():
            # Queued items are consumed as soon as the busy charge of the
            # previous invocation has been paid.
            return max(self.busy_until, cycle + 1)
        return None

    def tick(self, node, cycle: int) -> None:
        if cycle < self.busy_until:
            return
        cost = self.poll(cycle)
        if cost:
            self.invocations += 1
            self.cycles_busy += cost
            self.busy_until = cycle + cost

    def poll(self, cycle: int) -> int:
        """Check the bound queue; handle at most one item; return its cycle
        cost (0 when there was nothing to do)."""
        raise NotImplementedError

    # -- cost helpers ----------------------------------------------------------------

    def dispatch_cost(self, words_touched: int = 0) -> int:
        return NATIVE_HANDLER_DISPATCH_CYCLES + NATIVE_HANDLER_CYCLES_PER_WORD * words_touched

    def trace(self, cycle: int, category: str, **info) -> None:
        self.node.trace(cycle, category, handler=self.name, **info)

    # -- snapshot (repro.snapshot state_dict contract) -------------------------
    #
    # Handlers are rebuilt structurally when the runtime is reinstalled on a
    # restored machine; only their mutable state is captured.  Handlers
    # that buffer deferred work extend ``_STATE``.

    def load_state_dict(self, state: dict) -> None:
        if state["name"] != self.name:
            raise SnapshotError(
                f"native-handler mismatch: snapshot has {state['name']!r}, "
                f"machine has {self.name!r} (runtime layout changed?)"
            )
        super().load_state_dict(state)


class EventNativeHandler(NativeHandler):
    """A native handler that consumes :class:`EventRecord` objects from an
    :class:`EventQueue`."""

    def has_queued_work(self) -> bool:
        return self.queue.pending_records > 0

    def poll(self, cycle: int) -> int:
        if self.queue.pending_records == 0:
            return 0
        record = self.queue.pop_record()
        self.trace(cycle, "handler_dispatch", event=record.event_type.name,
                   address=record.address)
        return self.handle(record, cycle)

    def handle(self, record: EventRecord, cycle: int) -> int:
        raise NotImplementedError


class MessageNativeHandler(NativeHandler):
    """A native handler that consumes messages from a register-mapped queue.

    Message word layout is ``[DIP, address, body...]``; the body length is a
    function of the DIP, supplied by the ``body_lengths`` table.
    """

    _STATE = NativeHandler._STATE + state_fields("unknown_dips")

    def __init__(self, node, queue: HardwareQueue, body_lengths: Dict[int, int], name: str):
        super().__init__(node, queue, name)
        self.body_lengths = body_lengths
        self.unknown_dips = 0

    def has_queued_work(self) -> bool:
        # A partially-streamed message keeps the node polling, exactly as the
        # naive loop does, until the remaining words arrive.
        return not self.queue.is_empty

    def poll(self, cycle: int) -> int:
        if self.queue.is_empty:
            return 0
        dip = int(self.queue.peek_word())
        if dip not in self.body_lengths:
            # Unknown message type: drop the DIP word and count it.  This is
            # the native analogue of jumping to an unregistered DIP.
            self.queue.pop_word()
            self.unknown_dips += 1
            return self.dispatch_cost()
        body_length = self.body_lengths[dip]
        if len(self.queue) < 2 + body_length:
            # The message is still streaming in; try again next cycle.
            return 0
        self.queue.pop_word()  # the DIP we peeked
        address = self.queue.pop_word()
        body = [self.queue.pop_word() for _ in range(body_length)]
        self.trace(cycle, "handler_dispatch", dip=dip, address=address, body_words=body_length)
        return self.handle_message(dip, address, body, cycle)

    def handle_message(self, dip: int, address: int, body: List[object], cycle: int) -> int:
        raise NotImplementedError



class SyncStatusFaultHandler(EventNativeHandler):
    """Default handler for the cluster-0 event queue (memory-synchronizing
    faults and -- in remote mode -- unexpected block-status faults).

    A synchronizing load/store whose precondition failed is retried after a
    back-off, so producer/consumer code using the full/empty bits makes
    progress as soon as the producer stores (Section 2's synchronizing memory
    operations).  A block-status fault is delegated to ``on_block_status``
    when a coherence runtime installed one, and is an error otherwise.
    """

    _STATE = EventNativeHandler._STATE + state_fields("retries", ("_deferred", timed()))

    def __init__(self, node, queue: EventQueue,
                 on_block_status: Optional[Callable[[EventRecord, int], int]] = None):
        super().__init__(node, queue, name=f"sync-status-n{node.node_id}")
        self.on_block_status = on_block_status
        self.retries = 0
        self._deferred: List[tuple] = []

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        queued = super().next_event_cycle(cycle)
        if not self._deferred:
            return queued
        retry = min(at for at, _ in self._deferred)
        return retry if queued is None else min(queued, retry)

    def tick(self, node, cycle: int) -> None:
        # Re-submit deferred (backed-off) retries whose time has come, then
        # process the queue as usual.
        if self._deferred:
            due = [entry for entry in self._deferred if entry[0] <= cycle]
            self._deferred = [entry for entry in self._deferred if entry[0] > cycle]
            for _, request in due:
                self.node.memory.submit(request, cycle)
                self.retries += 1
        super().tick(node, cycle)

    def handle(self, record: EventRecord, cycle: int) -> int:
        if record.event_type is EventType.SYNC_FAULT:
            request = record.extra.get("request")
            if request is None:
                return self.dispatch_cost()
            retry_at = cycle + SYNC_FAULT_RETRY_CYCLES
            self._deferred.append((retry_at, request))
            self.trace(cycle, "handler_sync_retry", address=record.address, retry_at=retry_at)
            return self.dispatch_cost(words_touched=1)
        if record.event_type is EventType.BLOCK_STATUS:
            if self.on_block_status is not None:
                return self.on_block_status(record, cycle)
            raise RuntimeError(
                f"node {self.node.node_id}: block-status fault at {record.address:#x} "
                f"but no coherence runtime is installed (shared_memory_mode='remote')"
            )
        raise RuntimeError(f"unexpected event {record} on the sync/status queue")
