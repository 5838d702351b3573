"""The C-Switch: a cycle-level model of the MAP's inter-cluster crossbar.

The C-Switch carries register writes between the four clusters and returns
data from the memory system (Section 2).  The model captures what matters
for performance: a fixed traversal latency and one delivery per output port
per cycle, so its bound is its four ports.  Arbitration is FIFO per port,
with a round-robin scan across ports so no port can starve another.

A transfer destined to :data:`BROADCAST` is delivered to *every* output port
in one cycle and so takes the whole cycle; this models the replicated global
condition-code registers, which a single C-Switch transfer updates on all
four clusters (Section 3.1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.component import StatefulComponent
from repro.core.values import SnapshotError, each, pairs, record_codec, state_fields
from repro.isa.registers import NUM_CLUSTERS

#: Destination value meaning "all output ports".
BROADCAST = -1
#: Cycles a transfer spends crossing the C-Switch.
CSWITCH_LATENCY = 1


@dataclass
class Transfer:
    """One payload moving through the switch."""

    dest: int
    payload: object
    #: First cycle at which the transfer is eligible for delivery.
    ready_cycle: int


#: A snapshot writes each queued transfer as a plain dict of its fields.
_TRANSFERS = each(record_codec(Transfer), into=deque)


class Crossbar(StatefulComponent):
    """The C-Switch: one output port per cluster."""

    # The queued-transfer count is derived: the load recounts it.
    _STATE = state_fields(
        ("_queues", pairs(_TRANSFERS)), ("_broadcast", _TRANSFERS),
        "_rr_pointer", "transfers_submitted", "transfers_delivered", "contention_stalls",
        "busiest_cycle_transfers")

    def __init__(self, name: str = "crossbar"):
        self.name = name
        self._queues: Dict[int, Deque[Transfer]] = {
            dest: deque() for dest in range(NUM_CLUSTERS)
        }
        self._broadcast: Deque[Transfer] = deque()
        self._rr_pointer = 0
        #: Queued-transfer count, maintained incrementally so the per-cycle
        #: empty-switch check and the quiescence detector are O(1).
        self._num_pending = 0
        # Statistics
        self.transfers_submitted = 0
        self.transfers_delivered = 0
        self.contention_stalls = 0
        self.busiest_cycle_transfers = 0

    # -- submission --------------------------------------------------------------

    def submit(self, dest: int, payload: object, cycle: int) -> None:
        """Submit a transfer at *cycle*; it becomes deliverable after the
        switch latency."""
        if dest != BROADCAST and not 0 <= dest < NUM_CLUSTERS:
            raise ValueError(f"{self.name}: destination port {dest} out of range")
        transfer = Transfer(dest=dest, payload=payload, ready_cycle=cycle + CSWITCH_LATENCY)
        if dest == BROADCAST:
            self._broadcast.append(transfer)
        else:
            self._queues[dest].append(transfer)
        self.transfers_submitted += 1
        self._num_pending += 1

    # -- delivery ----------------------------------------------------------------

    def deliver(self, cycle: int) -> List[Tuple[int, object]]:
        """Deliver the transfers that are ready.

        A ready broadcast takes every output port; otherwise each port
        delivers its ready head, scanning the ports round-robin.  Returns a
        list of ``(output_port, payload)`` pairs; a broadcast payload appears
        once per output port.  The arbitration pointer advances one step per
        call.  On an empty switch that is all a call does, so a caller that
        finds :attr:`pending` at 0 may call :meth:`advance_idle` instead.
        """
        delivered: List[Tuple[int, object]] = []
        broadcasts = self._broadcast
        if broadcasts and broadcasts[0].ready_cycle <= cycle:
            head = broadcasts.popleft()
            self._num_pending -= 1
            self.transfers_delivered += 1
            delivered = [(port, head.payload) for port in range(NUM_CLUSTERS)]
        else:
            for scan in range(NUM_CLUSTERS):
                port = (self._rr_pointer + scan) % NUM_CLUSTERS
                queue = self._queues[port]
                if queue and queue[0].ready_cycle <= cycle:
                    head = queue.popleft()
                    self._num_pending -= 1
                    self.transfers_delivered += 1
                    delivered.append((port, head.payload))

        self.advance_idle(1)
        waiting = 0
        for queue in self._queues.values():
            for transfer in queue:
                if transfer.ready_cycle <= cycle:
                    waiting += 1
        for transfer in self._broadcast:
            if transfer.ready_cycle <= cycle:
                waiting += 1
        if waiting:
            self.contention_stalls += waiting
        self.busiest_cycle_transfers = max(self.busiest_cycle_transfers, len(delivered))
        return delivered

    # -- kernel scheduling ---------------------------------------------------------

    def next_ready_cycle(self) -> Optional[int]:
        """Earliest ``ready_cycle`` of any queued transfer, or None when the
        switch is empty (SimComponent contract; the caller clamps transfers
        already ready but queued behind another to the next cycle)."""
        ready = None
        for queue in self._queues.values():
            for transfer in queue:
                if ready is None or transfer.ready_cycle < ready:
                    ready = transfer.ready_cycle
        for transfer in self._broadcast:
            if ready is None or transfer.ready_cycle < ready:
                ready = transfer.ready_cycle
        return ready

    def advance_idle(self, cycles: int) -> None:
        """Advance the round-robin pointer by *cycles* steps: the pointer's
        one rotation site.  :meth:`deliver` advances it one step, a node
        whose switch is empty calls this instead of :meth:`deliver`, and the
        event kernel replays a sleep's cycles at once.  The pointer advances
        every cycle regardless of traffic, so arbitration after an empty
        cycle or a sleep matches the naive loop exactly."""
        self._rr_pointer = (self._rr_pointer + cycles) % NUM_CLUSTERS

    # -- snapshot (repro.snapshot state_dict contract) -----------------------------

    def load_state_dict(self, state: dict) -> None:
        ports = [port for port, _ in state["queues"]]
        if ports != list(range(NUM_CLUSTERS)):
            raise SnapshotError(
                f"C-Switch queues must list ports {list(range(NUM_CLUSTERS))}, got {ports!r}")
        super().load_state_dict(state)
        self._num_pending = (
            sum(len(q) for q in self._queues.values()) + len(self._broadcast)
        )

    # -- introspection -----------------------------------------------------------

    @property
    def pending(self) -> int:
        return self._num_pending

    def __repr__(self) -> str:
        return f"Crossbar({self.name!r}, {NUM_CLUSTERS} outputs, {self.pending} pending)"
