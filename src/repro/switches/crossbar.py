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

from repro.core.values import decode_value, encode_value
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


class Crossbar:
    """The C-Switch: one output port per cluster."""

    def __init__(self, name: str = "crossbar"):
        self.name = name
        self._queues: Dict[int, Deque[Transfer]] = {
            dest: deque() for dest in range(NUM_CLUSTERS)
        }
        self._broadcast_queue: Deque[Transfer] = deque()
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
            self._broadcast_queue.append(transfer)
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
        broadcasts = self._broadcast_queue
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
        for transfer in self._broadcast_queue:
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
        for transfer in self._broadcast_queue:
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

    def state_dict(self) -> dict:
        def encode_queue(queue):
            return [
                {"dest": t.dest, "payload": encode_value(t.payload),
                 "ready_cycle": t.ready_cycle}
                for t in queue
            ]

        return {
            "queues": [[dest, encode_queue(queue)]
                       for dest, queue in self._queues.items()],
            "broadcast": encode_queue(self._broadcast_queue),
            "rr_pointer": self._rr_pointer,
            "transfers_submitted": self.transfers_submitted,
            "transfers_delivered": self.transfers_delivered,
            "contention_stalls": self.contention_stalls,
            "busiest_cycle_transfers": self.busiest_cycle_transfers,
        }

    def load_state_dict(self, state: dict) -> None:
        def decode_queue(encoded):
            return deque(
                Transfer(dest=t["dest"], payload=decode_value(t["payload"]),
                         ready_cycle=t["ready_cycle"])
                for t in encoded
            )

        for dest, queue in state["queues"]:
            self._queues[dest] = decode_queue(queue)
        self._broadcast_queue = decode_queue(state["broadcast"])
        self._num_pending = (
            sum(len(q) for q in self._queues.values()) + len(self._broadcast_queue)
        )
        self._rr_pointer = state["rr_pointer"]
        self.transfers_submitted = state["transfers_submitted"]
        self.transfers_delivered = state["transfers_delivered"]
        self.contention_stalls = state["contention_stalls"]
        self.busiest_cycle_transfers = state["busiest_cycle_transfers"]

    # -- introspection -----------------------------------------------------------

    @property
    def pending(self) -> int:
        return self._num_pending

    def __repr__(self) -> str:
        return f"Crossbar({self.name!r}, {NUM_CLUSTERS} outputs, {self.pending} pending)"
