"""A cycle-level crossbar switch model.

The model captures the two properties of the MAP switches that matter for
performance: a fixed traversal latency and a bounded number of transfers per
cycle (four for both the M-Switch and C-Switch), with at most one delivery
per destination port per cycle.  Arbitration is FIFO per destination with a
round-robin scan across destinations so no port can starve another.

A transfer destined to :data:`BROADCAST` is delivered to *every* output port
in the same cycle while consuming a single transfer slot; this models the
replicated global condition-code registers, which a single C-Switch transfer
updates on all four clusters (Section 3.1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.values import decode_value, encode_value

#: Destination value meaning "all output ports".
BROADCAST = -1


@dataclass
class Transfer:
    """One payload moving through the switch."""

    dest: int
    payload: object
    #: First cycle at which the transfer is eligible for delivery.
    ready_cycle: int


class Crossbar:
    """A latency/bandwidth-limited crossbar."""

    def __init__(
        self,
        num_outputs: int,
        latency: int = 1,
        max_transfers_per_cycle: int = 4,
        name: str = "crossbar",
    ):
        if num_outputs <= 0:
            raise ValueError("crossbar needs at least one output port")
        if latency < 0:
            raise ValueError("latency cannot be negative")
        self.num_outputs = num_outputs
        self.latency = latency
        self.max_transfers_per_cycle = max_transfers_per_cycle
        self.name = name
        self._queues: Dict[int, Deque[Transfer]] = {
            dest: deque() for dest in range(num_outputs)
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
        if dest != BROADCAST and not 0 <= dest < self.num_outputs:
            raise ValueError(f"{self.name}: destination port {dest} out of range")
        transfer = Transfer(dest=dest, payload=payload, ready_cycle=cycle + self.latency)
        if dest == BROADCAST:
            self._broadcast_queue.append(transfer)
        else:
            self._queues[dest].append(transfer)
        self.transfers_submitted += 1
        self._num_pending += 1

    # -- delivery ----------------------------------------------------------------

    def deliver(self, cycle: int) -> List[Tuple[int, object]]:
        """Deliver up to the per-cycle budget of transfers that are ready.

        Returns a list of ``(output_port, payload)`` pairs; a broadcast
        payload appears once per output port.
        """
        if not self._num_pending:
            # Empty switch: only the arbitration pointer moves.  This is the
            # overwhelmingly common case on compute-bound cycles.
            self._rr_pointer = (self._rr_pointer + 1) % self.num_outputs
            return []

        delivered: List[Tuple[int, object]] = []
        budget = self.max_transfers_per_cycle
        ports_used = set()

        # Broadcasts first: they occupy every output port.
        while budget > 0 and self._broadcast_queue and not ports_used:
            head = self._broadcast_queue[0]
            if head.ready_cycle > cycle:
                break
            self._broadcast_queue.popleft()
            self._num_pending -= 1
            for port in range(self.num_outputs):
                delivered.append((port, head.payload))
                ports_used.add(port)
            budget -= 1
            self.transfers_delivered += 1

        # Unicast transfers, scanning destinations round-robin.
        for scan in range(self.num_outputs):
            if budget <= 0:
                break
            port = (self._rr_pointer + scan) % self.num_outputs
            if port in ports_used:
                continue
            queue = self._queues[port]
            if not queue:
                continue
            head = queue[0]
            if head.ready_cycle > cycle:
                continue
            queue.popleft()
            self._num_pending -= 1
            delivered.append((port, head.payload))
            ports_used.add(port)
            budget -= 1
            self.transfers_delivered += 1

        self._rr_pointer = (self._rr_pointer + 1) % self.num_outputs
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
        already ready but stalled by the per-cycle budget to the next cycle)."""
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
        """Replay the pointer rotation of *cycles* empty :meth:`deliver`
        calls at once (the event kernel skips those calls wholesale; the
        round-robin pointer advances every cycle regardless of traffic, so
        arbitration after a sleep must match the naive loop exactly)."""
        self._rr_pointer = (self._rr_pointer + cycles) % self.num_outputs

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
        return f"Crossbar({self.name!r}, {self.num_outputs} outputs, {self.pending} pending)"
