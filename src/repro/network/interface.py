"""Per-node network input and output interfaces.

The output interface implements the user-level ``SEND``: destination
translation through the GTLB, the protection checks (a program may only send
to virtual addresses mapped in its address space and only to registered
dispatch instruction pointers), atomic injection, and the sender side of the
return-to-sender throttling protocol (a counter of reserved return-buffer
slots that is decremented on send and incremented when the destination
acknowledges consumption).

The input interface enqueues arriving messages in the register-mapped queue
of the appropriate priority and returns the hardware ACK, or -- when the
queue is full -- returns the message contents to the sender (NACK), which
buffers and retransmits them later (Section 4.1, "Throttling").
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.core.config import NetworkConfig
from repro.core.component import StatefulComponent
from repro.core.values import (
    Codec,
    decode_optional_set,
    encode_optional_set,
    state_fields,
    timed,
)
from repro.events.queue import HardwareQueue
from repro.isa.registers import NUM_MC_REGS
from repro.memory.guarded_pointer import GuardedPointer, ProtectionError
from repro.network.gtlb import Gtlb
from repro.network.mesh import MeshNetwork, coords_to_id
from repro.network.message import Message, MessageKind, _message_ids


class NetworkInterface(StatefulComponent):
    """Combined network input/output interface of one node.

    The message queues themselves snapshot with the node (they are the
    node's register-mapped queues); the interface's own state is its
    credits, the DIP allow-list and the retransmission buffer.
    """

    _STATE = state_fields(
        "credits", ("allowed_dips", Codec(encode_optional_set, decode_optional_set)),
        ("_retransmit", timed()), "messages_sent", "messages_received", "acks_received",
        "nacks_received", "retransmissions", "enqueue_rejections", "send_stall_cycles")

    def __init__(
        self,
        node_id: int,
        config: NetworkConfig,
        mesh: MeshNetwork,
        gtlb: Gtlb,
        queue_p0: HardwareQueue,
        queue_p1: HardwareQueue,
        tracer=None,
        message_ids=None,
    ):
        self.node_id = node_id
        self.config = config
        self.mesh = mesh
        self.gtlb = gtlb
        self.queues = {0: queue_p0, 1: queue_p1}
        self.tracer = tracer
        #: Message-id allocator, shared machine-wide so numbering is
        #: per-machine deterministic (falls back to the module source for
        #: interfaces built standalone in tests).
        self.message_ids = _message_ids if message_ids is None else message_ids
        #: Send credits: return-buffer slots reserved for unacknowledged
        #: priority-0 messages.
        self.credits = config.send_credits
        #: Registered dispatch instruction pointers user sends may target;
        #: ``None`` disables the check (protection off).
        self.allowed_dips: Optional[Set[int]] = None
        #: Returned messages awaiting retransmission: (retry_cycle, message).
        self._retransmit: List[Tuple[int, Message]] = []
        # Statistics
        self.messages_sent = 0
        self.messages_received = 0
        self.acks_received = 0
        self.nacks_received = 0
        self.retransmissions = 0
        self.enqueue_rejections = 0
        self.send_stall_cycles = 0

        mesh.attach(node_id, self.deliver)

    # -- tracing ------------------------------------------------------------------

    def _trace(self, cycle: int, category: str, **info) -> None:
        if self.tracer is not None:
            self.tracer.record(cycle, self.node_id, category, **info)

    # -- output side ----------------------------------------------------------------

    def can_send(self, priority: int) -> bool:
        """Resource check used by the issue stage: a priority-0 SEND needs a
        free return-buffer slot (credit)."""
        if priority == 0:
            return self.credits > 0
        return True

    def register_dips(self, dips) -> None:
        """Restrict the set of user-accessible DIPs (protection)."""
        self.allowed_dips = set(dips)

    def translate_destination(self, dest_address) -> int:
        """GTLB translation of a destination virtual address to a node id."""
        address = dest_address.address if isinstance(dest_address, GuardedPointer) else int(dest_address)
        coords = self.gtlb.node_coords_of(address)
        if coords is None:
            raise ProtectionError(
                f"SEND to virtual address {address:#x} which is not mapped by the GTLB/GDT"
            )
        return coords_to_id(coords, self.mesh.shape)

    def send(
        self,
        cycle: int,
        dest_address,
        dip: int,
        body: List[object],
        priority: int = 0,
        physical_node: Optional[int] = None,
        check_dip: bool = True,
        allow_long: bool = False,
    ) -> Message:
        """Inject a message (the semantics of ``send``/``sendp``).

        Raises :class:`ProtectionError` for GTLB misses or illegal DIPs,
        which the cluster converts into a fault on the sending thread --
        "If an illegal DIP is used, a fault will occur on the sending thread
        before the message is sent" (Section 4.1).

        ``allow_long`` is used by system-level (native) runtime senders whose
        payloads exceed the MC-register limit; such messages model the
        packetised transfers the paper mentions ("larger messages can be
        packetized and reassembled with very low overhead") and still occupy
        the network for their full length.
        """
        if not allow_long and len(body) > NUM_MC_REGS:
            raise ProtectionError(
                f"message body of {len(body)} words exceeds the maximum of "
                f"{NUM_MC_REGS}"
            )
        if physical_node is None:
            dest_node = self.translate_destination(dest_address)
            address_word = (
                dest_address.address
                if isinstance(dest_address, GuardedPointer)
                else int(dest_address)
            )
        else:
            dest_node = int(physical_node)
            address_word = int(dest_address) if dest_address is not None else None
        if (
            check_dip
            and priority == 0
            and self.allowed_dips is not None
            and dip not in self.allowed_dips
        ):
            raise ProtectionError(f"illegal dispatch instruction pointer {dip}")

        if priority == 0:
            if self.credits <= 0:
                raise RuntimeError(
                    "SEND issued without a send credit (the issue stage should have stalled)"
                )
            self.credits -= 1

        message = Message(
            kind=MessageKind.DATA,
            source_node=self.node_id,
            dest_node=dest_node,
            priority=priority,
            dip=dip,
            dest_address=address_word,
            body=list(body),
            send_cycle=cycle,
            msg_id=self.message_ids(),
        )
        deliver_cycle = self.mesh.inject(message, cycle)
        self.messages_sent += 1
        self._trace(cycle, "msg_inject", msg=message.msg_id, dest=dest_node,
                    priority=priority, dip=dip, body_words=len(body),
                    deliver_cycle=deliver_cycle)
        return message

    # -- input side -------------------------------------------------------------------

    def deliver(self, message: Message, cycle: int) -> None:
        """Called by the mesh when a message arrives at this node."""
        if message.kind is MessageKind.ACK:
            self.acks_received += 1
            self.credits = min(self.credits + 1, self.config.send_credits)
            self._trace(cycle, "msg_ack", msg=message.msg_id)
            return
        if message.kind is MessageKind.NACK:
            self.nacks_received += 1
            retry_cycle = cycle + self.config.retransmit_interval
            if message.returned is not None:
                self._retransmit.append((retry_cycle, message.returned))
            self._trace(cycle, "msg_nack", msg=message.msg_id, retry_cycle=retry_cycle)
            return

        self.messages_received += 1
        queue = self.queues[message.priority]
        words = message.queue_words
        if queue.can_accept(len(words)):
            queue.push_words(words)
            self._trace(cycle, "msg_deliver", msg=message.msg_id, priority=message.priority,
                        source=message.source_node, dip=message.dip)
            if message.priority == 0:
                self._reply(message, MessageKind.ACK, cycle)
        else:
            # Return-to-sender: the contents of the original message are sent
            # back to be buffered and retransmitted later.
            self.enqueue_rejections += 1
            self._trace(cycle, "msg_reject", msg=message.msg_id, priority=message.priority)
            self._reply(message, MessageKind.NACK, cycle, returned=message)

    def _reply(self, original: Message, kind: MessageKind, cycle: int,
               returned: Optional[Message] = None) -> None:
        reply = Message(
            kind=kind,
            source_node=self.node_id,
            dest_node=original.source_node,
            priority=1,
            send_cycle=cycle,
            returned=returned,
            msg_id=self.message_ids(),
        )
        self.mesh.inject(reply, cycle)

    # -- housekeeping -------------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """Retransmit returned messages whose back-off has expired."""
        if not self._retransmit:
            return
        ready = [entry for entry in self._retransmit if entry[0] <= cycle]
        if not ready:
            return
        self._retransmit = [entry for entry in self._retransmit if entry[0] > cycle]
        for _, message in ready:
            message.send_cycle = cycle
            self.mesh.inject(message, cycle)
            self.retransmissions += 1
            self._trace(cycle, "msg_retransmit", msg=message.msg_id, dest=message.dest_node)

    @property
    def busy(self) -> bool:
        return bool(self._retransmit)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """SimComponent contract: the earliest retransmission back-off
        expiry, or None when nothing awaits retransmission."""
        if not self._retransmit:
            return None
        return min(retry_cycle for retry_cycle, _ in self._retransmit)
