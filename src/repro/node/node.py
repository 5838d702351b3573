"""One M-Machine node: a MAP chip plus its local SDRAM.

The node is the integration point of the simulator.  It owns the four
execution clusters, the C-Switch and M-Switch, the memory system, the
asynchronous event queues, the per-cluster synchronous exception queues, the
two register-mapped message queues, the GTLB and the network interface, and
it drives them in a fixed phase order each cycle:

1. deliver C-Switch transfers (register writes become visible),
2. apply each cluster's local result writebacks,
3. enqueue asynchronous events whose formatting delay has elapsed,
4. advance the memory system and forward its responses to the C-Switch,
5. run any native (Python) runtime handlers attached to the node,
6. let each cluster's synchronization stage issue one instruction,
7. advance the network interface (retransmission of returned messages).

Because writebacks and deliveries precede issue, result latencies observed by
dependent instructions match the unit and switch latencies exactly.

A phase with nothing queued is skipped: each phase first tests the
container its component's method would test (the switch's queued
transfers, the writeback lists, the pending event records, the memory
pipeline's queues, a native handler's bound queue and deferred retries, the
retransmit list) and calls the method only when it holds something.  A call
on an empty container would change neither state nor statistics
(:mod:`repro.core.component`, rule 2), so skipping it is exact.  The order
of the phases is unchanged, and the C-Switch's arbitration pointer still
rotates every cycle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster, RegWrite
from repro.core.config import (
    EVENT_CLUSTER_LTLB,
    EVENT_CLUSTER_MSG_P0,
    EVENT_CLUSTER_MSG_P1,
    EVENT_CLUSTER_SYNC_STATUS,
    EVENT_SLOT,
    EXCEPTION_SLOT,
    MachineConfig,
)
from repro.core.values import SnapshotError, decode_value, encode_value
from repro.events.queue import EventQueue, HardwareQueue
from repro.events.records import EventRecord, EventType
from repro.isa.program import Program
from repro.isa.registers import NUM_CLUSTERS, unpack_regspec
from repro.memory.cache import InterleavedCache
from repro.memory.ltlb import Ltlb
from repro.memory.memory_system import MemorySystem
from repro.memory.page_table import (
    BLOCKS_PER_PAGE,
    BlockStatus,
    LocalPageTable,
    LptEntry,
    LPT_ENTRIES,
    LPT_ENTRY_WORDS,
    PAGE_SIZE_WORDS,
)
from repro.memory.requests import MemRequest, _request_ids
from repro.memory.sdram import SDRAM_SIZE_WORDS, Sdram
from repro.network.gtlb import GlobalDestinationTable, Gtlb
from repro.network.interface import NetworkInterface
from repro.network.mesh import MeshNetwork, coords_to_id
from repro.network.message import Message
from repro.switches.crossbar import BROADCAST, Crossbar

#: Capacity of each asynchronous event queue, in records.
EVENT_QUEUE_RECORDS = 64
#: Capacity of each per-cluster synchronous-exception queue, in records.
EXCEPTION_QUEUE_RECORDS = 16
#: Cycles a memory request spends crossing the M-Switch.
MSWITCH_LATENCY = 1


class Node:
    """One node (MAP chip + SDRAM) of the M-Machine."""

    def __init__(
        self,
        node_id: int,
        coords: Tuple[int, int, int],
        config: MachineConfig,
        mesh: MeshNetwork,
        gdt: GlobalDestinationTable,
        tracer=None,
        request_ids=None,
        message_ids=None,
    ):
        self.node_id = node_id
        self.coords = coords
        self.config = config
        self.mesh = mesh
        self.tracer = tracer
        self.protection_enabled = config.runtime.protection_enabled
        #: Memory-request id allocator, shared machine-wide so numbering is
        #: per-machine deterministic (falls back to the module source for
        #: nodes built standalone in tests).
        self.request_ids = _request_ids if request_ids is None else request_ids

        network_config = config.network

        # --- memory subsystem -------------------------------------------------
        self.sdram = Sdram(name=f"sdram{node_id}")
        self.cache = InterleavedCache(name=f"cache{node_id}")
        self.ltlb = Ltlb(name=f"ltlb{node_id}")
        self.page_table = LocalPageTable()
        #: Physical word address of the memory-resident LPT image (at the top
        #: of the node's SDRAM); the assembly LTLB-miss handler walks it with
        #: physical loads.
        self.lpt_phys_base = SDRAM_SIZE_WORDS - LPT_ENTRIES * LPT_ENTRY_WORDS
        self.page_table.attach_writeback(self._write_lpt_image)
        self.memory = MemorySystem(
            node_id,
            self.cache,
            self.ltlb,
            self.page_table,
            self.sdram,
            event_sink=self.schedule_event,
            tracer=tracer,
        )

        # --- queues -----------------------------------------------------------
        self.event_queue_sync = EventQueue(EVENT_QUEUE_RECORDS, name=f"n{node_id}-evq-sync")
        self.event_queue_ltlb = EventQueue(EVENT_QUEUE_RECORDS, name=f"n{node_id}-evq-ltlb")
        self.msg_queue_p0 = HardwareQueue(network_config.message_queue_words,
                                          name=f"n{node_id}-msgq-p0")
        self.msg_queue_p1 = HardwareQueue(network_config.message_queue_words,
                                          name=f"n{node_id}-msgq-p1")
        self.exception_queues = [
            EventQueue(EXCEPTION_QUEUE_RECORDS, name=f"n{node_id}-excq-c{c}")
            for c in range(NUM_CLUSTERS)
        ]
        self._pending_events: List[Tuple[int, EventRecord]] = []

        # --- network ------------------------------------------------------------
        self.gtlb = Gtlb(gdt, name=f"gtlb{node_id}")
        self.net = NetworkInterface(
            node_id,
            network_config,
            mesh,
            self.gtlb,
            self.msg_queue_p0,
            self.msg_queue_p1,
            tracer=tracer,
            message_ids=message_ids,
        )

        # --- execution ------------------------------------------------------------
        self.cswitch = Crossbar(name=f"n{node_id}-cswitch")
        self.clusters = [Cluster(index, self, config.cluster) for index in range(NUM_CLUSTERS)]

        #: Native (Python) runtime handlers attached to this node; each is an
        #: object with ``tick(node, cycle)``.
        self.native_handlers: List[object] = []

        # --- physical memory allocation -------------------------------------------
        self._next_frame = 0
        self._max_frames = self.lpt_phys_base // PAGE_SIZE_WORDS

        # Statistics
        self.events_enqueued = 0
        self.instructions_last_cycle = 0

    # ------------------------------------------------------------------- tracing

    def trace(self, cycle: int, category: str, **info) -> None:
        if self.tracer is not None:
            self.tracer.record(cycle, self.node_id, category, **info)

    # ------------------------------------------------------------------- LPT image

    def _write_lpt_image(self, slot: int, words: List[int]) -> None:
        self.sdram.write_block(self.lpt_phys_base + slot * LPT_ENTRY_WORDS, words)

    # -------------------------------------------------------------- frame allocation

    def allocate_frame(self) -> int:
        if self._next_frame >= self._max_frames:
            raise MemoryError(f"node {self.node_id} is out of physical page frames")
        frame = self._next_frame
        self._next_frame += 1
        return frame

    def map_page(
        self,
        virtual_page: int,
        frame: Optional[int] = None,
        writable: bool = True,
        block_status: BlockStatus = BlockStatus.READ_WRITE,
        preload_ltlb: bool = True,
    ) -> LptEntry:
        """Create a local mapping for *virtual_page* (loader / runtime API)."""
        if frame is None:
            frame = self.allocate_frame()
        entry = LptEntry(
            virtual_page=virtual_page,
            physical_frame=frame,
            writable=writable,
            block_status=[block_status] * BLOCKS_PER_PAGE,
        )
        self.page_table.insert(entry)
        if preload_ltlb:
            self.ltlb.insert(entry)
        return entry

    # ------------------------------------------------------------------ memory API

    def write_word(self, address: int, value, sync_bit: Optional[int] = None) -> None:
        self.memory.debug_write(address, value, sync_bit)

    def read_word(self, address: int):
        return self.memory.debug_read(address)

    # ---------------------------------------------------------------- thread loading

    def load_hthread(
        self,
        slot: int,
        cluster: int,
        program: Program,
        registers: Optional[dict] = None,
        entry: Optional[str] = None,
    ):
        """Load a program into one H-Thread (one slot on one cluster)."""
        return self.clusters[cluster].load_program(slot, program, registers, entry)

    def load_vthread(
        self,
        slot: int,
        programs: Dict[int, Program],
        registers: Optional[Dict[int, dict]] = None,
        entries: Optional[Dict[int, str]] = None,
    ) -> None:
        """Load a V-Thread: one program per cluster (missing clusters stay idle)."""
        registers = registers or {}
        entries = entries or {}
        for cluster, program in programs.items():
            self.load_hthread(slot, cluster, program, registers.get(cluster), entries.get(cluster))

    def context(self, slot: int, cluster: int):
        return self.clusters[cluster].context(slot)

    # -------------------------------------------------------- cluster-facing services

    def queue_for(self, cluster_id: int, slot: int, name: str) -> Optional[HardwareQueue]:
        """The hardware queue behind the ``net``/``evq`` register for a given
        H-Thread, or None if that H-Thread has no such queue (Section 3.3)."""
        if name == "net":
            if slot != EVENT_SLOT:
                return None
            if cluster_id == EVENT_CLUSTER_MSG_P0:
                return self.msg_queue_p0
            if cluster_id == EVENT_CLUSTER_MSG_P1:
                return self.msg_queue_p1
            return None
        if name == "evq":
            if slot == EVENT_SLOT:
                if cluster_id == EVENT_CLUSTER_SYNC_STATUS:
                    return self.event_queue_sync
                if cluster_id == EVENT_CLUSTER_LTLB:
                    return self.event_queue_ltlb
                return None
            if slot == EXCEPTION_SLOT:
                return self.exception_queues[cluster_id]
        return None

    def submit_memory_request(self, request: MemRequest, cycle: int) -> None:
        self.memory.submit(request, cycle + MSWITCH_LATENCY)

    def can_send(self, priority: int) -> bool:
        return self.net.can_send(priority)

    def send_message(
        self,
        cycle: int,
        cluster: int,
        vthread: int,
        dest_address,
        dip: int,
        body: List[object],
        priority: int,
        physical_node: Optional[int],
    ) -> Message:
        message = self.net.send(
            cycle=cycle,
            dest_address=dest_address,
            dip=dip,
            body=body,
            priority=priority,
            physical_node=physical_node,
            check_dip=self.protection_enabled and vthread not in (EVENT_SLOT, EXCEPTION_SLOT),
        )
        self.trace(cycle, "send", cluster=cluster, slot=vthread, msg=message.msg_id,
                   dest=message.dest_node, priority=priority)
        return message

    def cswitch_register_write(self, dest_cluster: int, write: RegWrite, cycle: int) -> None:
        self.cswitch.submit(dest_cluster, write, cycle)

    def cswitch_broadcast(self, write: RegWrite, cycle: int) -> None:
        self.cswitch.submit(BROADCAST, write, cycle)

    def xregwr(self, spec: int, value, cycle: int) -> None:
        """Privileged write of an arbitrary thread register (used by the
        software runtime to deliver remote-load results, Section 4.2)."""
        vthread, cluster, ref = unpack_regspec(int(spec))
        self.cswitch.submit(
            cluster,
            RegWrite(vthread=vthread, ref=ref, value=value, clear_pending=True, origin="xregwr"),
            cycle,
        )
        self.trace(cycle, "xregwr", slot=vthread, cluster=cluster, reg=str(ref))

    def gtlb_node_of(self, address: int) -> int:
        coords = self.gtlb.node_coords_of(address)
        if coords is None:
            return -1
        return coords_to_id(coords, self.mesh.shape)

    def post_exception(self, cluster_id: int, record: EventRecord, cycle: int) -> None:
        if not self.exception_queues[cluster_id].push_record(record):
            raise RuntimeError(
                f"node {self.node_id}: exception queue of cluster {cluster_id} overflowed"
            )

    # -------------------------------------------------------------------- events

    def schedule_event(self, record: EventRecord, at_cycle: int) -> None:
        """Called by the memory system: the event record becomes visible in
        its hardware queue at *at_cycle*."""
        self._pending_events.append((at_cycle, record))

    def _enqueue_due_events(self, cycle: int) -> None:
        due = [entry for entry in self._pending_events if entry[0] <= cycle]
        if not due:
            return
        self._pending_events = [entry for entry in self._pending_events if entry[0] > cycle]
        for at_cycle, record in sorted(due, key=lambda entry: entry[0]):
            queue = (
                self.event_queue_ltlb
                if record.event_type is EventType.LTLB_MISS
                else self.event_queue_sync
            )
            if not queue.push_record(record):
                raise RuntimeError(
                    f"node {self.node_id}: event queue {queue.name!r} overflowed "
                    f"(the M-Machine sizes event queues so this cannot happen)"
                )
            self.events_enqueued += 1
            self.trace(cycle, "event_enqueue", type=record.event_type.name,
                       address=record.address, queue=queue.name)

    # ---------------------------------------------------------------------- tick

    def tick(self, cycle: int) -> int:
        """Advance the node one cycle; returns the number of instructions
        issued (used for quiescence detection)."""
        # 1. C-Switch deliveries; the arbitration pointer rotates either way.
        cswitch = self.cswitch
        if cswitch._num_pending:
            for dest_cluster, payload in cswitch.deliver(cycle):
                self.clusters[dest_cluster].receive(payload, cycle)
                if isinstance(payload, RegWrite) and payload.origin:
                    self.trace(cycle, "reg_write", cluster=dest_cluster, slot=payload.vthread,
                               reg=str(payload.ref), origin=payload.origin)
        else:
            cswitch.advance_idle(1)

        # 2. Local writebacks.
        for cluster in self.clusters:
            if cluster._writebacks:
                cluster.apply_writebacks(cycle)

        # 3. Events whose hardware formatting delay has elapsed.
        if self._pending_events:
            self._enqueue_due_events(cycle)

        # 4. Memory system (``memory.busy``, tested in line); its responses
        # return over the C-Switch.
        memory = self.memory
        if memory._pending or memory._mif_queue or any(memory._bank_queues):
            for response in memory.tick(cycle):
                if response.dest is not None and not response.faulted:
                    cswitch.submit(
                        response.cluster,
                        RegWrite(
                            vthread=response.vthread,
                            ref=response.dest,
                            value=response.value,
                            clear_pending=True,
                            origin="memory",
                        ),
                        cycle,
                    )
                    self.trace(cycle, "mem_response", req=response.request.req_id,
                               cluster=response.cluster, slot=response.vthread)

        # 5. Native runtime handlers with a queued item or a deferred retry.
        for handler in self.native_handlers:
            if handler.queue._words or handler._deferred:
                handler.tick(self, cycle)

        # 6. Issue.
        issued = 0
        for cluster in self.clusters:
            if cluster.issue(cycle):
                issued += 1
        self.instructions_last_cycle = issued

        # 7. Network interface housekeeping.
        net = self.net
        if net._retransmit:
            net.tick(cycle)
        return issued

    # ------------------------------------------------------------------ liveness

    @property
    def has_pending_work(self) -> bool:
        """True when anything inside the node is still in flight (used by the
        machine's quiescence detector together with issue counts).  Every
        native handler exposes an explicit ``busy`` property
        (:class:`~repro.runtime.native.NativeHandler`).  A cluster writeback
        counts too: ``div``, ``mod`` and ``fdiv`` results land later than the
        quiescence settle window."""
        if (self.memory.busy or self._pending_events or self.cswitch._num_pending
                or self.msg_queue_p0._words or self.msg_queue_p1._words
                or self.event_queue_sync._words or self.event_queue_ltlb._words
                or self.net.busy):
            return True
        for handler in self.native_handlers:
            if handler.busy:
                return True
        for cluster in self.clusters:
            if cluster._writebacks:
                return True
        return False

    # ------------------------------------------------------- kernel scheduling
    #
    # The three methods below are the node's half of the event-kernel
    # contract (see repro.core.component): when a tick issues nothing, the
    # kernel asks when the node's internal machinery next does anything by
    # itself (next_event_cycle), whether the issue stage could make progress
    # (idle_issue_profile returning None), and -- once the node has slept --
    # how to replay the per-cycle idle statistics of the naive loop in bulk
    # (account_idle_cycles).

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest cycle after *cycle* at which this node's state changes
        without external input (a mesh delivery), or None if it never will.

        Only components whose containers hold something are asked, and the
        answer is ``cycle + 1`` as soon as one of them is due by then: work
        that was due in the past but rationed by per-cycle bandwidth limits
        (one delivery per switch port, one bank service per cycle) is due
        again on the very next cycle."""
        soon = cycle + 1
        earliest = None
        cswitch = self.cswitch
        if cswitch._num_pending:
            earliest = cswitch.next_ready_cycle()
            if earliest <= soon:
                return soon
        memory = self.memory
        if memory.busy:
            due = memory.next_event_cycle(cycle)
            if due <= soon:
                return soon
            if earliest is None or due < earliest:
                earliest = due
        for cluster in self.clusters:
            if cluster._writebacks:
                due = cluster.next_writeback_cycle()
                if due <= soon:
                    return soon
                if earliest is None or due < earliest:
                    earliest = due
        if self._pending_events:
            due = min(at_cycle for at_cycle, _ in self._pending_events)
            if due <= soon:
                return soon
            if earliest is None or due < earliest:
                earliest = due
        for handler in self.native_handlers:
            if handler.queue._words or handler._deferred:
                due = handler.next_event_cycle(cycle)
                if due is None:
                    continue
                if due <= soon:
                    return soon
                if earliest is None or due < earliest:
                    earliest = due
        net = self.net
        if net._retransmit:
            due = net.next_event_cycle(cycle)
            if due <= soon:
                return soon
            if earliest is None or due < earliest:
                earliest = due
        return earliest

    def idle_issue_profile(self):
        """One frozen issue-stage profile per cluster, or None if any cluster
        could make progress next cycle (in which case the node must stay
        awake)."""
        profiles = []
        for cluster in self.clusters:
            profile = cluster.idle_profile()
            if profile is None:
                return None
            profiles.append(profile)
        return profiles

    def account_idle_cycles(self, profiles, start_cycle: int, num_cycles: int) -> None:
        """Replay the statistics of *num_cycles* naive no-op ticks at once
        (the node slept through them; its state is provably unchanged)."""
        for cluster, profile in zip(self.clusters, profiles):
            cluster.account_idle_cycles(profile, start_cycle, num_cycles)
        # The C-Switch arbitration pointer rotates every cycle, traffic or not.
        self.cswitch.advance_idle(num_cycles)
        self.instructions_last_cycle = 0

    @property
    def user_threads_finished(self) -> bool:
        for cluster in self.clusters:
            if not cluster.user_threads_finished:
                return False
        return True

    # ------------------------------------------------------------------ snapshot
    #
    # The node's half of the repro.snapshot state_dict contract: capture (and
    # restore) every piece of mutable state in construction-independent form.
    # Restore order matters in exactly one place: the page table is loaded
    # before the LTLB so the LTLB re-links the *shared* LptEntry objects, and
    # before the SDRAM so the memory image comes from the snapshot rather
    # than from re-mirroring.

    def state_dict(self) -> dict:
        return {
            "sdram": self.sdram.state_dict(),
            "cache": self.cache.state_dict(),
            "page_table": self.page_table.state_dict(),
            "ltlb": self.ltlb.state_dict(),
            "memory": self.memory.state_dict(),
            "gtlb": self.gtlb.state_dict(),
            "net": self.net.state_dict(),
            "cswitch": self.cswitch.state_dict(),
            "event_queue_sync": self.event_queue_sync.state_dict(),
            "event_queue_ltlb": self.event_queue_ltlb.state_dict(),
            "msg_queue_p0": self.msg_queue_p0.state_dict(),
            "msg_queue_p1": self.msg_queue_p1.state_dict(),
            "exception_queues": [queue.state_dict() for queue in self.exception_queues],
            "pending_events": [[at_cycle, encode_value(record)]
                               for at_cycle, record in self._pending_events],
            "clusters": [cluster.state_dict() for cluster in self.clusters],
            "native_handlers": [handler.state_dict() for handler in self.native_handlers],
            "next_frame": self._next_frame,
            "events_enqueued": self.events_enqueued,
            "instructions_last_cycle": self.instructions_last_cycle,
        }

    def load_state_dict(self, state: dict) -> None:
        self.page_table.load_state_dict(state["page_table"])
        self.ltlb.load_state_dict(state["ltlb"], page_table=self.page_table)
        self.sdram.load_state_dict(state["sdram"])
        self.cache.load_state_dict(state["cache"])
        self.memory.load_state_dict(state["memory"])
        self.gtlb.load_state_dict(state["gtlb"])
        self.net.load_state_dict(state["net"])
        self.cswitch.load_state_dict(state["cswitch"])
        self.event_queue_sync.load_state_dict(state["event_queue_sync"])
        self.event_queue_ltlb.load_state_dict(state["event_queue_ltlb"])
        self.msg_queue_p0.load_state_dict(state["msg_queue_p0"])
        self.msg_queue_p1.load_state_dict(state["msg_queue_p1"])
        for queue, queue_state in zip(self.exception_queues, state["exception_queues"]):
            queue.load_state_dict(queue_state)
        self._pending_events = [(at_cycle, decode_value(record))
                                for at_cycle, record in state["pending_events"]]
        for cluster, cluster_state in zip(self.clusters, state["clusters"]):
            cluster.load_state_dict(cluster_state)
        if len(state["native_handlers"]) != len(self.native_handlers):
            raise SnapshotError(
                f"node {self.node_id}: snapshot has {len(state['native_handlers'])} "
                f"native handlers, machine has {len(self.native_handlers)}"
            )
        for handler, handler_state in zip(self.native_handlers, state["native_handlers"]):
            handler.load_state_dict(handler_state)
        self._next_frame = state["next_frame"]
        self.events_enqueued = state["events_enqueued"]
        self.instructions_last_cycle = state["instructions_last_cycle"]

    # ------------------------------------------------------------------ statistics

    def stats(self) -> dict:
        return {
            "node_id": self.node_id,
            "coords": self.coords,
            "clusters": [cluster.stats() for cluster in self.clusters],
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "hit_rate": self.cache.hit_rate,
                "writebacks": self.cache.writebacks,
            },
            "ltlb": {
                "hits": self.ltlb.hits,
                "misses": self.ltlb.misses,
            },
            "events": self.events_enqueued,
            "messages_sent": self.net.messages_sent,
            "messages_received": self.net.messages_received,
            "sdram_reads": self.sdram.reads,
            "sdram_writes": self.sdram.writes,
        }

    def __repr__(self) -> str:
        return f"Node({self.node_id}, coords={self.coords})"
