"""Software DRAM caching and coherence with block-status bits (Section 4.3).

"To reduce overall latency and improve bandwidth utilization, each M-Machine
node may use its local memory to cache data from remote nodes. ... When a
memory reference occurs, the block status bits corresponding to the global
virtual address are checked in hardware.  If the attempted operation is not
allowed by the state of the block, a software trap called a block status
fault occurs. ... The block status handler sends a message to the home node,
which can be determined using the GTLB, requesting the cache block containing
the data.  The home node logs the requesting node in a software managed
directory and sends the block back.  When the block is received, the data is
written to memory and the block status bits are marked valid."

This module implements that policy -- extended with the invalidation needed
to keep a single writer, which the paper leaves to "a variety of coherence
policies and protocols" implementable in the same handlers -- as a set of
native handlers (see :mod:`repro.runtime.native`):

* requester side: the LTLB-miss handler creates a local mapping with INVALID
  blocks for remote pages; the block-status handler sends a read or write
  request to the home node and replays the faulting access when the block
  arrives;
* home side: a software-managed directory per node tracks sharers and the
  exclusive owner of each block; read requests return a READ-ONLY copy,
  write requests invalidate other copies (collecting dirty data) before
  granting a READ/WRITE copy;
* dirty blocks are returned to the home node when invalidated, and writes to
  granted READ/WRITE blocks are marked DIRTY automatically by the hardware
  block-status check, exactly as in the paper.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.component import StatefulComponent
from repro.core.values import INT_SET, decode_value, encode_value, pairs, record_codec, state_fields
from repro.events.records import EventRecord
from repro.memory.page_table import BLOCK_SIZE_WORDS, BlockStatus, block_base, page_of
from repro.memory.requests import MemRequest
from repro.runtime.layout import (
    DIP_BLOCK_DATA,
    DIP_BLOCK_READ_REQ,
    DIP_BLOCK_WRITE_REQ,
    DIP_INVALIDATE,
    DIP_INVAL_ACK,
)
from repro.runtime.native import (
    EventNativeHandler,
    MessageNativeHandler,
    SyncStatusFaultHandler,
)

#: Body lengths (in words) of the coherence protocol messages.
COHERENCE_BODY_LENGTHS_P0 = {
    DIP_BLOCK_READ_REQ: 1,          # [requester]
    DIP_BLOCK_WRITE_REQ: 1,         # [requester]
    DIP_INVALIDATE: 1,              # [home]
}
COHERENCE_BODY_LENGTHS_P1 = {
    DIP_BLOCK_DATA: 1 + BLOCK_SIZE_WORDS,       # [mode, 8 data words]
    DIP_INVAL_ACK: 2 + BLOCK_SIZE_WORDS,        # [sharer, dirty, 8 data words]
}

#: BLOCK_DATA modes.
MODE_READ_ONLY = 0
MODE_READ_WRITE = 1

#: Marker used in place of a node id when the home node itself is the
#: requester of a recall.
HOME_REQUESTER = -1


@dataclass
class DirectoryEntry:
    """Home-node bookkeeping for one block."""

    sharers: set = field(default_factory=set)
    owner: Optional[int] = None
    busy: bool = False
    #: Requests queued while a grant is in progress: (requester, mode, requests)
    queue: List[Tuple[int, int, List[MemRequest]]] = field(default_factory=list)


@dataclass
class PendingGrant:
    """An in-progress grant at the home node, waiting for invalidation acks."""

    requester: int
    mode: int
    acks_needed: int
    #: Faulting requests to replay locally when the requester is the home node.
    local_requests: List[MemRequest] = field(default_factory=list)


@dataclass
class PendingFetch:
    """An in-progress block fetch at a requesting node."""

    mode: int
    requests: List[MemRequest] = field(default_factory=list)


#: How a snapshot writes the per-node ``{block_va: record}`` tables of the
#: three record kinds: ``[node_id, [[block_va, record dict], ...]]`` pairs.
#: A directory entry's sharers are a sorted list on disk, and each queued
#: request a ``[requester, mode, [request, ...]]`` list.
_DIRECTORIES = pairs(pairs(record_codec(DirectoryEntry, {
    "sharers": INT_SET,
    "queue": (lambda queue: [[requester, mode, encode_value(requests)]
                             for requester, mode, requests in queue],
              lambda queue: [(requester, mode, decode_value(requests))
                             for requester, mode, requests in queue]),
})))
_GRANTS = pairs(pairs(record_codec(PendingGrant)))
_FETCHES = pairs(pairs(record_codec(PendingFetch)))


class CoherenceRuntime(StatefulComponent):
    """Machine-wide state of the coherence protocol (directories and pending
    operations) plus construction of the per-node native handlers."""

    _STATE = state_fields(
        ("directories", _DIRECTORIES), ("pending_grants", _GRANTS),
        ("pending_fetches", _FETCHES), "block_fetches", "write_upgrades", "invalidations",
        "dirty_writebacks")

    def __init__(self, machine):
        self.machine = machine
        self.directories: Dict[int, Dict[int, DirectoryEntry]] = {
            node.node_id: {} for node in machine.nodes
        }
        self.pending_grants: Dict[int, Dict[int, PendingGrant]] = {
            node.node_id: {} for node in machine.nodes
        }
        self.pending_fetches: Dict[int, Dict[int, PendingFetch]] = {
            node.node_id: {} for node in machine.nodes
        }
        # Statistics
        self.block_fetches = 0
        self.write_upgrades = 0
        self.invalidations = 0
        self.dirty_writebacks = 0

    # ------------------------------------------------------------------ install

    def install(self) -> None:
        for node in self.machine.nodes:
            node.native_handlers.extend([
                CoherentLtlbHandler(node, node.event_queue_ltlb, self),
                SyncStatusFaultHandler(
                    node,
                    node.event_queue_sync,
                    on_block_status=functools.partial(self.requester_fault, node),
                ),
                CoherentRequestHandler(node, node.msg_queue_p0, self),
                CoherentReplyHandler(node, node.msg_queue_p1, self),
            ])

    # ----------------------------------------------------------- shared helpers

    def directory_entry(self, home_id: int, block_va: int) -> DirectoryEntry:
        return self.directories[home_id].setdefault(block_va, DirectoryEntry())

    def send(self, node, cycle: int, dest_node: int, dip: int, address: int,
             body: List[object], priority: int) -> None:
        """Send a protocol message from *node*.  Protocol replies and
        invalidations name their destination node directly (system-level
        physical sends); data words beyond the MC-register limit model the
        packetised system messages the paper mentions."""
        node.net.send(
            cycle=cycle,
            dest_address=address,
            dip=dip,
            body=body,
            priority=priority,
            physical_node=dest_node,
            check_dip=False,
            allow_long=True,
        )

    # --------------------------------------------------------------- home logic

    def home_handle_request(self, home_node, requester: int, mode: int, block_va: int,
                            cycle: int, local_requests: Optional[List[MemRequest]] = None) -> int:
        """Process a read/write request for a block homed at *home_node*.

        Returns the handler cycle cost.  ``requester == HOME_REQUESTER`` (with
        ``local_requests``) means the home node itself faulted on the block.
        """
        entry = self.directory_entry(home_node.node_id, block_va)
        if entry.busy:
            entry.queue.append((requester, mode, list(local_requests or [])))
            return 4
        entry.busy = True
        return self._home_service(home_node, entry, requester, mode, block_va, cycle,
                                  local_requests or [])

    def _home_service(self, home_node, entry: DirectoryEntry, requester: int, mode: int,
                      block_va: int, cycle: int, local_requests: List[MemRequest]) -> int:
        home_id = home_node.node_id
        # Copies that must be invalidated before this request can be granted.
        victims = set()
        if entry.owner is not None and entry.owner != requester:
            victims.add(entry.owner)
        if mode == MODE_READ_WRITE:
            victims |= {s for s in entry.sharers if s not in (requester, home_id)}
            if entry.owner is not None and entry.owner != requester:
                victims.add(entry.owner)
        victims.discard(home_id)
        victims.discard(requester if requester != HOME_REQUESTER else home_id)

        grant = PendingGrant(requester=requester, mode=mode, acks_needed=len(victims),
                             local_requests=local_requests)
        self.pending_grants[home_id][block_va] = grant

        cost = 8
        for victim in sorted(victims):
            self.invalidations += 1
            self.send(home_node, cycle, victim, DIP_INVALIDATE, block_va, [home_id], priority=0)
            cost += 2

        if grant.acks_needed == 0:
            cost += self._home_grant(home_node, block_va, cycle)
        return cost

    def _home_grant(self, home_node, block_va: int, cycle: int) -> int:
        """All invalidations are complete: hand the block to the requester."""
        home_id = home_node.node_id
        grant = self.pending_grants[home_id].pop(block_va)
        entry = self.directory_entry(home_id, block_va)
        cost = 4 + BLOCK_SIZE_WORDS

        if grant.requester == HOME_REQUESTER:
            # The home node itself reclaims the block.
            status = BlockStatus.READ_WRITE if grant.mode == MODE_READ_WRITE else BlockStatus.READ_ONLY
            home_node.memory.set_block_status(block_va, status)
            entry.owner = None
            entry.sharers = {home_id}
            for request in grant.local_requests:
                home_node.memory.submit(request, cycle + cost)
        else:
            data = home_node.memory.read_block_virtual(block_va)
            self.send(home_node, cycle, grant.requester, DIP_BLOCK_DATA, block_va,
                      [grant.mode] + data, priority=1)
            self.block_fetches += 1
            if grant.mode == MODE_READ_WRITE:
                self.write_upgrades += 1
                entry.owner = grant.requester
                entry.sharers = {grant.requester}
                # The home's copy is stale once a remote writer exists.
                home_node.memory.invalidate_block(block_va)
                home_node.memory.set_block_status(block_va, BlockStatus.INVALID)
            else:
                entry.owner = None
                entry.sharers |= {grant.requester, home_id}
                # Downgrade the home's own copy so its future writes fault and
                # go through the protocol.
                if home_node.memory.get_block_status(block_va) in (
                    int(BlockStatus.READ_WRITE), int(BlockStatus.DIRTY)
                ):
                    home_node.memory.set_block_status(block_va, BlockStatus.READ_ONLY)

        entry.busy = False
        if entry.queue:
            requester, mode, local_requests = entry.queue.pop(0)
            cost += self.home_handle_request(home_node, requester, mode, block_va,
                                             cycle + cost, local_requests)
        return cost

    def home_handle_inval_ack(self, home_node, block_va: int, sharer: int, dirty: bool,
                              data: List[object], cycle: int) -> int:
        home_id = home_node.node_id
        entry = self.directory_entry(home_id, block_va)
        entry.sharers.discard(sharer)
        if entry.owner == sharer:
            entry.owner = None
        cost = 4
        if dirty:
            self.dirty_writebacks += 1
            home_node.memory.write_block_virtual(block_va, data)
            cost += BLOCK_SIZE_WORDS
        grant = self.pending_grants[home_id].get(block_va)
        if grant is not None:
            grant.acks_needed -= 1
            if grant.acks_needed <= 0:
                cost += self._home_grant(home_node, block_va, cycle + cost)
        return cost

    # ----------------------------------------------------------- requester logic

    def requester_fault(self, node, record: EventRecord, cycle: int) -> int:
        """Handle a block-status fault at a requesting node."""
        block_va = block_base(record.address)
        mode = MODE_READ_WRITE if record.is_store else MODE_READ_ONLY
        request = record.extra.get("request")
        home_id = node.gtlb_node_of(record.address)
        if home_id < 0:
            raise RuntimeError(f"block-status fault for unmapped address {record.address:#x}")

        if home_id == node.node_id:
            # The home node faulted on its own block (it was recalled or
            # downgraded): run the directory logic directly.
            return self.home_handle_request(
                node, HOME_REQUESTER, mode, block_va, cycle,
                local_requests=[request] if request is not None else [],
            )

        pending = self.pending_fetches[node.node_id].get(block_va)
        if pending is not None:
            if request is not None:
                pending.requests.append(request)
            # A write that finds a read fetch outstanding does not upgrade
            # it; the home will see a second (write) request once the first
            # completes and this access faults again, which keeps the
            # protocol simple and correct.
            return 4

        self.pending_fetches[node.node_id][block_va] = PendingFetch(
            mode=mode, requests=[request] if request is not None else []
        )
        dip = DIP_BLOCK_WRITE_REQ if mode == MODE_READ_WRITE else DIP_BLOCK_READ_REQ
        self.send(node, cycle, home_id, dip, block_va, [node.node_id], priority=0)
        return 10

    def requester_block_data(self, node, block_va: int, mode: int, data: List[object],
                             cycle: int) -> int:
        """A requested block arrived: install it and replay the faulting
        accesses."""
        pending = self.pending_fetches[node.node_id].pop(block_va, None)
        node.memory.write_block_virtual(block_va, data)
        status = BlockStatus.READ_WRITE if mode == MODE_READ_WRITE else BlockStatus.READ_ONLY
        node.memory.set_block_status(block_va, status)
        cost = 6 + BLOCK_SIZE_WORDS
        if pending is not None:
            for request in pending.requests:
                node.memory.submit(request, cycle + cost)
        return cost

    def holder_invalidate(self, node, block_va: int, home_id: int, cycle: int) -> int:
        """This node holds a copy the home wants back: write back if dirty,
        invalidate, and acknowledge."""
        status = node.memory.get_block_status(block_va)
        dirty = status == int(BlockStatus.DIRTY)
        data = node.memory.read_block_virtual(block_va) if dirty else [0] * BLOCK_SIZE_WORDS
        node.memory.invalidate_block(block_va)
        node.memory.set_block_status(block_va, BlockStatus.INVALID)
        self.send(node, cycle, home_id, DIP_INVAL_ACK, block_va,
                  [node.node_id, int(dirty)] + data, priority=1)
        return 8 + (BLOCK_SIZE_WORDS if dirty else 0)

    # ------------------------------------------------------------------ queries

    def stats(self) -> dict:
        return {
            "block_fetches": self.block_fetches,
            "write_upgrades": self.write_upgrades,
            "invalidations": self.invalidations,
            "dirty_writebacks": self.dirty_writebacks,
        }


class CoherentLtlbHandler(EventNativeHandler):
    """LTLB-miss handler of the coherent runtime.

    Local pages are simply (re)installed in the LTLB.  Remote pages get a
    fresh local mapping whose blocks are all INVALID, so the replayed access
    immediately takes a block-status fault and enters the coherence protocol
    -- "If the virtual page containing the block is not mapped to a local
    physical page, a new page table entry is created and only the newly
    arrived block is marked valid" (Section 4.3).
    """

    _STATE = EventNativeHandler._STATE + state_fields("remote_pages_mapped")

    def __init__(self, node, queue, runtime: CoherenceRuntime):
        super().__init__(node, queue, name=f"coherent-ltlb-n{node.node_id}")
        self.runtime = runtime
        self.remote_pages_mapped = 0

    def handle(self, record: EventRecord, cycle: int) -> int:
        node = self.node
        request = record.extra.get("request")
        page = page_of(record.address)
        entry = node.page_table.lookup_page(page)
        cost = self.dispatch_cost(words_touched=2)
        if entry is not None:
            node.ltlb.insert(entry)
        else:
            home_id = node.gtlb_node_of(record.address)
            if home_id < 0:
                raise RuntimeError(
                    f"LTLB miss for address {record.address:#x} not mapped by any page-group"
                )
            if home_id == node.node_id:
                raise RuntimeError(
                    f"address {record.address:#x} is homed on node {home_id} but has no "
                    f"local page-table entry"
                )
            node.map_page(page, writable=True, block_status=BlockStatus.INVALID,
                          preload_ltlb=True)
            self.remote_pages_mapped += 1
            cost += 6
        if request is not None:
            node.memory.submit(request, cycle + cost)
        return cost



class CoherentRequestHandler(MessageNativeHandler):
    """Priority-0 protocol messages: block requests arriving at the home node
    and invalidations arriving at sharers."""

    def __init__(self, node, queue, runtime: CoherenceRuntime):
        super().__init__(node, queue, COHERENCE_BODY_LENGTHS_P0,
                         name=f"coherent-req-n{node.node_id}")
        self.runtime = runtime

    def handle_message(self, dip: int, address: int, body: List[object], cycle: int) -> int:
        if dip == DIP_BLOCK_READ_REQ:
            return self.runtime.home_handle_request(
                self.node, int(body[0]), MODE_READ_ONLY, block_base(address), cycle
            )
        if dip == DIP_BLOCK_WRITE_REQ:
            return self.runtime.home_handle_request(
                self.node, int(body[0]), MODE_READ_WRITE, block_base(address), cycle
            )
        if dip == DIP_INVALIDATE:
            return self.runtime.holder_invalidate(
                self.node, block_base(address), int(body[0]), cycle
            )
        raise RuntimeError(f"unexpected priority-0 coherence DIP {dip:#x}")


class CoherentReplyHandler(MessageNativeHandler):
    """Priority-1 protocol messages: block data arriving at a requester and
    invalidation acknowledgements arriving at the home node."""

    def __init__(self, node, queue, runtime: CoherenceRuntime):
        super().__init__(node, queue, COHERENCE_BODY_LENGTHS_P1,
                         name=f"coherent-reply-n{node.node_id}")
        self.runtime = runtime

    def handle_message(self, dip: int, address: int, body: List[object], cycle: int) -> int:
        if dip == DIP_BLOCK_DATA:
            mode = int(body[0])
            data = list(body[1:1 + BLOCK_SIZE_WORDS])
            return self.runtime.requester_block_data(self.node, block_base(address), mode,
                                                     data, cycle)
        if dip == DIP_INVAL_ACK:
            sharer = int(body[0])
            dirty = bool(body[1])
            data = list(body[2:2 + BLOCK_SIZE_WORDS])
            return self.runtime.home_handle_inval_ack(self.node, block_base(address), sharer,
                                                      dirty, data, cycle)
        raise RuntimeError(f"unexpected priority-1 coherence DIP {dip:#x}")
