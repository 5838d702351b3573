"""The per-node memory system.

This module composes the on-chip cache banks, the LTLB, the local page table
and the SDRAM controller into the unit that the four clusters talk to over
the M-Switch, and that raises asynchronous events (LTLB misses, block-status
faults and memory-synchronizing faults) toward the event V-Thread
(Sections 2, 3.3, 4.2 and 4.3 of the paper).

Timing model
------------

All latencies are expressed in MAP cycles and are the constants below:

* a request arrives from the M-Switch one cycle after issue;
* each cache bank accepts one access per cycle (bank conflicts delay younger
  requests); a hit produces its response after ``BANK_LATENCY`` cycles --
  with the M-Switch and C-Switch traversals this yields the paper's
  three-cycle load-hit latency;
* a miss is forwarded to the external memory interface (one outstanding miss
  at a time), which spends ``MIF_LATENCY`` cycles accepting it and
  ``LTLB_LATENCY`` cycles translating, then accesses the SDRAM with its
  page-mode timing and fills the line ``FILL_LATENCY`` cycles after the
  data arrives; loads return the critical word first, stores complete only
  when the whole block has been loaded and merged (which is why the paper's
  write-miss latency exceeds its read-miss latency);
* an LTLB miss or a block-status / synchronization fault aborts the request
  and enqueues an event record ``EVENT_ENQUEUE_LATENCY`` cycles later.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.component import StatefulComponent
from repro.core.values import (
    AS_IS,
    Codec,
    decode_value,
    each,
    encode_value,
    pairs,
    state_fields,
    timed,
)
from repro.events.records import EventRecord, EventType
from repro.isa.registers import pack_regspec
from repro.memory.cache import NUM_BANKS, CacheLine, InterleavedCache
from repro.memory.ltlb import Ltlb
from repro.memory.page_table import (
    BLOCK_SIZE_WORDS,
    BLOCKS_PER_PAGE,
    BlockStatus,
    LocalPageTable,
    LptEntry,
    block_base,
    page_of,
)
from repro.memory.requests import MemRequest, MemResponse
from repro.memory.sdram import CYCLES_PER_WORD, Sdram

#: Cycles a cache bank takes to serve a hit.
BANK_LATENCY = 1
#: Cycles the external memory interface takes to accept a miss.
MIF_LATENCY = 1
#: Cycles of the LTLB lookup on a miss.
LTLB_LATENCY = 1
#: Cycles from the SDRAM's data to the filled line.
FILL_LATENCY = 1
#: Cycles from a fault to its event record entering the event queue.
EVENT_ENQUEUE_LATENCY = 2

#: Flags accepted by the privileged ``ltlbw`` operation.
LTLB_FLAG_WRITABLE = 0x1
#: When set, all blocks of the new mapping start READ_WRITE; when clear they
#: start INVALID (used by the software DRAM-caching layer of Section 4.3).
LTLB_FLAG_BLOCKS_VALID = 0x2


class MemorySystem(StatefulComponent):
    """Cache banks + LTLB + local page table + SDRAM of one node.

    Its snapshot holds the in-flight request state only; the cache, LTLB,
    page table and SDRAM are shared objects the node owns and saves.
    """

    _STATE = state_fields(
        ("_bank_queues", each(timed(deque))), ("_mif_queue", timed(deque)), "_mif_busy_until",
        # A pending response is written beside its ready cycle, which the
        # load reads from the response itself.
        ("_pending", Codec(lambda pending: [[response.ready_cycle, encode_value(response)]
                                            for response in pending],
                           lambda pending: [decode_value(response) for _, response in pending])),
        "requests_accepted", "loads", "stores", "sync_faults", "block_status_faults",
        "ltlb_miss_events", ("store_completions", pairs(AS_IS)))

    def __init__(
        self,
        node_id: int,
        cache: InterleavedCache,
        ltlb: Ltlb,
        page_table: LocalPageTable,
        sdram: Sdram,
        *,
        event_sink: Optional[Callable[[EventRecord, int], None]] = None,
        tracer=None,
    ):
        self.node_id = node_id
        self.cache = cache
        self.ltlb = ltlb
        self.page_table = page_table
        self.sdram = sdram
        self.event_sink = event_sink or (lambda record, cycle: None)
        self.tracer = tracer

        self._bank_queues: List[Deque[Tuple[int, MemRequest]]] = [
            deque() for _ in range(NUM_BANKS)
        ]
        self._mif_queue: Deque[Tuple[int, MemRequest]] = deque()
        self._mif_busy_until = -1
        self._pending: List[MemResponse] = []

        # Statistics
        self.requests_accepted = 0
        self.loads = 0
        self.stores = 0
        self.sync_faults = 0
        self.block_status_faults = 0
        self.ltlb_miss_events = 0
        self.store_completions: Dict[int, int] = {}

    # ------------------------------------------------------------------ wiring

    def _trace(self, cycle: int, category: str, **info) -> None:
        if self.tracer is not None:
            self.tracer.record(cycle, self.node_id, category, **info)

    # ------------------------------------------------------------- request path

    def submit(self, request: MemRequest, arrival_cycle: int) -> None:
        """Accept a request delivered by the M-Switch at *arrival_cycle*."""
        self.requests_accepted += 1
        if request.is_store:
            self.stores += 1
        else:
            self.loads += 1
        if request.physical:
            # Physical accesses bypass the cache and go straight to the
            # external memory interface.
            self._mif_queue.append((arrival_cycle, request))
        else:
            bank = self.cache.bank_of(request.address)
            self._bank_queues[bank].append((arrival_cycle, request))

    # -------------------------------------------------------------------- tick

    def tick(self, cycle: int) -> List[MemResponse]:
        """Advance one cycle; returns responses whose data leaves the memory
        system this cycle (the node forwards them to the C-Switch)."""
        if any(self._bank_queues):
            for bank_index in range(NUM_BANKS):
                self._service_bank(bank_index, cycle)
        if self._mif_queue:
            self._service_mif(cycle)

        if not self._pending:
            return []
        ready: List[MemResponse] = []
        still_pending: List[MemResponse] = []
        for response in self._pending:
            if response.ready_cycle <= cycle:
                ready.append(response)
            else:
                still_pending.append(response)
        self._pending = still_pending
        return ready

    # ----------------------------------------------------------- bank pipeline

    def _service_bank(self, bank_index: int, cycle: int) -> None:
        queue = self._bank_queues[bank_index]
        if not queue:
            return
        arrival, request = queue[0]
        if arrival > cycle:
            return
        queue.popleft()

        line = self.cache.lookup(request.address, request.is_store)
        if line is None:
            # Miss: hand over to the external memory interface next cycle.
            self._mif_queue.append((cycle + 1, request))
            self._trace(cycle, "cache_miss", address=request.address, req=request.req_id,
                        store=request.is_store)
            return

        self._trace(cycle, "cache_hit", address=request.address, req=request.req_id,
                    store=request.is_store)
        if request.is_store and not line.writable:
            # The block status bits forbid writing; the check applies to hits
            # because the line's writability was captured at fill time.
            self.block_status_faults += 1
            record = self._make_record(EventType.BLOCK_STATUS, request, cycle)
            self.event_sink(record, cycle + EVENT_ENQUEUE_LATENCY)
            self._trace(cycle, "block_status_fault", address=request.address,
                        req=request.req_id, status="cached-read-only",
                        event_cycle=cycle + EVENT_ENQUEUE_LATENCY)
            return
        if not self._check_sync_precondition(request, self.cache.sync_bit(line, request.address), cycle):
            return
        # Only a store needs the page's entry, to mark its block dirty.
        entry = self.page_table.lookup(request.address) if request.is_store else None
        self._complete(line, request, entry, cycle + BANK_LATENCY, "cache")

    # ------------------------------------------------ external memory interface

    def _service_mif(self, cycle: int) -> None:
        if cycle <= self._mif_busy_until or not self._mif_queue:
            return
        arrival, request = self._mif_queue[0]
        if arrival > cycle:
            return
        self._mif_queue.popleft()

        if request.physical:
            self._service_physical(request, cycle)
            return

        translate_done = cycle + MIF_LATENCY + LTLB_LATENCY
        entry = self.ltlb.lookup(request.address)
        if entry is None:
            # LTLB miss: abort the access and raise an asynchronous event.
            self.ltlb_miss_events += 1
            record = self._make_record(EventType.LTLB_MISS, request, cycle)
            enqueue_cycle = translate_done + EVENT_ENQUEUE_LATENCY
            self.event_sink(record, enqueue_cycle)
            self._trace(cycle, "ltlb_miss", address=request.address, req=request.req_id,
                        store=request.is_store, event_cycle=enqueue_cycle)
            self._mif_busy_until = translate_done
            return

        status = entry.status_of(request.address)
        allowed = status.allows_write() if request.is_store else status.allows_read()
        if not allowed or (request.is_store and not entry.writable):
            self.block_status_faults += 1
            record = self._make_record(EventType.BLOCK_STATUS, request, cycle)
            record.extra["block_status"] = status
            enqueue_cycle = translate_done + EVENT_ENQUEUE_LATENCY
            self.event_sink(record, enqueue_cycle)
            self._trace(cycle, "block_status_fault", address=request.address,
                        req=request.req_id, status=status.name, event_cycle=enqueue_cycle)
            self._mif_busy_until = translate_done
            return

        self._service_sdram_fill(request, entry, translate_done, cycle)

    def _service_physical(self, request: MemRequest, cycle: int) -> None:
        latency = self.sdram.access_latency(request.address, 1)
        done = cycle + MIF_LATENCY + latency
        if request.is_store:
            self.sdram.write_word(request.address, request.data)
            self.store_completions[request.req_id] = done
            self._trace(done, "store_complete", address=request.address,
                        req=request.req_id, where="sdram-physical")
        else:
            value = self.sdram.read_word(request.address)
            self._pending.append(MemResponse(request=request, value=value, ready_cycle=done))
        self._mif_busy_until = done

    def _service_sdram_fill(self, request: MemRequest, entry: LptEntry,
                            translate_done: int, cycle: int) -> None:
        """Fetch the block containing the request from SDRAM, fill the cache
        and complete the access."""
        virtual_base = block_base(request.address)
        physical_base = entry.translate(virtual_base)

        # Secondary-miss merge: an earlier miss to the same block may have
        # filled the line while this request waited in the memory-interface
        # queue.  Re-filling from SDRAM would clobber any dirty words already
        # written to the resident line, so the access is completed against
        # the line directly (the analogue of an MSHR hit).
        resident = self.cache.probe(request.address)
        if resident is not None:
            if request.is_store and not resident.writable:
                self.block_status_faults += 1
                record = self._make_record(EventType.BLOCK_STATUS, request, cycle)
                self.event_sink(record, translate_done + EVENT_ENQUEUE_LATENCY)
                self._mif_busy_until = translate_done
                return
            if not self._check_sync_precondition(
                request, self.cache.sync_bit(resident, request.address), cycle
            ):
                self._mif_busy_until = translate_done
                return
            done = translate_done + BANK_LATENCY
            self._complete(resident, request, entry, done, "merge")
            self._mif_busy_until = done
            return

        block_latency = self.sdram.access_latency(physical_base, BLOCK_SIZE_WORDS)
        first_word_latency = block_latency - (BLOCK_SIZE_WORDS - 1) * CYCLES_PER_WORD

        data = self.sdram.read_block(physical_base, BLOCK_SIZE_WORDS)
        sync_bits = [self.sdram.sync_bit(physical_base + i) for i in range(BLOCK_SIZE_WORDS)]

        # Check the synchronisation precondition against memory state before
        # committing anything.
        word_index = request.address - virtual_base
        if not self._check_sync_precondition(request, sync_bits[word_index], cycle):
            self._mif_busy_until = translate_done
            return

        block_status = entry.status_of(request.address)
        writable = entry.writable and block_status.allows_write()
        evicted = self.cache.fill(virtual_base, physical_base, data, sync_bits,
                                  writable=writable)
        if evicted is not None:
            self._write_back(evicted)

        # Write-allocate: a store completes once the whole block is resident
        # and the new word merged; a load returns the critical word first.
        latency = block_latency if request.is_store else first_word_latency
        done = translate_done + latency + FILL_LATENCY
        self._complete(self.cache.probe(request.address), request, entry, done, "fill")
        self._mif_busy_until = done

    def _complete(self, line: CacheLine, request: MemRequest, entry: Optional[LptEntry],
                  done: int, where: str) -> None:
        """Complete *request* against the resident *line* at cycle *done*: a
        load reads its word and queues the response; a store writes its
        word, marks the block dirty through the page's *entry* (when given)
        and records its completion, traced as completing at *where*."""
        if not request.is_store:
            value = self.cache.read_word(line, request.address)
            self._apply_sync_postcondition_line(line, request)
            self._pending.append(MemResponse(request=request, value=value, ready_cycle=done))
            return
        self.cache.write_word(line, request.address, request.data)
        self._apply_sync_postcondition_line(line, request)
        if entry is not None:
            self._auto_dirty(entry, request.address)
        self.store_completions[request.req_id] = done
        self._trace(done, "store_complete", address=request.address,
                    req=request.req_id, where=where)

    def _write_back(self, evicted: CacheLine) -> None:
        """Write a dirty victim line back to SDRAM and update block status."""
        self.sdram.write_block(evicted.physical_base, evicted.data)
        for offset, bit in enumerate(evicted.sync_bits):
            self.sdram.set_sync_bit(evicted.physical_base + offset, bit)
        entry = self.page_table.lookup(evicted.virtual_base)
        if entry is not None:
            self._auto_dirty(entry, evicted.virtual_base)

    def _auto_dirty(self, entry: LptEntry, address: int) -> None:
        """Writes automatically move a READ_WRITE block to DIRTY (Section 4.3)."""
        if entry.status_of(address) is BlockStatus.READ_WRITE:
            entry.set_status(address, BlockStatus.DIRTY)
            self.page_table._mirror(entry)

    # ------------------------------------------------------------- sync bits

    def _check_sync_precondition(self, request: MemRequest, current_bit: int, cycle: int) -> bool:
        pre = request.sync_pre
        if pre == "x":
            return True
        required = 1 if pre == "f" else 0
        if current_bit == required:
            return True
        self.sync_faults += 1
        record = self._make_record(EventType.SYNC_FAULT, request, cycle)
        record.extra["sync_bit"] = current_bit
        self.event_sink(record, cycle + EVENT_ENQUEUE_LATENCY)
        self._trace(cycle, "sync_fault", address=request.address, req=request.req_id,
                    pre=pre, bit=current_bit)
        return False

    def _apply_sync_postcondition_line(self, line, request: MemRequest) -> None:
        post = request.sync_post
        if post == "x":
            return
        self.cache.set_sync_bit(line, request.address, 1 if post == "f" else 0)

    # ---------------------------------------------------------------- events

    def _make_record(self, event_type: EventType, request: MemRequest, cycle: int) -> EventRecord:
        regspec = 0
        is_fp = bool(request.is_fp)
        if request.dest is not None:
            regspec = pack_regspec(request.vthread, request.cluster, request.dest)
        return EventRecord(
            event_type=event_type,
            address=request.address,
            data=int(request.data) if isinstance(request.data, (int, bool)) else 0,
            regspec=regspec,
            is_store=request.is_store,
            sync_pre=request.sync_pre,
            sync_post=request.sync_post,
            vthread=request.vthread,
            cluster=request.cluster,
            is_fp=is_fp,
            cycle=cycle,
            extra={"request": request},
        )

    # -------------------------------------------------- privileged operations

    def install_translation(self, address: int, frame: int, flags: int) -> LptEntry:
        """Semantics of the privileged ``ltlbw`` operation.

        If the node's page table already holds an entry for the page the
        existing entry object is inserted into the LTLB (keeping block-status
        state shared); otherwise a new entry is created with the supplied
        frame and flags and registered in both structures.
        """
        page = page_of(address)
        entry = self.page_table.lookup_page(page)
        if entry is None:
            status = (
                BlockStatus.READ_WRITE
                if flags & LTLB_FLAG_BLOCKS_VALID
                else BlockStatus.INVALID
            )
            entry = LptEntry(
                virtual_page=page,
                physical_frame=frame,
                writable=bool(flags & LTLB_FLAG_WRITABLE),
                block_status=[status] * BLOCKS_PER_PAGE,
            )
            self.page_table.insert(entry)
        self.ltlb.insert(entry)
        return entry

    def probe_translation(self, address: int) -> int:
        """Semantics of the privileged ``ltlbp`` operation: physical frame of
        the page containing *address* or -1."""
        entry = self.ltlb.probe(address)
        if entry is None:
            entry = self.page_table.lookup(address)
        return entry.physical_frame if entry is not None else -1

    def set_block_status(self, address: int, status: BlockStatus) -> None:
        """Semantics of the privileged ``bsset`` operation."""
        entry = self.page_table.lookup(address)
        if entry is None:
            raise KeyError(f"bsset: no mapping for {address:#x} on node {self.node_id}")
        entry.set_status(address, status)
        self.page_table._mirror(entry)
        # Keep any cached copy of the block consistent with the new status.
        line = self.cache.probe(address)
        if line is not None:
            line.writable = entry.writable and status.allows_write()

    def get_block_status(self, address: int) -> int:
        entry = self.page_table.lookup(address)
        if entry is None:
            return -1
        return int(entry.status_of(address))

    def set_sync_bit_virtual(self, address: int, value: int) -> None:
        """Semantics of the privileged ``syncset`` operation."""
        line = self.cache.probe(address)
        if line is not None:
            self.cache.set_sync_bit(line, address, value)
        entry = self.page_table.lookup(address)
        if entry is not None:
            self.sdram.set_sync_bit(entry.translate(address), value)

    # ------------------------------------------------------ debug / loader API

    def translate(self, address: int) -> Optional[int]:
        entry = self.page_table.lookup(address)
        if entry is None:
            return None
        return entry.translate(address)

    def debug_read(self, address: int):
        """Read a virtual address for debugging, seeing through the cache."""
        line = self.cache.probe(address)
        if line is not None:
            return self.cache.read_word(line, address)
        physical = self.translate(address)
        if physical is None:
            raise KeyError(f"debug_read: no mapping for {address:#x} on node {self.node_id}")
        return self.sdram.read_word(physical)

    def debug_write(self, address: int, value, sync_bit: Optional[int] = None) -> None:
        """Write a virtual address directly (loader / test setup)."""
        physical = self.translate(address)
        if physical is None:
            raise KeyError(f"debug_write: no mapping for {address:#x} on node {self.node_id}")
        line = self.cache.probe(address)
        if line is not None:
            self.cache.write_word(line, address, value)
            if sync_bit is not None:
                self.cache.set_sync_bit(line, address, sync_bit)
        self.sdram.write_word(physical, value, sync_bit)

    def invalidate_block(self, address: int) -> None:
        """Invalidate the cache line holding *address*, writing it back first
        if it was dirty (coherence-layer helper)."""
        evicted = self.cache.invalidate(address)
        if evicted is not None:
            self._write_back(evicted)

    def flush_cache(self) -> None:
        for evicted in self.cache.flush():
            self._write_back(evicted)

    def read_block_virtual(self, address: int) -> List[object]:
        """Read the whole (block-aligned) block containing *address*, seeing
        through the cache (coherence-layer helper)."""
        base = block_base(address)
        return [self.debug_read(base + i) for i in range(BLOCK_SIZE_WORDS)]

    def write_block_virtual(self, address: int, data: List[object]) -> None:
        base = block_base(address)
        for offset, value in enumerate(data):
            self.debug_write(base + offset, value)

    @property
    def busy(self) -> bool:
        """True while any request is still in flight inside the memory system."""
        return (
            any(self._bank_queues)
            or bool(self._mif_queue)
            or bool(self._pending)
        )

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """SimComponent contract: the earliest cycle after *cycle* at which a
        tick would do real work -- a bank servicing its head request, the
        external memory interface coming free for its head request, or a
        pending response completing.  None when the memory system is empty."""
        candidates = []
        for queue in self._bank_queues:
            if queue:
                candidates.append(queue[0][0])
        if self._mif_queue:
            candidates.append(max(self._mif_queue[0][0], self._mif_busy_until + 1))
        if self._pending:
            candidates.append(min(response.ready_cycle for response in self._pending))
        if not candidates:
            return None
        # Banks and the MIF service one request per tick, so work that was
        # due in the past is due again on the very next cycle.
        return max(min(candidates), cycle + 1)
