"""Unit tests for the memory subsystem: SECDED, SDRAM, page table, LTLB,
cache, guarded pointers and the integrated memory system."""

import pytest

from repro.events.records import EventType
from repro.memory.cache import NUM_SETS, InterleavedCache
from repro.memory.guarded_pointer import (
    GuardedPointer,
    PointerPermission,
    ProtectionError,
    make_pointer,
)
from repro.memory.ltlb import LTLB_ENTRIES, Ltlb
from repro.memory.memory_system import LTLB_FLAG_BLOCKS_VALID, LTLB_FLAG_WRITABLE, MemorySystem
from repro.memory.page_table import (
    BLOCK_SIZE_WORDS,
    BLOCKS_PER_PAGE,
    BlockStatus,
    LPT_ENTRIES,
    LocalPageTable,
    LptEntry,
    PAGE_SIZE_WORDS,
    block_base,
    block_of,
    page_of,
)
from repro.memory.requests import MemOpKind, MemRequest
from repro.memory.sdram import CYCLES_PER_WORD, SDRAM_SIZE_WORDS, Sdram
from repro.memory.secded import (
    CODEWORD_BITS,
    SecdedError,
    inject_error,
    secded_decode,
    secded_encode,
)


class TestSecded:
    def test_roundtrip(self):
        for value in [0, 1, 0xDEADBEEF, (1 << 64) - 1, 0x0123456789ABCDEF]:
            data, corrected = secded_decode(secded_encode(value))
            assert data == value
            assert not corrected

    def test_single_bit_errors_corrected_everywhere(self):
        word = 0xA5A5_5A5A_0F0F_F0F0
        codeword = secded_encode(word)
        for position in range(CODEWORD_BITS):
            data, corrected = secded_decode(codeword ^ (1 << position))
            assert data == word
            assert corrected

    def test_double_bit_error_detected(self):
        codeword = secded_encode(12345)
        with pytest.raises(SecdedError):
            secded_decode(inject_error(codeword, [3, 40]))

    def test_inject_error_validates_positions(self):
        with pytest.raises(ValueError):
            inject_error(secded_encode(1), [CODEWORD_BITS])


class TestSdram:
    def test_read_write(self):
        sdram = Sdram()
        sdram.write_word(10, 999)
        assert sdram.read_word(10) == 999
        assert sdram.read_word(11) == 0

    def test_address_bounds(self):
        sdram = Sdram()
        with pytest.raises(IndexError):
            sdram.read_word(SDRAM_SIZE_WORDS)
        with pytest.raises(IndexError):
            sdram.write_word(-1, 0)

    def test_sync_bits(self):
        sdram = Sdram()
        assert sdram.sync_bit(5) == 0
        sdram.set_sync_bit(5, 1)
        assert sdram.sync_bit(5) == 1

    def test_page_mode_timing(self):
        sdram = Sdram()
        first = sdram.access_latency(0, 1)
        second = sdram.access_latency(8, 1)           # same row: page-mode hit
        far = sdram.access_latency(1024, 1)           # different row
        assert first == 5 + 2
        assert second == 2
        assert far == 5 + 2

    def test_burst_latency_scales_with_words(self):
        single = Sdram().access_latency(0, 1)
        burst = Sdram().access_latency(0, 8)
        assert burst == single + 7 * CYCLES_PER_WORD

    def test_block_read_write(self):
        sdram = Sdram()
        sdram.write_block(8, [1, 2, 3, 4])
        assert sdram.read_block(8, 4) == [1, 2, 3, 4]

    def test_secded_correction_and_scrub(self):
        sdram = Sdram()
        sdram.write_word(3, 777)
        sdram.inject_bit_error(3, [5])
        assert sdram.read_word(3) == 777
        assert sdram.corrected_errors == 1
        # Scrubbed: reading again needs no correction.
        assert sdram.read_word(3) == 777
        assert sdram.corrected_errors == 1

    def test_secded_double_error_raises(self):
        sdram = Sdram()
        sdram.write_word(3, 777)
        sdram.inject_bit_error(3, [5, 9])
        with pytest.raises(SecdedError):
            sdram.read_word(3)

    def test_float_and_pointer_words_stored_tagged(self):
        sdram = Sdram()
        sdram.write_word(1, 2.5)
        pointer = GuardedPointer(4, 3, PointerPermission.READ)
        sdram.write_word(2, pointer)
        assert sdram.read_word(1) == 2.5
        assert sdram.read_word(2) == pointer
        assert sdram._pointer_tags.get(2)
        assert not sdram._pointer_tags.get(1)


class TestGuardedPointer:
    def test_segment_geometry(self):
        pointer = GuardedPointer(address=0x1005, length_exp=4, permission=PointerPermission.rw())
        assert pointer.segment_size == 16
        assert pointer.segment_base == 0x1000
        assert pointer.segment_limit == 0x1010

    def test_add_within_segment(self):
        pointer = GuardedPointer(0x1000, 4, PointerPermission.rw())
        assert pointer.add(15).address == 0x100F

    def test_add_outside_segment_faults(self):
        pointer = GuardedPointer(0x1000, 4, PointerPermission.rw())
        with pytest.raises(ProtectionError):
            pointer.add(16)
        with pytest.raises(ProtectionError):
            pointer.add(-1)

    def test_permission_check(self):
        read_only = GuardedPointer(0x100, 3, PointerPermission.READ)
        read_only.check(PointerPermission.READ)
        with pytest.raises(ProtectionError):
            read_only.check(PointerPermission.WRITE)

    def test_check_address_out_of_segment(self):
        pointer = GuardedPointer(0x100, 3, PointerPermission.rw())
        with pytest.raises(ProtectionError):
            pointer.check(PointerPermission.READ, address=0x200)

    def test_encode_decode_roundtrip(self):
        pointer = GuardedPointer(0x3F_0000_1234, 17, PointerPermission.rwx())
        assert GuardedPointer.decode(pointer.encode()) == pointer

    def test_make_pointer_covers_requested_range(self):
        pointer = make_pointer(base=100, size_words=50, permission=PointerPermission.rw())
        assert pointer.contains(100)
        assert pointer.contains(149)

    def test_int_conversion(self):
        pointer = GuardedPointer(0x55, 2, PointerPermission.READ)
        assert int(pointer) == 0x55

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            GuardedPointer(-1, 0, PointerPermission.READ)
        with pytest.raises(ValueError):
            GuardedPointer(0, 64, PointerPermission.READ)


class TestPageTable:
    def test_page_and_block_arithmetic(self):
        assert page_of(PAGE_SIZE_WORDS + 5) == 1
        assert block_of(17) == 2
        assert block_base(17) == 16
        assert BLOCKS_PER_PAGE == PAGE_SIZE_WORDS // BLOCK_SIZE_WORDS

    def test_entry_translate(self):
        entry = LptEntry(virtual_page=4, physical_frame=9)
        assert entry.translate(4 * PAGE_SIZE_WORDS + 3) == 9 * PAGE_SIZE_WORDS + 3

    def test_entry_pack_unpack_roundtrip(self):
        entry = LptEntry(virtual_page=123, physical_frame=45, writable=False)
        entry.set_status(123 * PAGE_SIZE_WORDS + 8, BlockStatus.DIRTY)
        entry.set_status(123 * PAGE_SIZE_WORDS + 300, BlockStatus.INVALID)
        unpacked = LptEntry.unpack(entry.pack())
        assert unpacked.virtual_page == 123
        assert unpacked.physical_frame == 45
        assert unpacked.writable is False
        assert unpacked.block_status == entry.block_status

    def test_unpack_invalid_entry_returns_none(self):
        assert LptEntry.unpack([0, 0, 0, 0]) is None

    def test_table_insert_lookup(self):
        table = LocalPageTable()
        entry = LptEntry(virtual_page=7, physical_frame=2)
        table.insert(entry)
        assert table.lookup(7 * PAGE_SIZE_WORDS + 1) is entry
        assert table.lookup(8 * PAGE_SIZE_WORDS) is None
        assert 7 in table

    def test_collision_detected(self):
        table = LocalPageTable()
        table.insert(LptEntry(virtual_page=1, physical_frame=0))
        with pytest.raises(ValueError):
            table.insert(LptEntry(virtual_page=1 + LPT_ENTRIES, physical_frame=1))

    def test_block_status_of_a_looked_up_entry(self):
        table = LocalPageTable()
        table.insert(LptEntry(virtual_page=0, physical_frame=0))
        table.lookup(24).set_status(24, BlockStatus.READ_ONLY)
        assert table.lookup(24).status_of(24) is BlockStatus.READ_ONLY
        assert table.lookup(32).status_of(32) is BlockStatus.READ_WRITE

    def test_writeback_mirror(self):
        written = {}
        table = LocalPageTable()
        table.attach_writeback(lambda slot, words: written.__setitem__(slot, list(words)))
        entry = LptEntry(virtual_page=3, physical_frame=5)
        table.insert(entry)
        assert 3 in written
        assert written[3][0] == (3 << 1) | 1
        # Attaching a mirror rewrites every entry already in the table.
        written.clear()
        table.attach_writeback(lambda slot, words: written.__setitem__(slot, list(words)))
        assert written[3][0] == (3 << 1) | 1

    def test_block_status_predicates(self):
        assert BlockStatus.INVALID.allows_read() is False
        assert BlockStatus.READ_ONLY.allows_read() is True
        assert BlockStatus.READ_ONLY.allows_write() is False
        assert BlockStatus.DIRTY.allows_write() is True


class TestLtlb:
    def _entry(self, page):
        return LptEntry(virtual_page=page, physical_frame=page + 100)

    def test_hit_and_miss(self):
        ltlb = Ltlb()
        ltlb.insert(self._entry(1))
        assert ltlb.lookup(1 * PAGE_SIZE_WORDS + 7) is not None
        assert ltlb.lookup(2 * PAGE_SIZE_WORDS) is None
        assert ltlb.hits == 1
        assert ltlb.misses == 1

    def test_lru_eviction(self):
        ltlb = Ltlb()
        for page in range(1, LTLB_ENTRIES + 1):
            ltlb.insert(self._entry(page))
        assert ltlb.evictions == 0
        ltlb.lookup(1 * PAGE_SIZE_WORDS)          # touch page 1
        ltlb.insert(self._entry(LTLB_ENTRIES + 1))  # evicts page 2
        assert 1 in ltlb
        assert 2 not in ltlb
        assert LTLB_ENTRIES + 1 in ltlb
        assert ltlb.evictions == 1

    def test_probe_does_not_count(self):
        ltlb = Ltlb()
        ltlb.insert(self._entry(1))
        ltlb.probe(1 * PAGE_SIZE_WORDS)
        assert ltlb.hits == 0 and ltlb.misses == 0

    def test_hit_rate(self):
        ltlb = Ltlb()
        ltlb.insert(self._entry(0))
        ltlb.lookup(0)
        ltlb.lookup(PAGE_SIZE_WORDS)
        assert ltlb.hit_rate == pytest.approx(0.5)


class TestCache:
    def _filled(self, cache, base=0, physical=1000, values=None, writable=True):
        data = values or list(range(8))
        cache.fill(base, physical, data, [0] * 8, writable=writable)
        return cache.probe(base)

    def test_fill_then_hit(self):
        cache = InterleavedCache()
        self._filled(cache, base=16)
        line = cache.lookup(19, is_store=False)
        assert line is not None
        assert cache.read_word(line, 19) == 3
        assert cache.hits == 1

    def test_miss_statistics(self):
        cache = InterleavedCache()
        assert cache.lookup(8, is_store=True) is None
        assert cache.write_misses == 1

    def test_write_marks_dirty(self):
        cache = InterleavedCache()
        line = self._filled(cache, base=0)
        cache.write_word(line, 3, 99)
        assert line.dirty
        assert cache.read_word(line, 3) == 99

    def test_bank_mapping_is_word_interleaved(self):
        cache = InterleavedCache()
        assert [cache.bank_of(a) for a in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_eviction_returns_dirty_victim(self):
        cache = InterleavedCache()
        line = self._filled(cache, base=0, physical=0)
        cache.write_word(line, 0, 42)
        # Lines NUM_SETS blocks apart share a set; the third one evicts the
        # least recently used of the two ways, the dirty line at 0.
        stride = NUM_SETS * BLOCK_SIZE_WORDS
        assert cache.fill(stride, 512, [0] * 8, [0] * 8) is None
        evicted = cache.fill(2 * stride, 1024, [0] * 8, [0] * 8)
        assert evicted is not None
        assert evicted.dirty
        assert evicted.virtual_base == 0
        assert evicted.data[0] == 42
        assert cache.evictions == 1

    def test_invalidate_returns_dirty_data(self):
        cache = InterleavedCache()
        line = self._filled(cache, base=8)
        cache.write_word(line, 9, 7)
        evicted = cache.invalidate(9)
        assert evicted is not None and evicted.data[1] == 7
        assert cache.probe(8) is None

    def test_invalidate_clean_returns_none(self):
        cache = InterleavedCache()
        self._filled(cache, base=8)
        assert cache.invalidate(8) is None

    def test_flush(self):
        cache = InterleavedCache()
        line = self._filled(cache, base=0)
        cache.write_word(line, 1, 5)
        self._filled(cache, base=64)
        dirty = cache.flush()
        assert len(dirty) == 1
        assert cache.resident_lines == 0

    def test_sync_bits_in_lines(self):
        cache = InterleavedCache()
        line = self._filled(cache, base=0)
        assert cache.sync_bit(line, 2) == 0
        cache.set_sync_bit(line, 2, 1)
        assert cache.sync_bit(line, 2) == 1

    def test_unaligned_fill_rejected(self):
        cache = InterleavedCache()
        with pytest.raises(ValueError):
            cache.fill(3, 0, [0] * 8, [0] * 8)

    def test_wrong_fill_size_rejected(self):
        cache = InterleavedCache()
        with pytest.raises(ValueError):
            cache.fill(0, 0, [0] * 4, [0] * 4)

    def test_writable_flag(self):
        cache = InterleavedCache()
        line = self._filled(cache, base=0, writable=False)
        assert not line.writable


def _build_memory_system(tracer=None):
    sdram = Sdram()
    cache = InterleavedCache()
    ltlb = Ltlb()
    table = LocalPageTable()
    events = []
    system = MemorySystem(0, cache, ltlb, table, sdram,
                          event_sink=lambda record, cycle: events.append((cycle, record)))
    return system, table, events


class TestMemorySystem:
    def _map(self, system, table, page=0, status=BlockStatus.READ_WRITE, preload=True):
        entry = LptEntry(virtual_page=page, physical_frame=page,
                         block_status=[status] * BLOCKS_PER_PAGE)
        table.insert(entry)
        if preload:
            system.ltlb.insert(entry)
        return entry

    def _run(self, system, cycles=200):
        responses = []
        for cycle in range(cycles):
            responses.extend(system.tick(cycle))
        return responses

    def test_load_miss_then_hit(self):
        system, table, events = _build_memory_system()
        self._map(system, table)
        system.debug_write(8, 123)
        from repro.isa.registers import RegisterRef, RegFile

        dest = RegisterRef(RegFile.INT, 5)
        system.submit(MemRequest(kind=MemOpKind.LOAD, address=8, dest=dest), 1)
        responses = self._run(system)
        assert len(responses) == 1
        assert responses[0].value == 123
        assert system.cache.misses == 1
        # A second load hits in the cache.
        system.submit(MemRequest(kind=MemOpKind.LOAD, address=8, dest=dest), 1)
        responses = self._run(system)
        assert responses[0].value == 123
        assert system.cache.hits >= 1

    def test_store_then_load(self):
        system, table, events = _build_memory_system()
        self._map(system, table)
        from repro.isa.registers import RegisterRef, RegFile

        system.submit(MemRequest(kind=MemOpKind.STORE, address=16, data=55), 1)
        self._run(system)
        system.submit(MemRequest(kind=MemOpKind.LOAD, address=16,
                                 dest=RegisterRef(RegFile.INT, 1)), 1)
        responses = self._run(system)
        assert responses[0].value == 55
        assert system.debug_read(16) == 55

    def test_ltlb_miss_raises_event(self):
        system, table, events = _build_memory_system()
        # No mapping at all.
        system.submit(MemRequest(kind=MemOpKind.LOAD, address=8,
                                 dest=None), 1)
        self._run(system)
        assert len(events) == 1
        assert events[0][1].event_type is EventType.LTLB_MISS

    def test_block_status_fault(self):
        system, table, events = _build_memory_system()
        self._map(system, table, status=BlockStatus.INVALID)
        system.submit(MemRequest(kind=MemOpKind.LOAD, address=8, dest=None), 1)
        self._run(system)
        assert events and events[0][1].event_type is EventType.BLOCK_STATUS

    def test_read_only_block_store_faults_on_hit(self):
        system, table, events = _build_memory_system()
        self._map(system, table, status=BlockStatus.READ_ONLY)
        from repro.isa.registers import RegisterRef, RegFile

        # Read fills the cache with a non-writable line.
        system.submit(MemRequest(kind=MemOpKind.LOAD, address=8,
                                 dest=RegisterRef(RegFile.INT, 1)), 1)
        self._run(system)
        # Store hits that line and must fault.
        system.submit(MemRequest(kind=MemOpKind.STORE, address=8, data=1), 1)
        self._run(system)
        assert any(record.event_type is EventType.BLOCK_STATUS for _, record in events)

    def test_sync_fault(self):
        system, table, events = _build_memory_system()
        self._map(system, table)
        system.debug_write(8, 1, sync_bit=0)
        system.submit(MemRequest(kind=MemOpKind.LOAD, address=8, dest=None,
                                 sync_pre="f"), 1)
        self._run(system)
        assert events and events[0][1].event_type is EventType.SYNC_FAULT

    def test_sync_postcondition_applied(self):
        system, table, events = _build_memory_system()
        self._map(system, table)
        system.debug_write(8, 1, sync_bit=0)
        system.submit(MemRequest(kind=MemOpKind.STORE, address=8, data=9,
                                 sync_pre="e", sync_post="f"), 1)
        self._run(system)
        # The store allocated the line, so the bit is set in the cache.
        assert system.cache.sync_bit(system.cache.probe(8), 8) == 1

    def test_install_translation_and_probe(self):
        system, table, events = _build_memory_system()
        entry = system.install_translation(3 * PAGE_SIZE_WORDS, 7,
                                           LTLB_FLAG_WRITABLE | LTLB_FLAG_BLOCKS_VALID)
        assert entry.writable
        assert system.probe_translation(3 * PAGE_SIZE_WORDS + 4) == 7
        assert system.probe_translation(9 * PAGE_SIZE_WORDS) == -1

    def test_install_translation_invalid_blocks(self):
        system, table, events = _build_memory_system()
        entry = system.install_translation(2 * PAGE_SIZE_WORDS, 5, LTLB_FLAG_WRITABLE)
        assert all(status is BlockStatus.INVALID for status in entry.block_status)

    def test_store_auto_dirties_block(self):
        system, table, events = _build_memory_system()
        self._map(system, table)
        system.submit(MemRequest(kind=MemOpKind.STORE, address=8, data=1), 1)
        self._run(system)
        assert system.get_block_status(8) == int(BlockStatus.DIRTY)

    def test_physical_access_bypasses_translation(self):
        system, table, events = _build_memory_system()
        from repro.isa.registers import RegisterRef, RegFile

        system.sdram.write_word(100, 31337)
        system.submit(MemRequest(kind=MemOpKind.LOAD, address=100,
                                 dest=RegisterRef(RegFile.INT, 2), physical=True), 1)
        responses = self._run(system)
        assert responses[0].value == 31337

    def test_secondary_miss_merge_preserves_stores(self):
        system, table, events = _build_memory_system()
        self._map(system, table)
        # Two stores to the same (cold) block submitted back to back: the
        # second must not clobber the first when the block is filled.
        system.submit(MemRequest(kind=MemOpKind.STORE, address=8, data=11), 1)
        system.submit(MemRequest(kind=MemOpKind.STORE, address=9, data=22), 2)
        self._run(system)
        assert system.debug_read(8) == 11
        assert system.debug_read(9) == 22

    def test_read_block_and_write_block_virtual(self):
        system, table, events = _build_memory_system()
        self._map(system, table)
        system.write_block_virtual(16, list(range(8)))
        assert system.read_block_virtual(19) == list(range(8))

    def test_invalidate_block_writes_back(self):
        system, table, events = _build_memory_system()
        self._map(system, table)
        system.submit(MemRequest(kind=MemOpKind.STORE, address=8, data=77), 1)
        self._run(system)
        system.invalidate_block(8)
        assert system.sdram.read_word(8) == 77
