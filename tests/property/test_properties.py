"""Property-based tests (hypothesis) on the core data structures and
invariants: SECDED codes, guarded pointers, regspec packing, GTLB page-group
translation, LPT entry packing, the assembler/functional units, and the
memory system against a reference model."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import MMachine, MachineConfig
from repro.isa.assembler import assemble
from repro.isa.registers import RegFile, RegisterRef, pack_regspec, unpack_regspec
from repro.cluster.functional_units import OperandError, evaluate, value_evaluator
from repro.cluster.hthread import ThreadState
from repro.memory.cache import NUM_SETS, InterleavedCache
from repro.memory.guarded_pointer import GuardedPointer, PointerPermission, ProtectionError
from repro.memory.ltlb import Ltlb
from repro.memory.memory_system import MemorySystem
from repro.memory.page_table import (
    BLOCK_SIZE_WORDS,
    BLOCKS_PER_PAGE,
    PAGE_SIZE_WORDS,
    BlockStatus,
    LocalPageTable,
    LptEntry,
)
from repro.memory.requests import MemOpKind, MemRequest
from repro.memory.sdram import Sdram
from repro.memory.secded import CODEWORD_BITS, SecdedError, secded_decode, secded_encode
from repro.network.gtlb import GtlbEntry

WORD = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestSecdedProperties:
    @given(WORD)
    def test_roundtrip(self, word):
        data, corrected = secded_decode(secded_encode(word))
        assert data == word and not corrected

    @given(WORD, st.integers(min_value=0, max_value=CODEWORD_BITS - 1))
    def test_any_single_bit_error_corrected(self, word, position):
        data, corrected = secded_decode(secded_encode(word) ^ (1 << position))
        assert data == word and corrected

    @given(WORD, st.lists(st.integers(min_value=0, max_value=CODEWORD_BITS - 1),
                          min_size=2, max_size=2, unique=True))
    def test_any_double_bit_error_detected(self, word, positions):
        corrupted = secded_encode(word)
        for position in positions:
            corrupted ^= 1 << position
        with pytest.raises(SecdedError):
            secded_decode(corrupted)


class TestGuardedPointerProperties:
    pointers = st.builds(
        GuardedPointer,
        address=st.integers(min_value=0, max_value=(1 << 40) - 1),
        length_exp=st.integers(min_value=0, max_value=30),
        permission=st.sampled_from([PointerPermission.READ, PointerPermission.rw(),
                                    PointerPermission.rwx()]),
    )

    @given(pointers)
    def test_encode_decode_roundtrip(self, pointer):
        assert GuardedPointer.decode(pointer.encode()) == pointer

    @given(pointers, st.integers(min_value=-(1 << 32), max_value=1 << 32))
    def test_add_stays_in_segment_or_faults(self, pointer, offset):
        target = pointer.address + offset
        if pointer.segment_base <= target < pointer.segment_limit:
            assert pointer.add(offset).address == target
        else:
            with pytest.raises(ProtectionError):
                pointer.add(offset)

    @given(pointers)
    def test_segment_is_aligned_power_of_two(self, pointer):
        assert pointer.segment_base % pointer.segment_size == 0
        assert pointer.segment_base <= pointer.address < pointer.segment_limit


class TestRegspecProperties:
    @given(st.integers(0, 5), st.integers(0, 3),
           st.sampled_from([RegFile.INT, RegFile.FP, RegFile.CC, RegFile.GCC, RegFile.MC]),
           st.integers(0, 15))
    def test_roundtrip(self, vthread, cluster, file, index):
        # Clamp the index to the register file's size (CC has 4, GCC/MC 8).
        sizes = {RegFile.INT: 16, RegFile.FP: 16, RegFile.CC: 4, RegFile.GCC: 8, RegFile.MC: 8}
        ref = RegisterRef(file, index % sizes[file])
        assert unpack_regspec(pack_regspec(vthread, cluster, ref)) == (vthread, cluster, ref)


class TestGtlbProperties:
    entries = st.builds(
        GtlbEntry,
        base_page=st.integers(min_value=0, max_value=1 << 20),
        page_group_length=st.sampled_from([1, 2, 4, 8, 16, 32]),
        start_node=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        extent=st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        pages_per_node=st.sampled_from([1, 2, 4]),
    )

    @given(entries, st.integers(min_value=0, max_value=(1 << 14) - 1))
    def test_translation_lands_inside_region(self, entry, offset):
        address = entry.base_address + offset % (entry.page_group_length * entry.page_size_words)
        x, y, z = entry.node_coords_of(address)
        sx, sy, sz = entry.start_node
        dx, dy, dz = entry.region_shape
        assert sx <= x < sx + dx
        assert sy <= y < sy + dy
        assert sz <= z < sz + dz

    @given(entries)
    def test_pack_unpack_roundtrip(self, entry):
        assert GtlbEntry.unpack(entry.pack(), entry.page_size_words) == entry

    @given(entries)
    def test_all_pages_of_group_are_homed(self, entry):
        total = sum(
            len(entry.pages_on_node((entry.start_node[0] + x,
                                     entry.start_node[1] + y,
                                     entry.start_node[2] + z)))
            for x in range(entry.region_shape[0])
            for y in range(entry.region_shape[1])
            for z in range(entry.region_shape[2])
        )
        assert total == entry.page_group_length


class TestLptEntryProperties:
    @given(st.integers(0, (1 << 30) - 1), st.integers(0, (1 << 20) - 1), st.booleans(),
           st.lists(st.sampled_from(list(BlockStatus)), min_size=BLOCKS_PER_PAGE,
                    max_size=BLOCKS_PER_PAGE))
    def test_pack_unpack_roundtrip(self, vpage, frame, writable, status):
        entry = LptEntry(virtual_page=vpage, physical_frame=frame, writable=writable,
                         block_status=list(status))
        unpacked = LptEntry.unpack(entry.pack())
        assert unpacked.virtual_page == vpage
        assert unpacked.physical_frame == frame
        assert unpacked.writable == writable
        assert unpacked.block_status == list(status)


class TestAssemblerArithmeticProperties:
    @given(st.integers(-1000, 1000), st.integers(-1000, 1000),
           st.sampled_from(["add", "sub", "mul", "and", "or", "xor", "min", "max",
                            "eq", "ne", "lt", "le", "gt", "ge"]))
    def test_assembled_op_matches_python_semantics(self, a, b, mnemonic):
        name = assemble(f"{mnemonic} i1, i2, i3")[0].operations[0].opcode.name
        result = evaluate(name, value_evaluator(name), [a, b])
        reference = {
            "add": a + b, "sub": a - b, "mul": a * b,
            "and": a & b, "or": a | b, "xor": a ^ b,
            "min": min(a, b), "max": max(a, b),
            "eq": int(a == b), "ne": int(a != b), "lt": int(a < b),
            "le": int(a <= b), "gt": int(a > b), "ge": int(a >= b),
        }[mnemonic]
        assert result == reference


#: Pointers with small addresses and segments, so that a shift by one stays
#: small.
SMALL_POINTERS = st.builds(
    GuardedPointer,
    address=st.integers(min_value=0, max_value=130),
    length_exp=st.integers(min_value=0, max_value=8),
    permission=st.just(PointerPermission.rw()),
)
#: Operands of every kind a register can hold: ints (negative, and beyond 64
#: bits), bools, floats (inf and nan included) and guarded pointers.
OPERANDS = st.one_of(
    st.integers(-(1 << 80), 1 << 80),
    st.booleans(),
    st.floats(),
    SMALL_POINTERS,
    TestGuardedPointerProperties.pointers,
)
#: Shift counts: negative, in range, and far beyond any host's memory (those
#: raise at once).  Counts between 2**20 and 2**64 are left out, because
#: the shift would try to allocate gigabytes.
SHIFT_COUNTS = st.one_of(
    st.integers(-70, 130),
    st.integers(1 << 70, 1 << 80),
    st.booleans(),
    st.floats(-70.0, 130.0),
    SMALL_POINTERS,
)


class TestIssueStageArithmeticProperties:
    """Every integer operation the issue stage has an ``int`` fast path for,
    run through a one-node machine on operands of every kind: the
    destination holds exactly what the opcode's evaluator returns, or
    the run raises the SimulationError naming the instruction, or the thread
    takes the protection fault the evaluator raised."""

    @staticmethod
    def _check(instruction: str, operands):
        name = assemble(instruction)[0].operations[0].opcode.name
        try:
            expected = evaluate(name, value_evaluator(name), list(operands))
            error = None
        except (OperandError, ProtectionError) as exc:
            expected, error = None, exc
        config = MachineConfig.single_node()
        config.runtime.shared_memory_mode = "none"
        machine = MMachine(config)
        registers = dict(zip(("i1", "i2"), operands))
        machine.load_hthread(0, 0, 0, instruction + "\nhalt", registers=registers)
        if isinstance(error, OperandError):
            with pytest.raises(Exception) as caught:
                machine.run_until_quiescent(max_cycles=50)
            assert type(caught.value).__name__ == "SimulationError"
            assert str(caught.value) == f"{error} (instruction {instruction})"
            return
        machine.run_until_quiescent(max_cycles=50)
        context = machine.nodes[0].context(0, 0)
        if error is not None:
            assert context.state is ThreadState.FAULTED
            assert machine.nodes[0].clusters[0].exceptions_raised == 1
            return
        result = machine.register_value(0, 0, 0, "i3")
        assert type(result) is type(expected)
        assert repr(result) == repr(expected)

    @settings(max_examples=40, deadline=None)
    @given(a=OPERANDS, b=OPERANDS)
    @pytest.mark.parametrize("mnemonic", ["add", "sub", "mul", "and", "or", "xor",
                                          "eq", "ne", "lt", "le", "gt", "ge"])
    def test_binary_operation(self, mnemonic, a, b):
        self._check(f"{mnemonic} i3, i1, i2", (a, b))

    @settings(max_examples=40, deadline=None)
    @given(a=OPERANDS, count=SHIFT_COUNTS)
    @pytest.mark.parametrize("mnemonic", ["shl", "shr"])
    def test_shift(self, mnemonic, a, count):
        self._check(f"{mnemonic} i3, i1, i2", (a, count))

    @settings(max_examples=40, deadline=None)
    @given(a=OPERANDS)
    def test_mov(self, a):
        self._check("mov i3, i1", (a,))


class TestMemorySystemProperties:
    #: Words between addresses that share a cache set: 16 pages.
    SET_STRIDE = NUM_SETS * BLOCK_SIZE_WORDS

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 63), st.integers(0, 10_000)),
        min_size=1, max_size=40,
    ))
    # Three tags on one two-way set: the third store evicts the dirty first
    # line, so a write-back runs on every test run.
    @example([(0, 0, 1), (1, 0, 2), (2, 0, 3)])
    def test_store_load_sequence_matches_reference_model(self, operations):
        """Random stores followed by debug reads always match a dict model,
        regardless of cache fills, evictions and write-backs.  Addresses
        ``SET_STRIDE`` apart share a set, so four tags over eight sets
        force evictions."""
        table = LocalPageTable()
        system = MemorySystem(0, InterleavedCache(), Ltlb(), table, Sdram())
        for tag in range(4):
            entry = LptEntry(virtual_page=tag * self.SET_STRIDE // PAGE_SIZE_WORDS,
                             physical_frame=tag)
            table.insert(entry)
            system.ltlb.insert(entry)

        reference = {}
        cycle = 0
        for tag, offset, value in operations:
            address = tag * self.SET_STRIDE + offset
            system.submit(MemRequest(kind=MemOpKind.STORE, address=address, data=value),
                          cycle + 1)
            reference[address] = value
            for _ in range(60):
                cycle += 1
                system.tick(cycle)
        for address, value in reference.items():
            assert system.debug_read(address) == value


class TestStencilScheduleProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["7pt", "27pt"]), st.sampled_from([1, 2, 4]))
    def test_every_schedule_is_assemblable_and_covers_all_neighbours(self, kind, threads):
        from repro.workloads.stencil import (
            SEVEN_POINT_OFFSETS,
            TWENTY_SEVEN_POINT_OFFSETS,
            make_stencil_workload,
        )

        workload = make_stencil_workload(kind=kind, n_hthreads=threads)
        expected_neighbours = (len(SEVEN_POINT_OFFSETS) if kind == "7pt"
                               else len(TWENTY_SEVEN_POINT_OFFSETS))
        load_count = sum(
            source.count("ld ") for source in workload.sources.values()
        )
        # neighbours + centre + u loads
        assert load_count == expected_neighbours + 2
        assert sum(1 for s in workload.sources.values() if "st " in s) == 1
