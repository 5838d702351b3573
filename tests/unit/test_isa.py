"""Unit tests for the ISA layer: registers, operations, assembler, programs."""

import pytest

from repro.isa.assembler import AssemblyError, assemble
from repro.isa.instruction import Instruction
from repro.isa.operations import OPCODES, Operation, Unit
from repro.isa.registers import (
    NUM_CLUSTERS,
    NUM_GCC_REGS,
    NUM_INT_REGS,
    RegFile,
    RegisterRef,
    is_register,
    pack_regspec,
    parse_register,
    unpack_regspec,
)


class TestRegisterParsing:
    def test_integer_register(self):
        ref = parse_register("i3")
        assert ref.file is RegFile.INT
        assert ref.index == 3
        assert ref.cluster is None

    def test_floating_register(self):
        ref = parse_register("f15")
        assert ref.file is RegFile.FP
        assert ref.index == 15

    def test_condition_code_register(self):
        assert parse_register("cc2").file is RegFile.CC

    def test_global_condition_code_register(self):
        ref = parse_register("gcc7")
        assert ref.file is RegFile.GCC
        assert ref.index == 7

    def test_message_composition_register(self):
        assert parse_register("m0").file is RegFile.MC

    def test_cluster_qualified_register(self):
        ref = parse_register("c2.i5")
        assert ref.cluster == 2
        assert ref.file is RegFile.INT
        assert ref.index == 5
        assert ref.is_remote

    def test_local_strips_cluster(self):
        assert parse_register("c1.f3").local() == RegisterRef(RegFile.FP, 3)

    @pytest.mark.parametrize("name", ["net", "evq", "nid", "cid", "vid", "zero"])
    def test_special_registers(self, name):
        ref = parse_register(name)
        assert ref.is_special
        assert str(ref) == name

    def test_queue_classification(self):
        assert parse_register("net").is_queue
        assert parse_register("evq").is_queue
        assert not parse_register("nid").is_queue
        assert parse_register("nid").is_identity

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            parse_register(f"i{NUM_INT_REGS}")

    def test_gcc_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            parse_register(f"gcc{NUM_GCC_REGS}")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            parse_register("bogus7")

    def test_cluster_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            parse_register(f"c{NUM_CLUSTERS}.i0")

    def test_special_cannot_be_cluster_qualified(self):
        with pytest.raises(ValueError):
            parse_register("c1.net")

    def test_is_register_predicate(self):
        assert is_register("i0")
        assert is_register("c3.f2")
        assert not is_register("42")
        assert not is_register("loop")

    def test_str_roundtrip(self):
        for text in ["i0", "f7", "cc1", "gcc5", "m3", "c2.i4", "net"]:
            assert str(parse_register(text)) == text


class TestRegspecPacking:
    def test_roundtrip(self):
        ref = RegisterRef(RegFile.FP, 9)
        spec = pack_regspec(3, 2, ref)
        vthread, cluster, unpacked = unpack_regspec(spec)
        assert (vthread, cluster, unpacked) == (3, 2, ref)

    def test_distinct_specs(self):
        specs = {
            pack_regspec(vt, cl, RegisterRef(RegFile.INT, idx))
            for vt in range(6)
            for cl in range(4)
            for idx in range(16)
        }
        assert len(specs) == 6 * 4 * 16

    def test_special_register_rejected(self):
        with pytest.raises(ValueError):
            pack_regspec(0, 0, parse_register("net"))

    def test_fits_in_16_bits(self):
        spec = pack_regspec(5, 3, RegisterRef(RegFile.MC, 7))
        assert 0 <= spec < (1 << 16)


class TestOpcodeTable:
    def test_expected_opcodes_present(self):
        for name in ["add", "sub", "mul", "ld", "st", "send", "sendp", "fadd", "fmul",
                     "br", "brz", "jmp", "halt", "empty", "xregwr", "ltlbw", "gprobe",
                     "ld.fe", "st.ef", "pld", "pst", "setptr", "lea"]:
            assert name in OPCODES, name

    def test_memory_ops_restricted_to_memory_unit(self):
        assert OPCODES["ld"].units == (Unit.MEM,)
        assert OPCODES["send"].units == (Unit.MEM,)

    def test_integer_ops_allowed_on_both_integer_units(self):
        assert set(OPCODES["add"].units) == {Unit.IALU, Unit.MEM}

    def test_fp_ops_on_fpu_only(self):
        assert OPCODES["fadd"].units == (Unit.FPU,)

    def test_privileged_flags(self):
        assert OPCODES["xregwr"].privileged
        assert OPCODES["ltlbw"].privileged
        assert OPCODES["sendp"].privileged
        assert not OPCODES["send"].privileged
        assert not OPCODES["ld"].privileged

    def test_branch_flags(self):
        for name in ("br", "brz", "jmp", "halt"):
            assert OPCODES[name].is_branch

    def test_store_flags(self):
        assert OPCODES["st"].is_store
        assert OPCODES["st.ef"].is_store
        assert not OPCODES["ld"].is_store

    def test_latencies_positive(self):
        assert all(op.latency >= 1 for op in OPCODES.values())

    def test_multiply_slower_than_add(self):
        assert OPCODES["mul"].latency > OPCODES["add"].latency
        assert OPCODES["fdiv"].latency > OPCODES["fadd"].latency


class TestAssembler:
    def test_simple_program(self):
        program = assemble("add i1, i2, i3\nhalt")
        assert len(program) == 2
        assert program[0].ops[Unit.IALU].name == "add"

    def test_three_wide_instruction(self):
        program = assemble("add i1, i2, #1 | ld f2, i3 | fadd f1, f2, f3")
        instr = program[0]
        assert len(instr) == 3
        assert instr.ops[Unit.IALU].name == "add"
        assert instr.ops[Unit.MEM].name == "ld"
        assert instr.ops[Unit.FPU].name == "fadd"

    def test_two_integer_ops_use_memory_unit(self):
        program = assemble("add i1, i2, #1 | sub i3, i4, #2")
        instr = program[0]
        assert instr.ops[Unit.IALU].name == "add"
        assert instr.ops[Unit.MEM].name == "sub"

    def test_slot_overcommit_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("fadd f1, f2, f3 | fmul f4, f5, f6")
        with pytest.raises(AssemblyError):
            assemble("ld i1, i2 | st i3, i4")
        with pytest.raises(AssemblyError):
            assemble("add i1, i1, #1 | sub i2, i2, #1 | or i3, i3, #1")

    def test_labels_resolve(self):
        program = assemble("""
loop:   add i1, i1, #1
        br cc0, loop
        halt
""")
        assert program.labels["loop"] == 0
        branch = program[1].ops[Unit.IALU]
        assert branch.target == 0

    def test_label_on_own_line(self):
        program = assemble("start:\n  add i1, i1, #1\n  jmp start")
        assert program.labels["start"] == 0
        assert program[1].ops[Unit.IALU].target == 0

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("br cc0, nowhere")

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("a: nop\na: nop")

    def test_unknown_opcode_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("frobnicate i1, i2")

    def test_bad_operand_count_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("mov i1")
        with pytest.raises(AssemblyError):
            assemble("jmp")

    def test_comments_and_blank_lines_ignored(self):
        program = assemble("""
        ; a comment

        add i1, i1, #1    ; trailing comment
""")
        assert len(program) == 1

    def test_immediates(self):
        program = assemble("mov i1, #42\nmov i2, #-7\nmov i3, #0x1f\nfmov f1, #2.5")
        assert program[0].ops[Unit.IALU].srcs == [42]
        assert program[1].ops[Unit.IALU].srcs == [-7]
        assert program[2].ops[Unit.IALU].srcs == [31]
        assert program[3].ops[Unit.FPU].srcs == [2.5]

    def test_bare_integer_immediate(self):
        program = assemble("mov i1, 5")
        assert program[0].ops[Unit.IALU].srcs == [5]

    def test_store_has_no_destination(self):
        program = assemble("st i1, i2, #4")
        op = program[0].ops[Unit.MEM]
        assert op.dests == []
        assert len(op.srcs) == 3

    def test_empty_lists_all_destinations(self):
        program = assemble("empty f1, f2, gcc3")
        op = program[0].ops[Unit.IALU]
        assert [str(d) for d in op.dests] == ["f1", "f2", "gcc3"]

    def test_queue_register_cannot_be_destination(self):
        with pytest.raises(AssemblyError):
            assemble("mov net, i1")

    def test_immediate_destination_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("add #1, i2, i3")

    def test_remote_register_destination(self):
        program = assemble("fadd c1.f2, f3, f4")
        dest = program[0].ops[Unit.FPU].dests[0]
        assert dest.cluster == 1

    def test_send_operands(self):
        program = assemble("send i1, #3, #2, #0")
        op = program[0].ops[Unit.MEM]
        assert op.opcode.is_send
        assert op.srcs[1:] == [3, 2, 0]

    def test_program_listing(self):
        program = assemble("loop: add i1, i1, #1\n jmp loop", name="listing-test")
        text = program.listing()
        assert "loop:" in text
        assert "add" in text

    def test_length_and_operation_count(self):
        program = assemble("add i1, i1, #1 | fadd f1, f1, f2\nhalt")
        assert len(program.instructions) == 2
        assert program.operation_count == 3

    def test_label_at_end_points_past_last_instruction(self):
        program = assemble("nop\nend:")
        assert program.labels["end"] == 1

    def test_instruction_str(self):
        program = assemble("add i1, i2, #3 | ld f1, i4")
        assert "add" in str(program[0])
        assert "ld" in str(program[0])


class TestInstruction:
    def test_add_duplicate_slot_rejected(self):
        instr = Instruction()
        op = Operation(opcode=OPCODES["add"])
        instr.add(op, Unit.IALU)
        with pytest.raises(ValueError):
            instr.add(Operation(opcode=OPCODES["sub"]), Unit.IALU)

    def test_operation_str_includes_immediates(self):
        op = assemble("add i1, i2, #5")[0].ops[Unit.IALU]
        assert "#5" in str(op)
