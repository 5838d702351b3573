"""Whole-machine integration tests of single-node execution: arithmetic,
control flow, memory operations, intra-node parallelism (H-Threads,
V-Threads, global CC registers) and exception behaviour."""

import pytest

from repro import MMachine, MachineConfig, EVENT_SLOT
from repro.cluster.dispatch import SimulationError
from repro.cluster.hthread import ThreadState
from repro.memory.page_table import BlockStatus
from repro.workloads.microbench import (
    cc_barrier_programs,
    cc_loop_sync_programs,
    compute_loop_program,
    dependent_load_chain_program,
    build_pointer_chain,
)


HEAP = 0x10000


def single_node(**runtime_overrides):
    config = MachineConfig.single_node()
    for key, value in runtime_overrides.items():
        setattr(config.runtime, key, value)
    machine = MMachine(config)
    machine.map_on_node(0, HEAP, num_pages=16)
    return machine


class TestBasicExecution:
    def test_arithmetic_program(self):
        machine = single_node()
        machine.load_hthread(0, 0, 0, """
            mov i1, #6
            mov i2, #7
            mul i3, i1, i2
            add i3, i3, #1
            halt
        """)
        machine.run_until_user_done()
        assert machine.register_value(0, 0, 0, "i3") == 43

    def test_floating_point_program(self):
        machine = single_node()
        machine.load_hthread(0, 0, 0, """
            fmov f1, #1.5
            fmov f2, #2.0
            fmul f3, f1, f2
            fadd f3, f3, #0.5
            halt
        """)
        machine.run_until_user_done()
        assert machine.register_value(0, 0, 0, "f3") == pytest.approx(3.5)

    def test_loop_with_branch(self):
        machine = single_node()
        machine.load_hthread(0, 0, 0, compute_loop_program(10))
        machine.run_until_user_done()
        assert machine.register_value(0, 0, 0, "i5") == 30

    def test_brz_and_jmp(self):
        machine = single_node()
        machine.load_hthread(0, 0, 0, """
            mov i1, #0
            brz i1, taken
            mov i2, #111
            halt
taken:      mov i2, #222
            jmp finish
            mov i2, #333
finish:     halt
        """)
        machine.run_until_user_done()
        assert machine.register_value(0, 0, 0, "i2") == 222

    def test_load_store_roundtrip(self):
        machine = single_node()
        machine.write_word(HEAP + 4, 99)
        machine.load_hthread(0, 0, 0, """
            ld i2, i1, #4
            add i2, i2, #1
            st i2, i1, #5
            halt
        """, registers={"i1": HEAP})
        machine.run_until_user_done()
        assert machine.read_word(HEAP + 5) == 100

    def test_identity_registers(self):
        machine = single_node()
        machine.load_hthread(0, 2, 1, "mov i1, nid | mov i2, cid\nmov i3, vid\nhalt")
        machine.run_until_user_done()
        assert machine.register_value(0, 2, 1, "i1") == 0
        assert machine.register_value(0, 2, 1, "i2") == 1
        assert machine.register_value(0, 2, 1, "i3") == 2

    def test_three_wide_instruction_issues_together(self):
        machine = single_node()
        machine.write_word(HEAP, 5)
        machine.load_hthread(0, 0, 0, """
            add i2, i3, #1 | ld i4, i1 | fadd f2, f3, #1.0
            halt
        """, registers={"i1": HEAP, "i3": 10, "f3": 2.0})
        machine.run_until_user_done()
        assert machine.register_value(0, 0, 0, "i2") == 11
        assert machine.register_value(0, 0, 0, "i4") == 5
        assert machine.register_value(0, 0, 0, "f2") == pytest.approx(3.0)

    def test_running_off_program_end_halts(self):
        machine = single_node()
        machine.load_hthread(0, 0, 0, "add i1, i1, #1")
        machine.run_until_user_done()
        assert machine.thread_halted(0, 0, 0)

    def test_mark_operation_traced(self):
        machine = single_node()
        machine.load_hthread(0, 0, 0, "mark #7\nhalt")
        machine.run_until_user_done()
        marks = machine.tracer.filter("mark")
        assert marks and marks[0].marker == 7

    def test_load_latency_is_three_cycles_on_hit(self):
        """Table 1: local cache hit read = 3 cycles (dependent instruction
        issues three cycles after the load)."""
        machine = single_node()
        machine.write_word(HEAP, HEAP)   # the word points at itself
        machine.load_hthread(0, 0, 0, """
            ld i2, i1
            ld i3, i2
            halt
        """, registers={"i1": HEAP})
        machine.run_until_user_done()
        issues = [event for event in machine.tracer.filter("mem_issue", node=0)]
        writes = [event for event in machine.tracer.filter("reg_write", node=0)
                  if event.info["reg"] == "i3"]
        # The second load (issued only once the first completed) hits in the
        # cache line the first load brought in.
        assert writes[0].cycle - issues[1].cycle == 3


class TestIntraNodeParallelism:
    def test_inter_cluster_register_write(self):
        machine = single_node()
        machine.load_vthread(0, 0, {
            0: "mov c1.i4, #55\nhalt",
            1: "empty i4\nmov i5, i4\nhalt",
        })
        machine.run_until_user_done()
        assert machine.register_value(0, 0, 1, "i5") == 55

    def test_receiver_blocks_until_transfer_arrives(self):
        machine = single_node()
        machine.load_vthread(0, 0, {
            0: "mov i1, #0\n" + "add i1, i1, #1\n" * 10 + "mov c1.i4, i1\nhalt",
            1: "empty i4\nmov i5, i4\nhalt",
        })
        machine.run_until_user_done()
        assert machine.register_value(0, 0, 1, "i5") == 10

    def test_gcc_broadcast_visible_on_all_clusters(self):
        machine = single_node()
        programs = {0: "mov gcc1, #1\nhalt"}
        for cluster in (1, 2, 3):
            programs[cluster] = "empty gcc1\nmov i5, gcc1\nhalt"
        machine.load_vthread(0, 0, programs)
        machine.run_until_user_done()
        for cluster in (1, 2, 3):
            assert machine.register_value(0, 0, cluster, "i5") == 1

    def test_figure6_loop_synchronisation(self):
        machine = single_node()
        machine.load_vthread(0, 0, cc_loop_sync_programs(8))
        machine.run_until_user_done(max_cycles=20000)
        assert machine.register_value(0, 0, 0, "i2") == 8
        assert machine.register_value(0, 0, 1, "i2") == 8
        assert machine.thread_halted(0, 0, 0) and machine.thread_halted(0, 0, 1)

    def test_four_way_cc_barrier(self):
        machine = single_node()
        machine.load_vthread(0, 0, cc_barrier_programs(6))
        machine.run_until_user_done(max_cycles=40000)
        for cluster in range(4):
            assert machine.register_value(0, 0, cluster, "i2") == 6

    def test_vthreads_share_cluster(self):
        machine = single_node()
        machine.load_hthread(0, 0, 0, compute_loop_program(20))
        machine.load_hthread(0, 1, 0, compute_loop_program(20))
        machine.run_until_user_done(max_cycles=20000)
        assert machine.register_value(0, 0, 0, "i5") == 60
        assert machine.register_value(0, 1, 0, "i5") == 60
        # Both ran on cluster 0 by interleaving, so issue counts are split.
        by_slot = machine.nodes[0].clusters[0].issue_by_slot
        assert by_slot[0] > 0 and by_slot[1] > 0

    def test_vthread_interleaving_masks_memory_latency(self):
        """Two pointer-chasing threads finish in much less than twice the
        time of one, because the cluster issues the other thread's loads
        while one waits (Section 3.2)."""
        chain_words = build_pointer_chain(length=16, base_address=HEAP, stride=8)

        def run(num_threads):
            machine = single_node()
            for address, value in chain_words:
                machine.write_word(address, value)
            for slot in range(num_threads):
                machine.load_hthread(0, slot, 0, dependent_load_chain_program(16),
                                     registers={"i1": HEAP})
            machine.run_until_user_done(max_cycles=40000)
            return machine.cycle

        one = run(1)
        two = run(2)
        assert two < 2 * one * 0.8

    def test_single_thread_issues_every_cycle_with_default_policy(self):
        machine = single_node()
        machine.load_hthread(0, 0, 0, "\n".join(["add i1, i1, #1"] * 20 + ["halt"]))
        machine.run_until_user_done()
        cluster = machine.nodes[0].clusters[0]
        context = cluster.context(0)
        # 21 instructions in at most a couple of cycles more than 21.
        assert context.instructions_issued == 21
        assert context.halt_cycle - context.start_cycle <= 22

    def test_hep_policy_degrades_single_thread(self):
        """Section 3.4: HEP/MASA-style barrel scheduling degrades single
        thread performance; the MAP's zero-cost interleaving does not."""
        def run(policy):
            config = MachineConfig.single_node()
            config.cluster.issue_policy = policy
            machine = MMachine(config)
            machine.load_hthread(0, 0, 0, compute_loop_program(50))
            machine.run_until_user_done(max_cycles=40000)
            return machine.cycle

        assert run("hep") > 2 * run("event-priority")


class TestLongLatencyQuiescence:
    """``div`` and ``mod`` take 8 cycles and ``fdiv`` 10, longer than the
    quiescence settle window: the run waits for the result to land."""

    @pytest.mark.parametrize("program, registers, dest, expected, cycle", [
        ("div i3, i1, i2\nadd i4, i3, #1\nhalt", {"i1": 7, "i2": 2}, "i4", 4, 14),
        ("mod i3, i1, i2\nadd i4, i3, #1\nhalt", {"i1": 7, "i2": 2}, "i4", 2, 14),
        ("fdiv f3, f1, f2\nfadd f4, f3, #1.0\nhalt", {"f1": 7.0, "f2": 2.0}, "f4", 4.5, 17),
    ], ids=["div", "mod", "fdiv"])
    @pytest.mark.parametrize("kernel", ["event", "naive"])
    def test_run_until_quiescent_waits_for_the_result(
        self, kernel, program, registers, dest, expected, cycle
    ):
        config = MachineConfig.single_node()
        config.sim.kernel = kernel
        machine = MMachine(config)
        machine.load_hthread(0, 0, 0, program, registers=registers)
        assert machine.run_until_quiescent() == cycle
        assert machine.nodes[0].context(0, 0).state is ThreadState.HALTED
        assert machine.register_value(0, 0, 0, dest) == expected


class TestExceptions:
    def test_divide_by_zero_faults_thread(self):
        machine = single_node()
        machine.load_hthread(0, 0, 0, "mov i1, #0\ndiv i2, i3, i1\nhalt",
                             registers={"i3": 5})
        machine.run_until_quiescent()
        context = machine.nodes[0].context(0, 0)
        assert context.state is ThreadState.FAULTED
        assert machine.nodes[0].exception_queues[0].pending_records == 1

    def test_privileged_op_from_user_slot_faults(self):
        machine = single_node()
        machine.load_hthread(0, 0, 0, "xregwr i1, i2\nhalt")
        machine.run_until_quiescent()
        assert machine.nodes[0].context(0, 0).state is ThreadState.FAULTED
        assert machine.tracer.count("exception") == 1

    def test_privileged_op_allowed_in_event_slot(self):
        machine = single_node()
        # Use an unused event-slot H-Thread (cluster 0 has no handler program
        # loaded in 'remote' mode on a single-node machine? it does not --
        # cluster 0 hosts the native sync handler, which is not a program).
        machine.load_hthread(0, EVENT_SLOT, 0, "gprobe i1, i2\nhalt",
                             registers={"i2": HEAP})
        machine.run_until_quiescent()
        assert machine.register_value(0, EVENT_SLOT, 0, "i1") == 0

    def test_gcc_pair_violation_faults(self):
        machine = single_node()
        # Cluster 0 may only broadcast to gcc0/gcc1.
        machine.load_hthread(0, 0, 0, "mov gcc4, #1\nhalt")
        machine.run_until_quiescent()
        assert machine.nodes[0].context(0, 0).state is ThreadState.FAULTED

    def test_sync_load_blocks_until_producer_stores(self):
        """Producer/consumer through the per-word synchronization bit: the
        consumer's ld.ff faults until the producer's st.xf sets the bit; the
        default sync-fault handler retries it."""
        machine = single_node()
        machine.write_word(HEAP + 32, 0, sync_bit=0)
        machine.load_hthread(0, 0, 0, """
            ld.ff i5, i1
            halt
        """, registers={"i1": HEAP + 32})
        machine.load_hthread(0, 1, 0, """
            mov i2, #0
wait:       add i2, i2, #1
            lt i3, i2, #40
            br i3, wait
            st.xf i4, i1
            halt
        """, registers={"i1": HEAP + 32, "i4": 1234})
        machine.run_until_user_done(max_cycles=40000)
        assert machine.register_value(0, 0, 0, "i5") == 1234
        assert machine.nodes[0].memory.sync_faults >= 1


class TestPrivilegedOperations:
    """The privileged operations that no runtime handler issues, run from the
    event slot with no runtime installed and one page mapped at ``HEAP``."""

    PROGRAM = """
        nop
        syncset i1, #1
        bsset i2, #1
        bsget i3, i2
        ltlbp i4, i2
        ltlbp i5, i6
        halt
    """
    UNMAPPED = 0x900000

    def _machine(self, kernel, program, registers):
        config = MachineConfig.single_node()
        config.runtime.shared_memory_mode = "none"
        config.sim.kernel = kernel
        machine = MMachine(config)
        machine.map_on_node(0, HEAP, num_pages=1)
        machine.load_hthread(0, EVENT_SLOT, 0, program, registers=registers)
        return machine

    @pytest.mark.parametrize("kernel", ["event", "naive"])
    def test_operation_table(self, kernel):
        machine = self._machine(kernel, self.PROGRAM,
                                {"i1": HEAP + 8, "i2": HEAP, "i6": self.UNMAPPED})
        memory = machine.nodes[0].memory

        def sync_bit():
            # No access caches the word, so its bit lives in SDRAM only.
            assert memory.cache.probe(HEAP + 8) is None
            return memory.sdram.sync_bit(memory.translate(HEAP + 8))

        assert sync_bit() == 0
        assert machine.run_until_quiescent() == 11
        assert machine.thread_halted(0, EVENT_SLOT, 0)
        observed = {
            "syncset: sync bit of HEAP + 8": sync_bit(),
            "bsget after bsset #1": machine.register_value(0, EVENT_SLOT, 0, "i3"),
            "ltlbp of a mapped address": machine.register_value(0, EVENT_SLOT, 0, "i4"),
            "ltlbp of an unmapped address": machine.register_value(0, EVENT_SLOT, 0, "i5"),
        }
        assert observed == {
            "syncset: sync bit of HEAP + 8": 1,
            "bsget after bsset #1": BlockStatus.READ_ONLY,
            "ltlbp of a mapped address": 0,
            "ltlbp of an unmapped address": -1,
        }
        # A bsset on an unmapped address or with a status outside the two
        # bits is a malformed operand: it names the instruction like every
        # other execution-time malformation.
        for instruction, address, message in (
            ("bsset i2, #1", self.UNMAPPED, "bsset: no mapping for 0x900000 on node 0"),
            ("bsset i2, #7", HEAP, "7 is not a valid BlockStatus"),
        ):
            machine = self._machine(kernel, instruction + "\nhalt", {"i2": address})
            with pytest.raises(SimulationError) as caught:
                machine.run_until_quiescent()
            assert str(caught.value) == f"{message} (instruction {instruction})"
