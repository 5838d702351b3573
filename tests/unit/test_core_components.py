"""Unit tests for the remaining building blocks: crossbars, event queues,
register files, the instruction cache, functional units, issue policies,
configuration validation, the tracer/stats, the area model and the paper's
Table 1 values."""

import pytest

from repro.cluster.functional_units import ArithmeticFault, evaluate, value_evaluator
from repro.cluster.hthread import HThreadContext, ThreadState
from repro.cluster.icache import (
    ICACHE_WORDS,
    WORDS_PER_INSTRUCTION,
    CapacityError,
    InstructionCache,
)
from repro.cluster.issue import EventPriorityPolicy, HepBarrelPolicy, RoundRobinPolicy, make_issue_policy
from repro.cluster.regfile import RegisterSet
from repro.core.area_model import AreaModel, TECH_1993, TECH_1996
from repro.core.config import (
    ClusterConfig,
    EVENT_SLOT,
    EXCEPTION_SLOT,
    MachineConfig,
    NUM_CLUSTERS,
    NUM_VTHREAD_SLOTS,
)
from repro.core.machine import MMachine
from repro.core.stats import format_table
from repro.core.trace import Tracer
from repro.events.queue import EventQueue, HardwareQueue, QueueUnderflowError
from repro.events.records import (
    EVENT_RECORD_WORDS,
    INFO_CLUSTER_SHIFT,
    INFO_IS_FP_SHIFT,
    INFO_IS_STORE_SHIFT,
    INFO_REGSPEC_MASK,
    INFO_SYNC_POST_SHIFT,
    INFO_SYNC_PRE_SHIFT,
    INFO_VTHREAD_SHIFT,
    EventRecord,
    EventType,
)
from repro.isa.assembler import assemble
from repro.isa.registers import NUM_GCC_REGS, parse_register
from repro.memory import BLOCK_SIZE_WORDS, PAGE_SIZE_WORDS
from repro.memory.cache import BANK_SIZE_WORDS, NUM_BANKS
from repro.memory.sdram import SDRAM_SIZE_WORDS
from repro.memory.guarded_pointer import GuardedPointer, PointerPermission, ProtectionError
from repro.report.expected import PAPER_REMOTE_READ_STEPS, PAPER_TABLE1
from repro.switches.crossbar import BROADCAST, Crossbar
from repro.workloads.microbench import (
    build_pointer_chain,
    compute_loop_program,
    dependent_load_chain_program,
)


class TestCrossbar:
    def test_latency(self):
        crossbar = Crossbar()
        crossbar.submit(2, "payload", cycle=0)
        assert crossbar.deliver(0) == []
        assert crossbar.deliver(1) == [(2, "payload")]

    def test_one_delivery_per_port_per_cycle(self):
        crossbar = Crossbar()
        for dest in range(NUM_CLUSTERS):
            crossbar.submit(dest, ("first", dest), cycle=0)
            crossbar.submit(dest, ("second", dest), cycle=0)
        first = crossbar.deliver(1)
        second = crossbar.deliver(2)
        assert sorted(first) == [(dest, ("first", dest)) for dest in range(NUM_CLUSTERS)]
        assert sorted(second) == [(dest, ("second", dest)) for dest in range(NUM_CLUSTERS)]
        assert crossbar.contention_stalls == NUM_CLUSTERS
        assert crossbar.busiest_cycle_transfers == NUM_CLUSTERS

    def test_one_delivery_per_destination_per_cycle(self):
        crossbar = Crossbar()
        crossbar.submit(0, "a", cycle=0)
        crossbar.submit(0, "b", cycle=0)
        assert [p for _, p in crossbar.deliver(1)] == ["a"]
        assert [p for _, p in crossbar.deliver(2)] == ["b"]

    def test_broadcast_reaches_all_ports(self):
        crossbar = Crossbar()
        crossbar.submit(BROADCAST, "flag", cycle=0)
        delivered = crossbar.deliver(1)
        assert sorted(port for port, _ in delivered) == [0, 1, 2, 3]
        assert all(payload == "flag" for _, payload in delivered)

    def test_ready_broadcast_takes_the_cycle_from_ready_unicasts(self):
        crossbar = Crossbar()
        crossbar.submit(0, "u0", cycle=0)
        crossbar.submit(BROADCAST, "flag", cycle=0)
        crossbar.submit(3, "u3", cycle=0)
        assert crossbar.deliver(1) == [(port, "flag") for port in range(NUM_CLUSTERS)]
        assert crossbar.contention_stalls == 2
        assert sorted(crossbar.deliver(2)) == [(0, "u0"), (3, "u3")]
        assert crossbar.pending == 0

    def test_unready_broadcast_does_not_hold_back_unicasts(self):
        crossbar = Crossbar()
        crossbar.submit(2, "u2", cycle=0)
        crossbar.submit(BROADCAST, "flag", cycle=1)
        assert crossbar.deliver(1) == [(2, "u2")]
        assert crossbar.deliver(2) == [(port, "flag") for port in range(NUM_CLUSTERS)]
        assert crossbar.contention_stalls == 0

    def test_fifo_order_per_destination(self):
        crossbar = Crossbar()
        for value in range(3):
            crossbar.submit(0, value, cycle=0)
        seen = []
        for cycle in range(1, 4):
            seen.extend(payload for _, payload in crossbar.deliver(cycle))
        assert seen == [0, 1, 2]

    def test_invalid_destination_rejected(self):
        crossbar = Crossbar()
        with pytest.raises(ValueError):
            crossbar.submit(NUM_CLUSTERS, "x", cycle=0)

    def test_pending_count(self):
        crossbar = Crossbar()
        crossbar.submit(0, "x", 0)
        assert crossbar.pending == 1
        crossbar.deliver(1)
        assert crossbar.pending == 0


class TestQueuesAndRecords:
    def test_hardware_queue_fifo(self):
        queue = HardwareQueue(4)
        assert queue.push_words([1, 2, 3])
        assert queue.pop_word() == 1
        assert len(queue) == 2

    def test_hardware_queue_rejects_overflow_atomically(self):
        queue = HardwareQueue(2)
        assert not queue.push_words([1, 2, 3])
        assert queue.is_empty
        assert queue.overflow_rejections == 1

    def test_pop_empty_raises(self):
        def partly_consumed_record():
            queue = EventQueue(2)
            assert queue.push_record(EventRecord(event_type=EventType.LTLB_MISS))
            queue.pop_word()
            return queue.pop_record

        underflows = {
            "pop_word, empty queue": HardwareQueue(2).pop_word,
            "pop_record, empty queue": EventQueue(2).pop_record,
            "pop_record, partly consumed record": partly_consumed_record(),
        }
        for pop in underflows.values():
            with pytest.raises(QueueUnderflowError):
                pop()

    def test_event_record_word_layout(self):
        record = EventRecord(event_type=EventType.LTLB_MISS, address=0x1234, data=55,
                             regspec=0x1F, is_store=True, sync_pre="f", sync_post="e",
                             vthread=3, cluster=2, is_fp=True)
        type_word, address, data, info = record.to_words()
        assert EventType(type_word) is EventType.LTLB_MISS
        assert (address, data) == (0x1234, 55)
        assert info & INFO_REGSPEC_MASK == 0x1F
        assert (info >> INFO_IS_STORE_SHIFT) & 1 == 1
        assert (info >> INFO_SYNC_PRE_SHIFT) & 0x3 == 1  # full
        assert (info >> INFO_SYNC_POST_SHIFT) & 0x3 == 2  # empty
        assert (info >> INFO_VTHREAD_SHIFT) & 0xF == 3
        assert (info >> INFO_CLUSTER_SHIFT) & 0x7 == 2
        assert (info >> INFO_IS_FP_SHIFT) & 1 == 1

    def test_event_record_length(self):
        record = EventRecord(event_type=EventType.SYNC_FAULT)
        assert len(record.to_words()) == EVENT_RECORD_WORDS

    def test_event_queue_records_and_words(self):
        queue = EventQueue(capacity_records=2)
        record = EventRecord(event_type=EventType.LTLB_MISS, address=7)
        assert queue.push_record(record)
        assert queue.pending_records == 1
        words = [queue.pop_word() for _ in range(EVENT_RECORD_WORDS)]
        assert words == record.to_words()
        assert queue.pending_records == 0

    def test_event_queue_pop_record(self):
        queue = EventQueue(capacity_records=2)
        record = EventRecord(event_type=EventType.BLOCK_STATUS, address=9)
        queue.push_record(record)
        assert queue.pop_record() is record

    def test_event_queue_capacity(self):
        queue = EventQueue(capacity_records=1)
        assert queue.push_record(EventRecord(event_type=EventType.LTLB_MISS))
        assert not queue.push_record(EventRecord(event_type=EventType.LTLB_MISS))


class TestRegisterSet:
    def test_read_write_and_scoreboard(self):
        registers = RegisterSet()
        ref = parse_register("i3")
        offset = registers.flat_offset(ref)
        registers._full[offset] = False
        assert not registers.is_full(ref)
        registers.write(ref, 42)
        assert registers.peek(ref) == 42
        assert registers.is_full(ref)
        assert registers.writes == 1

    def test_pending_counts(self):
        registers = RegisterSet()
        ref = parse_register("f1")
        offset = registers.flat_offset(ref)
        registers._pending[offset] = 2
        registers.clear_pending(ref)
        assert registers._pending[offset] == 1
        registers.clear_pending(ref)
        registers.clear_pending(ref)
        assert registers._pending[offset] == 0

    def test_set_initial(self):
        registers = RegisterSet()
        registers.set_initial({"i1": 10, "f2": 1.5})
        assert registers.peek(parse_register("i1")) == 10
        assert registers.peek(parse_register("f2")) == 1.5
        assert registers.is_full(parse_register("i1"))

    def test_special_register_rejected(self):
        registers = RegisterSet()
        with pytest.raises(ValueError):
            registers.peek(parse_register("net"))


class TestInstructionCache:
    def test_capacity_enforced(self):
        icache = InstructionCache()
        icache.load(0, assemble("nop\n" * (ICACHE_WORDS // WORDS_PER_INSTRUCTION)))
        assert icache.words_used == ICACHE_WORDS
        with pytest.raises(CapacityError):
            icache.load(1, assemble("nop"))


class TestFunctionalUnits:
    """The value semantics the dispatch compiler looks up per opcode."""

    @staticmethod
    def _evaluate(source, values):
        name = assemble(source)[0].operations[0].opcode.name
        return evaluate(name, value_evaluator(name), values)

    @pytest.mark.parametrize("source, values, expected", [
        ("add i1, i2, i3", [2, 3], 5),
        ("sub i1, i2, i3", [2, 3], -1),
        ("mul i1, i2, i3", [4, 3], 12),
        ("div i1, i2, i3", [7, 2], 3),
        ("mod i1, i2, i3", [7, 2], 1),
        ("and i1, i2, i3", [0b1100, 0b1010], 0b1000),
        ("or i1, i2, i3", [0b1100, 0b1010], 0b1110),
        ("xor i1, i2, i3", [0b1100, 0b1010], 0b0110),
        ("shl i1, i2, #4", [3, 4], 48),
        ("shr i1, i2, #2", [12, 2], 3),
        ("eq i1, i2, i3", [5, 5], 1),
        ("ne i1, i2, i3", [5, 5], 0),
        ("lt i1, i2, i3", [2, 5], 1),
        ("ge i1, i2, i3", [2, 5], 0),
        ("min i1, i2, i3", [2, 5], 2),
        ("max i1, i2, i3", [2, 5], 5),
        ("neg i1, i2", [4], -4),
        ("mov i1, i2", [17], 17),
        ("fadd f1, f2, f3", [1.5, 2.5], 4.0),
        ("fsub f1, f2, f3", [1.5, 0.5], 1.0),
        ("fmul f1, f2, f3", [3.0, 2.0], 6.0),
        ("fdiv f1, f2, f3", [3.0, 2.0], 1.5),
        ("fmadd f1, f2, f3, f4", [2.0, 3.0, 1.0], 7.0),
        ("itof f1, i2", [3], 3.0),
        ("ftoi i1, f2", [3.7], 3),
        ("feq cc1, f2, f3", [1.0, 1.0], 1),
        ("flt cc1, f2, f3", [2.0, 1.0], 0),
    ])
    def test_arithmetic(self, source, values, expected):
        assert self._evaluate(source, values) == expected

    def test_division_by_zero_faults(self):
        with pytest.raises(ArithmeticFault):
            self._evaluate("div i1, i2, i3", [1, 0])
        with pytest.raises(ArithmeticFault):
            self._evaluate("fdiv f1, f2, f3", [1.0, 0.0])

    def test_lea_checks_guarded_pointer_bounds(self):
        pointer = GuardedPointer(0x100, 3, PointerPermission.rw())
        result = self._evaluate("lea i1, i2, #4", [pointer, 4])
        assert result.address == 0x104
        with pytest.raises(ProtectionError):
            self._evaluate("lea i1, i2, #4", [pointer, 64])

    def test_lea_on_plain_integer(self):
        assert self._evaluate("lea i1, i2, #4", [100, 4]) == 104

    def test_setptr_and_ptrinfo(self):
        pointer = self._evaluate("setptr i1, i2, i3, i4",
                                 [0x200, 5, int(PointerPermission.rw())])
        assert isinstance(pointer, GuardedPointer)
        assert self._evaluate("ptrinfo i1, i2, #1", [pointer, 1]) == 5
        assert self._evaluate("ptrinfo i1, i2, #2", [pointer, 2]) == int(
            PointerPermission.rw())

    def test_memory_operation_has_no_value_semantics(self):
        assert value_evaluator(assemble("ld i1, i2")[0].operations[0].opcode.name) is None


class TestIssuePolicies:
    @staticmethod
    def _scan(policy, cycle, resident):
        """The resident slots in *policy*'s scan order for *cycle*."""
        return [slot for slot in policy.orders[policy.scan_key(cycle)] if slot in resident]

    def test_event_priority_orders_handler_slots_first(self):
        policy = EventPriorityPolicy(NUM_VTHREAD_SLOTS)
        order = policy.orders[policy.scan_key(0)]
        assert order[:2] == (EXCEPTION_SLOT, EVENT_SLOT)

    def test_round_robin_rotates(self):
        policy = RoundRobinPolicy(NUM_VTHREAD_SLOTS)
        first = self._scan(policy, 0, [0, 1, 2])
        policy.issued(first[0])
        second = self._scan(policy, 1, [0, 1, 2])
        assert first[0] != second[0]

    def test_hep_barrel_rotates_over_all_contexts(self):
        policy = HepBarrelPolicy(NUM_VTHREAD_SLOTS)
        offers = [self._scan(policy, cycle, [0, 3]) for cycle in range(NUM_VTHREAD_SLOTS)]
        # Only the cycles whose turn lands on a resident slot offer anything,
        # which is the HEP-style single-thread slowdown of Section 3.4.
        assert offers[0] == [0]
        assert offers[3] == [3]
        assert sum(len(offer) for offer in offers) == 2

    def test_factory(self):
        assert make_issue_policy(ClusterConfig(issue_policy="hep"), 6).name == "hep"
        with pytest.raises(ValueError):
            make_issue_policy(ClusterConfig(issue_policy="bogus"), 6)


class TestIssueScan:
    """The synchronization stage sees every thread-state change made between
    cycles, whichever kernel drives the clock."""

    STRAIGHT = "add i2, i1, #1\nadd i3, i1, #2\nadd i4, i1, #3\nhalt"

    @staticmethod
    def _machine(kernel: str = "event", policy: str = "event-priority") -> MMachine:
        config = MachineConfig.single_node()
        config.sim.kernel = kernel
        config.cluster.issue_policy = policy
        return MMachine(config)

    @pytest.mark.parametrize("kernel", ["event", "naive"])
    def test_resumed_thread_is_scanned_on_the_next_cycle(self, kernel):
        machine = self._machine(kernel)
        context = machine.load_hthread(0, 0, 0, self.STRAIGHT, registers={"i1": 1})
        cluster = machine.node(0).clusters[0]
        machine.step()
        context.fault()
        machine.step()
        assert (context.pc, cluster.idle_cycles) == (1, 1)
        context.resume()
        machine.step()
        assert (context.pc, context.instructions_issued) == (2, 2)

    @pytest.mark.parametrize("kernel", ["event", "naive"])
    def test_program_loaded_beside_a_running_thread_issues_next_cycle(self, kernel):
        machine = self._machine(kernel)
        running = machine.load_hthread(0, 0, 0, compute_loop_program(20))
        machine.step()
        assert running.instructions_issued == 1
        loaded = machine.load_hthread(0, 1, 0, self.STRAIGHT, registers={"i1": 1})
        machine.step()
        # Slot 0 issued last, so the round-robin pointer offers slot 1 first.
        assert (loaded.instructions_issued, running.instructions_issued) == (1, 1)

    def _interleaved(self) -> MMachine:
        machine = self._machine(policy="round-robin")
        machine.map_on_node(0, 0x10000, num_pages=4)
        for address, value in build_pointer_chain(32, 0x10000, stride=16):
            machine.write_word(address, value)
        machine.load_hthread(0, 0, 0, compute_loop_program(12))
        for slot, loads in ((1, 6), (2, 9), (3, 12)):
            machine.load_hthread(0, slot, 0, dependent_load_chain_program(loads),
                                 registers={"i1": 0x10000})
        return machine

    def test_round_robin_restored_mid_run_matches_the_uninterrupted_run(self):
        reference = self._interleaved()
        reference.run_until_user_done()
        interrupted = self._interleaved()
        interrupted.run(40)
        # Restore into a machine that already ran to the end, so that every
        # cache the issue stage keeps holds stale values.
        restored = self._interleaved()
        restored.run_until_user_done()
        restored.restore_snapshot(interrupted.snapshot_document())
        restored.run_until_user_done()
        expected, actual = (machine.node(0).clusters[0] for machine in (reference, restored))
        assert len(expected.issue_by_slot) == 4
        assert actual.issue_by_slot == expected.issue_by_slot
        assert ([context.stall_cycles for context in actual.contexts]
                == [context.stall_cycles for context in expected.contexts])
        assert restored.cycle == reference.cycle


class TestHThreadContext:
    def test_lifecycle(self):
        context = HThreadContext(slot=0, cluster_id=1)
        assert context.state is ThreadState.IDLE
        context.load(assemble("halt"), {"i1": 5})
        assert context.state is ThreadState.RUNNABLE
        assert context.registers.peek(parse_register("i1")) == 5
        context.halt(cycle=10)
        assert context.finished
        assert context.halt_cycle == 10

    def test_entry_label(self):
        context = HThreadContext(slot=0, cluster_id=0)
        context.load(assemble("nop\nstart: halt"), entry="start")
        assert context.pc == 1

    def test_fault_and_resume(self):
        context = HThreadContext(slot=0, cluster_id=0)
        context.load(assemble("halt"))
        context.fault()
        assert context.state is ThreadState.FAULTED
        context.resume()
        assert context.state is ThreadState.RUNNABLE

    def test_contexts_compare_by_identity(self):
        registers = RegisterSet()
        first = HThreadContext(slot=0, cluster_id=0, registers=registers)
        second = HThreadContext(slot=0, cluster_id=0, registers=registers)
        assert first == first and first != second
        assert len({first, second}) == 2


class TestConfig:
    def test_paper_structural_parameters(self):
        """Figure 1-4 structural invariants: 4 clusters, 12 function units,
        six V-Thread slots (4 user + event + exception), 4 cache banks of
        4 KW, 512-word pages, 1 MW of SDRAM per node."""
        config = MachineConfig()
        assert config.node.num_clusters == NUM_CLUSTERS == 4
        assert NUM_VTHREAD_SLOTS == 6
        assert EVENT_SLOT == 4 and EXCEPTION_SLOT == 5
        assert NUM_BANKS == 4
        assert NUM_BANKS * BANK_SIZE_WORDS == 16384  # 32 KB
        assert config.memory.page_size_words == PAGE_SIZE_WORDS == 512
        assert BLOCK_SIZE_WORDS == 8
        assert SDRAM_SIZE_WORDS == 1 << 20
        assert NUM_GCC_REGS == 8          # four pairs
        # 12 function units per node: 3 per cluster.
        assert 3 * NUM_CLUSTERS == 12

    def test_num_nodes(self):
        assert MachineConfig.small(2, 2, 2).num_nodes == 8
        assert MachineConfig.single_node().num_nodes == 1

    def test_validation_rejects_bad_values(self):
        config = MachineConfig()
        config.network.mesh_shape = (0, 1, 1)
        with pytest.raises(ValueError):
            config.validate()
        config = MachineConfig()
        config.runtime.shared_memory_mode = "magic"
        with pytest.raises(ValueError):
            config.validate()
        config = MachineConfig()
        config.cluster.issue_policy = "unknown"
        with pytest.raises(ValueError):
            config.validate()

    @pytest.mark.parametrize("section, attr, value, message", [
        ("node", "num_clusters", 2, "node.num_clusters must be 4, got 2"),
        ("memory", "page_size_words", 1024, "memory.page_size_words must be 512, got 1024"),
        ("cluster", "num_int_regs", 8, "config.cluster has no field 'num_int_regs'"),
        ("memory", "sdram_cas", 3, "config.memory has no field 'sdram_cas'"),
    ])
    def test_machine_refuses_other_structure(self, section, attr, value, message):
        """The cluster count and page size accept only their constants, and
        assigning a field that no longer exists fails instead of doing
        nothing."""
        config = MachineConfig.single_node()
        setattr(getattr(config, section), attr, value)
        with pytest.raises(ValueError, match=message):
            MMachine(config)


class TestTracerAndStats:
    def test_tracer_filter_and_first(self):
        tracer = Tracer()
        tracer.record(1, 0, "cat", value=1)
        tracer.record(2, 1, "cat", value=2)
        tracer.record(3, 0, "dog", value=3)
        assert len(tracer.filter("cat")) == 2
        assert tracer.filter("cat", node=1)[0].value == 2
        assert tracer.first("cat", value=2).cycle == 2
        assert tracer.filter("cat")[-1].cycle == 2
        assert tracer.count("dog") == 1
        assert tracer.filter(since=3)[0].category == "dog"

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.record(1, 0, "cat")
        assert len(tracer) == 0

    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2], [30, 40]], title="demo")
        assert "demo" in text and "30" in text

    def test_machine_stats_aggregation(self):
        from repro import MMachine, MachineConfig as Config

        machine = MMachine(Config.single_node())
        machine.load_hthread(0, 0, 0, "add i1, i1, #1\nhalt")
        machine.run_until_user_done()
        stats = machine.stats()
        assert stats.total_instructions >= 2
        assert stats.instructions_per_cycle > 0
        assert "ipc" in stats.summary()


class TestAreaModel:
    """The area and peak-performance claims of Sections 1 and 5."""

    def test_processor_fraction_of_chip(self):
        assert TECH_1993.processor_fraction_of_chip == pytest.approx(0.11, abs=0.01)
        assert TECH_1996.processor_fraction_of_chip == pytest.approx(0.04, abs=0.005)

    def test_processor_fraction_of_system(self):
        assert TECH_1993.processor_fraction_of_system == pytest.approx(0.0052, abs=0.0005)
        assert TECH_1996.processor_fraction_of_system == pytest.approx(0.0013, abs=0.0002)

    def test_cluster_fraction_of_node(self):
        model = AreaModel()
        assert model.cluster_fraction_of_node == pytest.approx(0.11, abs=0.015)

    def test_headline_comparison(self):
        comparison = AreaModel().comparison(num_nodes=32)
        assert comparison["memory_mbytes"] == 256
        assert comparison["peak_ratio"] == 128
        assert comparison["area_ratio"] == pytest.approx(1.5, abs=0.1)
        assert comparison["peak_per_area_improvement"] == pytest.approx(85, rel=0.05)
        # More nodes add compute linearly while the per-node area premium over
        # plain DRAM stays fixed, so the improvement grows with machine size.
        improvements = [AreaModel().comparison(num_nodes=n)["peak_per_area_improvement"]
                        for n in (8, 16, 32, 64)]
        assert improvements == sorted(improvements)



class TestLatencyModel:
    def test_paper_table_shape(self):
        assert PAPER_TABLE1["local_cache_hit"]["read"] == 3
        assert PAPER_TABLE1["remote_ltlb_miss"]["read"] == 202
        assert sum(PAPER_REMOTE_READ_STEPS.values()) == 132
