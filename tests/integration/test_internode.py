"""Whole-machine integration tests of inter-node mechanisms: user-level
message passing (Figure 7), transparent remote memory access via the event
V-Thread handlers (Section 4.2), throttling, and the software DRAM-caching /
coherence layer (Section 4.3)."""

import pytest

from repro import BlockStatus, MMachine, MachineConfig
from repro.api import get_workload
from repro.analysis.timeline import extract_remote_access_timeline
from repro.workloads.synthetic import (
    expected_many_to_one_values,
    many_to_one_store_programs,
    remote_store_sender_program,
)

REGION = 0x40000


def two_node_machine(mode="remote", **network_overrides):
    config = MachineConfig.small(2, 1, 1)
    config.runtime.shared_memory_mode = mode
    for key, value in network_overrides.items():
        setattr(config.network, key, value)
    return MMachine(config)


class TestMessagePassing:
    """Figure 7: sending and receiving a remote store message."""

    def test_user_level_remote_store_message(self):
        machine = two_node_machine()
        machine.map_on_node(1, REGION, num_pages=1)
        dip = machine.runtime.dip("remote_store")
        machine.load_hthread(0, 0, 0, f"""
            mov m0, #4242              ; message body: the value to store
            send i1, #{dip}, #1        ; Figure 7(a): SEND Raddr, Rdip, #1
            halt
        """, registers={"i1": REGION + 3})
        machine.run_until_user_done(max_cycles=5000)
        assert machine.read_word(REGION + 3) == 4242
        assert machine.nodes[0].net.messages_sent == 1
        assert machine.nodes[1].net.messages_received == 1

    def test_message_handler_runs_in_event_vthread(self):
        machine = two_node_machine()
        machine.map_on_node(1, REGION, num_pages=1)
        dip = machine.runtime.dip("remote_store")
        machine.load_hthread(0, 0, 0, f"""
            mov m0, #1
            send i1, #{dip}, #1
            halt
        """, registers={"i1": REGION})
        machine.run_until_user_done(max_cycles=5000)
        from repro.core.config import EVENT_CLUSTER_MSG_P0, EVENT_SLOT

        handler = machine.nodes[1].context(EVENT_SLOT, EVENT_CLUSTER_MSG_P0)
        assert handler.instructions_issued > 0

    def test_many_to_one_flood(self):
        machine = MMachine(MachineConfig.small(2, 2, 1))
        machine.map_on_node(0, REGION, num_pages=1)
        dip = machine.runtime.dip("remote_store")
        programs = many_to_one_store_programs(3, 12, REGION, dip)
        for sender, program in programs.items():
            machine.load_hthread(sender + 1, 0, 0, program)
        machine.run_until_user_done(max_cycles=60000)
        for offset, value in expected_many_to_one_values(3, 12):
            assert machine.read_word(REGION + offset) == value

    def test_throttling_limits_in_flight_messages(self):
        """With very few send credits the sender stalls instead of flooding
        the network (return-to-sender throttling, Section 4.1)."""
        machine = two_node_machine(send_credits=2)
        machine.map_on_node(1, REGION, num_pages=1)
        dip = machine.runtime.dip("remote_store")
        machine.load_hthread(0, 0, 0, remote_store_sender_program(REGION, dip, 20))
        machine.run_until_user_done(max_cycles=60000)
        assert all(machine.read_word(REGION + i) != 0 for i in range(20))
        net = machine.nodes[0].net
        assert net.credits == net.config.send_credits

    def test_small_queue_causes_nack_and_retransmission(self):
        machine = two_node_machine(message_queue_words=6, send_credits=8,
                                   retransmit_interval=16)
        machine.map_on_node(1, REGION, num_pages=1)
        dip = machine.runtime.dip("remote_store")
        machine.load_hthread(0, 0, 0, remote_store_sender_program(REGION, dip, 12))
        machine.run_until_user_done(max_cycles=120000)
        assert all(machine.read_word(REGION + i) != 0 for i in range(12))

    #: (workload, parameters that store 512 words and their cycles, the
    #: same workload storing 513 words).
    ONE_PAGE_FLOODS = [
        ("message-stream", {"count": 512}, 3594, {"count": 513}),
        ("flood", {"messages": 512}, 3594, {"messages": 513}),
        ("many-to-one-flood", {"senders": 2, "messages_each": 256}, 2109,
         {"senders": 3, "messages_each": 171}),
        ("nack-flood", {"senders": 2, "messages_each": 256}, 2065,
         {"senders": 3, "messages_each": 171}),
    ]

    @pytest.mark.parametrize("name, fits, cycles, overruns", ONE_PAGE_FLOODS,
                             ids=[case[0] for case in ONE_PAGE_FLOODS])
    def test_flood_workloads_refuse_the_513th_word(self, name, fits, cycles, overruns):
        """Each flood stores one word per message into the one page it maps:
        a 513th word is refused by name instead of running until the cycle
        limit, and a full page runs as before."""
        spec = get_workload(name)
        with pytest.raises(ValueError, match="at most 512, got 513"):
            spec.call(overruns)
        metrics = spec.call(fits)
        assert (metrics["cycles"], metrics["verified"]) == (cycles, True)

    def test_illegal_dip_faults_sender_when_protected(self):
        config = MachineConfig.small(2, 1, 1)
        config.runtime.protection_enabled = True
        machine = MMachine(config)
        machine.map_on_node(1, REGION, num_pages=1)
        machine.load_hthread(0, 0, 0, """
            mov m0, #1
            send i1, #999, #1
            halt
        """, registers={"i1": REGION})
        machine.run_until_quiescent(max_cycles=5000)
        from repro.cluster.hthread import ThreadState

        assert machine.nodes[0].context(0, 0).state is ThreadState.FAULTED
        assert machine.nodes[1].net.messages_received == 0

    def test_send_to_unmapped_address_faults_sender(self):
        machine = two_node_machine()
        machine.map_on_node(1, REGION, num_pages=1)
        machine.load_hthread(0, 0, 0, """
            mov m0, #1
            send i1, #1, #1
            halt
        """, registers={"i1": 0x900000})
        machine.run_until_quiescent(max_cycles=5000)
        from repro.cluster.hthread import ThreadState

        assert machine.nodes[0].context(0, 0).state is ThreadState.FAULTED


class TestRemoteMemoryAccess:
    """Section 4.2: transparent remote loads and stores through the LTLB-miss
    and message handlers of the event V-Thread."""

    def test_remote_load(self):
        machine = two_node_machine()
        machine.map_on_node(1, REGION, num_pages=1)
        machine.write_word(REGION + 7, 31415)
        machine.load_hthread(0, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION + 7})
        machine.run_until(lambda m: m.register_full(0, 0, 0, "i5"), max_cycles=5000)
        assert machine.register_value(0, 0, 0, "i5") == 31415

    def test_remote_store(self):
        machine = two_node_machine()
        machine.map_on_node(1, REGION, num_pages=1)
        machine.load_hthread(0, 0, 0, "st i6, i1\nhalt",
                             registers={"i1": REGION + 9, "i6": 2718})
        machine.run_until_quiescent(max_cycles=5000)
        assert machine.read_word(REGION + 9) == 2718

    def test_local_ltlb_miss_handled_in_software(self):
        machine = two_node_machine()
        machine.map_on_node(0, REGION, num_pages=1, preload_ltlb=False)
        machine.write_word(REGION + 2, 55)
        machine.load_hthread(0, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION + 2})
        machine.run_until(lambda m: m.register_full(0, 0, 0, "i5"), max_cycles=5000)
        assert machine.register_value(0, 0, 0, "i5") == 55
        assert machine.nodes[0].ltlb.misses >= 1
        # No messages were needed: the page was local.
        assert machine.nodes[0].net.messages_sent == 0

    def test_remote_load_with_remote_ltlb_miss(self):
        machine = two_node_machine()
        machine.map_on_node(1, REGION, num_pages=1, preload_ltlb=False)
        machine.write_word(REGION, 777)
        machine.load_hthread(0, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION})
        machine.run_until(lambda m: m.register_full(0, 0, 0, "i5"), max_cycles=10000)
        assert machine.register_value(0, 0, 0, "i5") == 777
        assert machine.nodes[1].ltlb.misses >= 1

    def test_faulting_thread_continues_until_it_needs_the_data(self):
        """Asynchronous event handling: the thread that issued the remote
        load keeps issuing independent instructions and only blocks when it
        uses the loaded value (Section 3.3)."""
        machine = two_node_machine()
        machine.map_on_node(1, REGION, num_pages=1)
        machine.write_word(REGION, 5)
        machine.load_hthread(0, 0, 0, """
            ld i5, i1
            mov i2, #0
            add i2, i2, #1
            add i2, i2, #1
            add i2, i2, #1
            add i6, i5, #100
            halt
        """, registers={"i1": REGION})
        machine.run_until(
            lambda m: m.thread_halted(0, 0, 0) and m.register_full(0, 0, 0, "i6"),
            max_cycles=5000,
        )
        assert machine.register_value(0, 0, 0, "i2") == 3
        assert machine.register_value(0, 0, 0, "i6") == 105
        # The adds issued long before the remote value arrived.
        load_complete = machine.tracer.first("xregwr", reg="i5")
        assert load_complete is not None

    def test_remote_read_timeline_milestones(self):
        """Figure 9's milestones appear in order in the trace."""
        machine = two_node_machine()
        machine.map_on_node(1, REGION, num_pages=1)
        machine.write_word(REGION, 1)
        machine.load_hthread(0, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION})
        machine.run_until(lambda m: m.register_full(0, 0, 0, "i5"), max_cycles=5000)
        timeline = extract_remote_access_timeline(machine.tracer, "read")
        labels = timeline.labels()
        assert len(labels) >= 8
        cycles = [event.cycle for event in timeline.normalised().events]
        assert cycles == sorted(cycles)
        assert timeline.total_cycles > 20

    def test_remote_accesses_from_both_nodes(self):
        machine = two_node_machine()
        machine.map_on_node(0, REGION, num_pages=1)
        machine.map_on_node(1, REGION + 0x1000, num_pages=1)
        machine.load_hthread(0, 0, 0, "st i6, i1\nhalt",
                             registers={"i1": REGION + 0x1000, "i6": 10})
        machine.load_hthread(1, 0, 0, "st i6, i1\nhalt",
                             registers={"i1": REGION + 1, "i6": 20})
        machine.run_until_quiescent(max_cycles=10000)
        assert machine.read_word(REGION + 0x1000) == 10
        assert machine.read_word(REGION + 1) == 20


class TestCoherentSharedMemory:
    """Section 4.3: caching remote data in local DRAM with block-status bits."""

    def _machine(self, shape=(2, 1, 1)):
        config = MachineConfig.small(*shape)
        config.runtime.shared_memory_mode = "coherent"
        return MMachine(config)

    def test_remote_read_creates_local_copy(self):
        machine = self._machine()
        machine.map_on_node(1, REGION, num_pages=1)
        machine.write_word(REGION + 1, 99)
        machine.load_hthread(0, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION + 1})
        machine.run_until(lambda m: m.register_full(0, 0, 0, "i5"), max_cycles=20000)
        assert machine.register_value(0, 0, 0, "i5") == 99
        # The block now lives in node 0's DRAM in READ_ONLY state.
        status = machine.nodes[0].memory.get_block_status(REGION + 1)
        assert status == int(BlockStatus.READ_ONLY)
        assert machine.runtime.coherence.block_fetches == 1

    def test_second_read_hits_locally_without_messages(self):
        machine = self._machine()
        machine.map_on_node(1, REGION, num_pages=1)
        machine.write_word(REGION, 7)
        machine.load_hthread(0, 0, 0, "ld i5, i1\nld i6, i1, #1\nhalt",
                             registers={"i1": REGION})
        machine.run_until(
            lambda m: m.thread_halted(0, 0, 0) and m.register_full(0, 0, 0, "i6"),
            max_cycles=20000,
        )
        # Both words are in the same block: one fetch serves both loads.
        assert machine.runtime.coherence.block_fetches == 1

    def test_write_upgrade_and_dirty_recall(self):
        machine = self._machine()
        machine.map_on_node(1, REGION, num_pages=1)
        machine.write_word(REGION, 5)
        machine.load_hthread(0, 0, 0, """
            ld i5, i1
            add i5, i5, #10
            st i5, i1
            halt
        """, registers={"i1": REGION})
        machine.run_until_quiescent(max_cycles=30000)
        assert machine.nodes[0].memory.debug_read(REGION) == 15
        assert machine.runtime.coherence.write_upgrades == 1
        # The home node reads it back, recalling the dirty block.
        machine.load_hthread(1, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION})
        machine.run_until(lambda m: m.register_full(1, 0, 0, "i5"), max_cycles=30000)
        assert machine.register_value(1, 0, 0, "i5") == 15
        assert machine.runtime.coherence.dirty_writebacks == 1

    def test_read_sharing_among_three_nodes(self):
        machine = self._machine(shape=(4, 1, 1))
        machine.map_on_node(0, REGION, num_pages=1)
        machine.write_word(REGION + 4, 123)
        for node in (1, 2, 3):
            machine.load_hthread(node, 0, 0, "ld i5, i1\nhalt",
                                 registers={"i1": REGION + 4})
        machine.run_until(
            lambda m: all(m.register_full(node, 0, 0, "i5") for node in (1, 2, 3)),
            max_cycles=60000,
        )
        for node in (1, 2, 3):
            assert machine.register_value(node, 0, 0, "i5") == 123
        directory = machine.runtime.coherence.directories[0]
        from repro.memory.page_table import block_base

        entry = directory[block_base(REGION + 4)]
        assert {1, 2, 3}.issubset(entry.sharers)

    def test_writer_invalidates_reader_copy(self):
        machine = self._machine(shape=(4, 1, 1))
        machine.map_on_node(0, REGION, num_pages=1)
        machine.write_word(REGION, 1)
        # Node 1 reads (gets a READ_ONLY copy).
        machine.load_hthread(1, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION})
        machine.run_until(lambda m: m.register_full(1, 0, 0, "i5"), max_cycles=30000)
        # Node 2 writes: node 1's copy must be invalidated.
        machine.load_hthread(2, 0, 0, "st i6, i1\nhalt",
                             registers={"i1": REGION, "i6": 42})
        machine.run_until_quiescent(max_cycles=60000)
        assert machine.runtime.coherence.invalidations >= 1
        assert machine.nodes[1].memory.get_block_status(REGION) == int(BlockStatus.INVALID)
        assert machine.nodes[2].memory.debug_read(REGION) == 42
        # Node 1 re-reads and sees the new value (fetched again via node 0).
        machine.load_hthread(1, 1, 0, "ld i7, i1\nhalt", registers={"i1": REGION})
        machine.run_until(lambda m: m.register_full(1, 1, 0, "i7"), max_cycles=60000)
        assert machine.register_value(1, 1, 0, "i7") == 42

    @staticmethod
    def _contended(kernel, loads):
        """A 2x2x1 coherent machine whose node 1 runs *loads* from the block
        at ``REGION``, homed on node 0, while node 2 stores word 3 of it."""
        config = MachineConfig.small(2, 2, 1)
        config.runtime.shared_memory_mode = "coherent"
        config.sim.kernel = kernel
        machine = MMachine(config)
        machine.map_on_node(0, REGION)
        machine.load_hthread(1, 0, 0, loads + "\nhalt", registers={"i1": REGION})
        machine.load_hthread(2, 0, 0, "st i1, i1, #3\nhalt", registers={"i1": REGION})
        return machine

    @pytest.mark.parametrize("kernel", ["event", "naive"])
    def test_load_against_store_settles(self, kernel):
        machine = self._contended(kernel, "ld i4, i1")
        assert machine.run_until_user_done(max_cycles=20_000) == 86
        assert machine.register_value(1, 0, 0, "i4") == 0
        # Node 2 owns the block and holds the stored word.
        assert machine.nodes[2].memory.debug_read(REGION + 3) == REGION

    @pytest.mark.parametrize("kernel", ["event", "naive"])
    @pytest.mark.xfail(strict=True, raises=TimeoutError,
                       reason="known livelock, ROADMAP item 4: the block is recalled "
                              "before the replayed access completes")
    def test_two_loads_against_store_settle(self, kernel):
        """Both threads halt, but the block then moves between nodes 1 and
        2 for ever, with no dirty write-back: ``requester_block_data``
        replays the faulting access ``6 + BLOCK_SIZE_WORDS`` cycles after the
        block arrives, and the other node's request, already in flight,
        recalls the block inside that window, so neither access completes."""
        machine = self._contended(kernel, "ld i4, i1\nld i5, i1, #1")
        machine.run_until_user_done(max_cycles=20_000)
        assert machine.register_value(1, 0, 0, "i4") == 0
        assert machine.register_value(1, 0, 0, "i5") == 0
