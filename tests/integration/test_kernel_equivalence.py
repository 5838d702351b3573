"""Differential tests: the event kernel vs the naive reference loop.

``MachineConfig.sim.kernel`` selects between the activity-tracked,
cycle-skipping scheduler (``"event"``, the default) and the original
tick-everything loop (``"naive"``).  The two must be indistinguishable to
any observer of the architecture: identical final cycle counts, register
values, memory contents and -- the strictest part -- identical statistics,
including the per-cycle idle/stall counters the naive loop accrues on every
blocked cycle, which the event kernel reconstructs in bulk when it skips
node ticks.

Every scenario below builds the same machine twice, runs the same workload
under both kernels, and compares everything observable.
"""

import pytest

from repro import MMachine, MachineConfig
from repro.core.scheduler import NaiveKernel, SimulationKernel
from repro.workloads.stencil import make_stencil_workload
from repro.workloads.synthetic import (
    expected_many_to_one_values,
    many_to_one_store_programs,
    remote_store_sender_program,
)

HEAP = 0x10000
REGION = 0x40000

KERNELS = ("naive", "event")


# --------------------------------------------------------------------------- helpers


def _compare_machines(naive: MMachine, event: MMachine) -> None:
    """Assert that two finished machines are observably identical."""
    assert event.cycle == naive.cycle, "final cycle counts differ"

    naive_stats = naive.stats()
    event_stats = event.stats()
    for node_naive, node_event in zip(naive_stats.node_stats, event_stats.node_stats):
        assert node_event == node_naive, f"node {node_naive['node_id']} stats differ"

    for node_naive, node_event in zip(naive.nodes, event.nodes):
        # Mesh-interface counters (not all are part of node.stats()).
        for attribute in ("acks_received", "nacks_received", "retransmissions",
                          "enqueue_rejections", "credits"):
            assert getattr(node_event.net, attribute) == getattr(node_naive.net, attribute)
        # Per-thread microarchitectural state and stall accounting -- the
        # part the event kernel reconstructs in bulk for skipped cycles.
        for cluster_naive, cluster_event in zip(node_naive.clusters, node_event.clusters):
            assert cluster_event.icache.fetches == cluster_naive.icache.fetches
            for ctx_naive, ctx_event in zip(cluster_naive.contexts, cluster_event.contexts):
                assert ctx_event.state is ctx_naive.state
                assert ctx_event.pc == ctx_naive.pc
                assert ctx_event.instructions_issued == ctx_naive.instructions_issued
                assert ctx_event.stall_cycles == ctx_naive.stall_cycles
                assert dict(ctx_event.stall_reasons) == dict(ctx_naive.stall_reasons)
                assert ctx_event.start_cycle == ctx_naive.start_cycle
                assert ctx_event.halt_cycle == ctx_naive.halt_cycle

    for attribute in ("messages_injected", "messages_delivered", "total_latency",
                      "total_hops", "link_contention_cycles"):
        assert getattr(event.mesh, attribute) == getattr(naive.mesh, attribute)


def _run_both(scenario):
    """Run *scenario(kernel)* under both kernels and compare the machines."""
    machines = {kernel: scenario(kernel) for kernel in KERNELS}
    _compare_machines(machines["naive"], machines["event"])
    return machines


def _config(shape=(2, 1, 1), mode="remote", kernel="event", **network_overrides):
    config = MachineConfig.small(*shape)
    config.runtime.shared_memory_mode = mode
    config.sim.kernel = kernel
    for key, value in network_overrides.items():
        setattr(config.network, key, value)
    return config


# --------------------------------------------------------------------- workload: stencil


class TestStencilEquivalence:
    """Compute-heavy single-node workloads (Figure 5 kernels)."""

    @pytest.mark.parametrize("kind, n_hthreads", [("7pt", 1), ("7pt", 4), ("27pt", 2)])
    def test_stencil(self, kind, n_hthreads):
        def scenario(kernel):
            machine = MMachine(_config(shape=(1, 1, 1), kernel=kernel))
            machine.map_on_node(0, HEAP, num_pages=16)
            workload = make_stencil_workload(kind=kind, n_hthreads=n_hthreads)
            workload.setup(machine)
            machine.run_until_user_done(max_cycles=30000)
            assert workload.verify(machine)
            return machine

        _run_both(scenario)

    def test_stencil_under_hep_barrel_policy(self):
        """The HEP barrel rotates the scanned slot with the clock, so the
        event kernel's bulk stall accounting must follow cycle residues."""

        def scenario(kernel):
            config = _config(shape=(1, 1, 1), kernel=kernel)
            config.cluster.issue_policy = "hep"
            machine = MMachine(config)
            machine.map_on_node(0, HEAP, num_pages=16)
            workload = make_stencil_workload(kind="7pt", n_hthreads=2)
            workload.setup(machine)
            machine.run_until_user_done(max_cycles=60000)
            assert workload.verify(machine)
            return machine

        _run_both(scenario)


# ------------------------------------------------------------- workload: message passing


class TestMessagePassingEquivalence:
    """User-level SEND/receive traffic, including NACK/retransmission."""

    def test_ping_pong(self):
        """Two nodes bouncing remote stores at each other."""

        def scenario(kernel):
            machine = MMachine(_config(kernel=kernel))
            machine.map_on_node(0, REGION, num_pages=1)
            machine.map_on_node(1, REGION + 0x1000, num_pages=1)
            dip = machine.runtime.dip("remote_store")
            machine.load_hthread(0, 0, 0, remote_store_sender_program(
                REGION + 0x1000, dip, 8))
            machine.load_hthread(1, 0, 0, remote_store_sender_program(
                REGION, dip, 8, value_base=2000))
            machine.run_until_user_done(max_cycles=60000)
            for offset in range(8):
                assert machine.read_word(REGION + offset) == 2000 + offset
                assert machine.read_word(REGION + 0x1000 + offset) == 1000 + offset
            return machine

        _run_both(scenario)

    def test_many_to_one_flood_with_contention(self):
        def scenario(kernel):
            machine = MMachine(_config(shape=(2, 2, 1), kernel=kernel))
            machine.map_on_node(0, REGION, num_pages=1)
            dip = machine.runtime.dip("remote_store")
            for sender, program in many_to_one_store_programs(3, 12, REGION, dip).items():
                machine.load_hthread(sender + 1, 0, 0, program)
            machine.run_until_user_done(max_cycles=60000)
            for offset, value in expected_many_to_one_values(3, 12):
                assert machine.read_word(REGION + offset) == value
            return machine

        _run_both(scenario)

    def test_small_queue_nack_and_retransmit(self):
        """Return-to-sender throttling: retransmission back-offs are one of
        the scheduled-wakeup sources the event kernel must honour exactly.
        Three producers bursting at one consumer with a tiny queue force
        NACKs and retransmissions."""

        def scenario(kernel):
            machine = MMachine(_config(shape=(2, 2, 1), kernel=kernel,
                                       message_queue_words=6, retransmit_interval=16))
            machine.map_on_node(0, REGION, num_pages=1)
            dip = machine.runtime.dip("remote_store")
            for sender, program in many_to_one_store_programs(3, 8, REGION, dip).items():
                machine.load_hthread(sender + 1, 0, 0, program)
            machine.run_until_user_done(max_cycles=120000)
            for offset, value in expected_many_to_one_values(3, 8):
                assert machine.read_word(REGION + offset) == value
            assert sum(node.net.retransmissions for node in machine.nodes) > 0
            return machine

        _run_both(scenario)


# -------------------------------------------------------------- workload: remote memory


class TestRemoteMemoryEquivalence:
    """Section 4.2 transparent remote access -- the idle-heavy class the
    event kernel exists for: the faulting node sleeps through the whole
    network round-trip."""

    def test_remote_load(self):
        def scenario(kernel):
            machine = MMachine(_config(kernel=kernel))
            machine.map_on_node(1, REGION, num_pages=1)
            machine.write_word(REGION + 7, 31415)
            machine.load_hthread(0, 0, 0, "ld i5, i1\nadd i6, i5, #1\nhalt",
                                 registers={"i1": REGION + 7})
            machine.run_until(lambda m: m.thread_halted(0, 0, 0), max_cycles=5000)
            machine.run_until_quiescent(max_cycles=5000)
            assert machine.register_value(0, 0, 0, "i6") == 31416
            return machine

        _run_both(scenario)

    def test_remote_store_with_ltlb_miss(self):
        def scenario(kernel):
            machine = MMachine(_config(kernel=kernel))
            machine.map_on_node(1, REGION, num_pages=1, preload_ltlb=False)
            machine.load_hthread(0, 0, 0, "st i6, i1\nhalt",
                                 registers={"i1": REGION + 9, "i6": 2718})
            machine.run_until_quiescent(max_cycles=10000)
            assert machine.read_word(REGION + 9) == 2718
            return machine

        _run_both(scenario)

    def test_fixed_cycle_run_snapshots_identical(self):
        """run(N) must land on the same intermediate state, not just the
        same final state."""

        def scenario(kernel):
            machine = MMachine(_config(kernel=kernel))
            machine.map_on_node(1, REGION, num_pages=1)
            machine.write_word(REGION, 5)
            machine.load_hthread(0, 0, 0, "ld i5, i1\nadd i6, i5, #100\nhalt",
                                 registers={"i1": REGION})
            machine.run(40)
            machine.run(1000)
            assert machine.cycle == 1040
            return machine

        _run_both(scenario)


# ----------------------------------------------------------- workload: coherent caching


class TestCoherentEquivalence:
    """Section 4.3 software DRAM caching: native handlers with busy charges,
    directory recalls and invalidation round-trips."""

    def test_read_share_write_upgrade_and_recall(self):
        def scenario(kernel):
            machine = MMachine(_config(shape=(4, 1, 1), mode="coherent", kernel=kernel))
            machine.map_on_node(0, REGION, num_pages=1)
            machine.write_word(REGION, 5)
            # Node 1 reads, node 2 writes (invalidating node 1), node 0
            # recalls the dirty block by reading it back.
            machine.load_hthread(1, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION})
            machine.run_until(lambda m: m.register_full(1, 0, 0, "i5"), max_cycles=30000)
            machine.load_hthread(2, 0, 0, "st i6, i1\nhalt",
                                 registers={"i1": REGION, "i6": 42})
            machine.run_until_quiescent(max_cycles=60000)
            machine.load_hthread(0, 0, 0, "ld i7, i1\nhalt", registers={"i1": REGION})
            machine.run_until(lambda m: m.register_full(0, 0, 0, "i7"), max_cycles=60000)
            assert machine.register_value(0, 0, 0, "i7") == 42
            machine.run_until_quiescent(max_cycles=60000)
            return machine

        machines = _run_both(scenario)
        for machine in machines.values():
            assert machine.runtime.coherence.invalidations >= 1


# ------------------------------------------------------------------- kernel mechanics


class TestKernelMechanics:
    """Direct checks of the scheduler itself."""

    def test_event_kernel_is_default(self):
        machine = MMachine(MachineConfig.small(1, 1, 1))
        assert machine.kernel is not None
        assert machine.config.sim.kernel == "event"

    def test_naive_kernel_ticks_every_node_every_cycle(self):
        """The reference driver never skips: its node ticks are always
        cycles times nodes, the count the event kernel is measured against."""
        machine = MMachine(_config(shape=(2, 2, 1), kernel="naive"))
        machine.map_on_node(3, REGION, num_pages=1)
        machine.write_word(REGION, 1)
        machine.load_hthread(0, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION})
        machine.step()
        machine.run_until_quiescent(max_cycles=10000)
        machine.run(7)
        assert isinstance(machine.kernel, NaiveKernel)
        assert machine.kernel.node_ticks == machine.cycle * machine.num_nodes

    @pytest.mark.parametrize("kernel, driver", [("naive", NaiveKernel),
                                                ("event", SimulationKernel)])
    def test_restore_rebuilds_the_same_driver(self, kernel, driver):
        machine = MMachine(_config(kernel=kernel))
        machine.load_hthread(0, 0, 0, "mov i2, #7\nhalt")
        machine.run_until_user_done(max_cycles=1000)
        restored = MMachine.from_snapshot(machine.snapshot_document())
        assert type(restored.kernel) is driver
        machine.restore_snapshot(machine.snapshot_document())
        assert type(machine.kernel) is driver

    def test_settle_loops_differ_only_in_user_threads(self):
        """``run_until_quiescent`` and ``run_until_user_done`` share one
        settle loop per driver; the one difference is whether user threads
        must have finished.  A user thread blocked forever on an empty
        register leaves the machine quiet after five cycles, but never
        done."""
        blocked = "empty i2\nadd i1, i2, i2\nhalt"
        machines = {}
        for kernel in KERNELS:
            quiescent = MMachine(_config(kernel=kernel))
            quiescent.load_hthread(0, 0, 0, blocked)
            assert quiescent.run_until_quiescent(max_cycles=300) == 5
            user_done = MMachine(_config(kernel=kernel))
            user_done.load_hthread(0, 0, 0, blocked)
            with pytest.raises(TimeoutError) as raised:
                user_done.run_until_user_done(max_cycles=300)
            assert str(raised.value) == "user threads did not finish within 300 cycles"
            assert user_done.cycle == 300
            machines[kernel] = (quiescent, user_done)
        for naive, event in zip(machines["naive"], machines["event"]):
            _compare_machines(naive, event)

    def test_invalid_kernel_rejected(self):
        config = MachineConfig.small(1, 1, 1)
        config.sim.kernel = "threaded"
        with pytest.raises(ValueError):
            MMachine(config)

    def test_event_kernel_skips_node_ticks(self):
        """The point of the refactor: an idle-heavy remote access must cost
        far fewer node ticks than cycles x nodes."""
        machine = MMachine(_config(shape=(2, 2, 1)))
        machine.map_on_node(3, REGION, num_pages=1)
        machine.write_word(REGION, 1)
        machine.load_hthread(0, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION})
        machine.run_until_quiescent(max_cycles=10000)
        naive_ticks = machine.cycle * machine.num_nodes
        assert machine.kernel.node_ticks < naive_ticks / 2
        assert machine.kernel.cycles_skipped > 0

    def test_timeout_behaviour_matches(self):
        """A machine that never quiesces times out identically, and the
        event kernel reports the same final cycle."""
        results = {}
        for kernel in KERNELS:
            config = _config(shape=(1, 1, 1), mode="none", kernel=kernel)
            machine = MMachine(config)
            machine.map_on_node(0, REGION, num_pages=1, preload_ltlb=False)
            # The LTLB miss raises an event that no handler ever consumes, so
            # has_pending_work stays true forever.
            machine.load_hthread(0, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION})
            with pytest.raises(TimeoutError):
                machine.run_until_quiescent(max_cycles=500)
            results[kernel] = (machine.cycle, machine.stats().node_stats)
        assert results["event"] == results["naive"]

    def test_predicate_reading_sleeping_node_statistics(self):
        """run_until predicates may read per-cycle statistics, not just
        architectural state; the kernel must settle its lazy idle accounting
        before every predicate evaluation so a counter on a *sleeping* node
        (here: idle_cycles of a node that never runs anything) advances
        exactly as under the naive loop."""

        def scenario(kernel):
            machine = MMachine(_config(kernel=kernel))
            machine.map_on_node(1, REGION, num_pages=1)
            machine.write_word(REGION, 2)
            machine.load_hthread(0, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION})
            stop = machine.run_until(
                lambda m: m.nodes[1].clusters[0].idle_cycles >= 20, max_cycles=5000
            )
            assert stop == machine.cycle
            return machine

        machines = _run_both(scenario)
        assert machines["event"].cycle == machines["naive"].cycle

    def test_step_loop_matches_naive(self):
        """Manual step() loops (the public single-cycle API) stay exact even
        with external mutation between steps."""
        machines = {}
        for kernel in KERNELS:
            machine = MMachine(_config(kernel=kernel))
            machine.map_on_node(1, REGION, num_pages=1)
            machine.write_word(REGION, 9)
            machine.load_hthread(0, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION})
            for cycle in range(300):
                machine.step()
                if cycle == 150:
                    # Mutate mid-run: load a second thread while nodes idle.
                    machine.load_hthread(1, 0, 0, "mov i2, #7\nhalt")
            machines[kernel] = machine
        _compare_machines(machines["naive"], machines["event"])
        assert machines["event"].register_value(1, 0, 0, "i2") == 7
