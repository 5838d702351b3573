"""Differential tests: the event kernel vs the naive reference loop.

``MachineConfig.sim.kernel`` selects between the activity-tracked,
cycle-skipping scheduler (``"event"``, the default) and the original
tick-everything loop (``"naive"``).  The two must be indistinguishable to
any observer of the architecture: identical final cycle counts, register
values, memory contents and -- the strictest part -- identical statistics,
including the per-cycle idle/stall counters the naive loop accrues on every
blocked cycle, which the event kernel reconstructs in bulk when it skips
node ticks.

Every scenario of ``scenarios.py`` runs under both kernels, and the
machines it builds must not differ
(:func:`repro.fuzz.harness.machine_difference`).  The kernel mechanics
below (step loops, ``run(N)``, predicates, settle loops, timeouts) drive
the clock by hand.
"""

import pytest

from repro import MMachine, MachineConfig
from repro.core.scheduler import NaiveKernel, SimulationKernel
from repro.fuzz.harness import machine_difference
from scenarios import REGION, SCENARIOS, run_scenario, runs_difference, small_config

KERNELS = ("naive", "event")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_kernel_matches_naive(name):
    event = run_scenario(name, "event")
    if not event:
        pytest.skip("builds no machine")
    assert runs_difference(run_scenario(name, "naive"), event) is None


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
        machine = MMachine(small_config((2, 2, 1), "naive"))
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
        machine = MMachine(small_config((2, 1, 1), kernel))
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
            quiescent = MMachine(small_config((2, 1, 1), kernel))
            quiescent.load_hthread(0, 0, 0, blocked)
            assert quiescent.run_until_quiescent(max_cycles=300) == 5
            user_done = MMachine(small_config((2, 1, 1), kernel))
            user_done.load_hthread(0, 0, 0, blocked)
            with pytest.raises(TimeoutError) as raised:
                user_done.run_until_user_done(max_cycles=300)
            assert str(raised.value) == "user threads did not finish within 300 cycles"
            assert user_done.cycle == 300
            machines[kernel] = (quiescent, user_done)
        for naive, event in zip(machines["naive"], machines["event"]):
            assert machine_difference(naive, event) is None

    def test_invalid_kernel_rejected(self):
        config = MachineConfig.small(1, 1, 1)
        config.sim.kernel = "threaded"
        with pytest.raises(ValueError):
            MMachine(config)

    def test_event_kernel_skips_node_ticks(self):
        """The point of the refactor: an idle-heavy remote access must cost
        far fewer node ticks than cycles x nodes."""
        machine = MMachine(small_config((2, 2, 1), "event"))
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
            config = small_config((1, 1, 1), kernel, mode="none")
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
            machine = MMachine(small_config((2, 1, 1), kernel))
            machine.map_on_node(1, REGION, num_pages=1)
            machine.write_word(REGION, 2)
            machine.load_hthread(0, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION})
            stop = machine.run_until(
                lambda m: m.nodes[1].clusters[0].idle_cycles >= 20, max_cycles=5000
            )
            assert stop == machine.cycle
            return machine

        assert machine_difference(scenario("naive"), scenario("event")) is None

    def test_fixed_cycle_runs_land_on_the_same_state(self):
        """run(N) must land on the same intermediate state, not just the
        same final state."""

        def scenario(kernel):
            machine = MMachine(small_config((2, 1, 1), kernel))
            machine.map_on_node(1, REGION, num_pages=1)
            machine.write_word(REGION, 5)
            machine.load_hthread(0, 0, 0, "ld i5, i1\nadd i6, i5, #100\nhalt",
                                 registers={"i1": REGION})
            machine.run(40)
            machine.run(1000)
            assert machine.cycle == 1040
            return machine

        assert machine_difference(scenario("naive"), scenario("event")) is None

    def test_step_loop_matches_naive(self):
        """Manual step() loops (the public single-cycle API) stay exact even
        with external mutation between steps."""
        machines = {}
        for kernel in KERNELS:
            machine = MMachine(small_config((2, 1, 1), kernel))
            machine.map_on_node(1, REGION, num_pages=1)
            machine.write_word(REGION, 9)
            machine.load_hthread(0, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION})
            for cycle in range(300):
                machine.step()
                if cycle == 150:
                    # Mutate mid-run: load a second thread while nodes idle.
                    machine.load_hthread(1, 0, 0, "mov i2, #7\nhalt")
            machines[kernel] = machine
        assert machine_difference(machines["naive"], machines["event"]) is None
        assert machines["event"].register_value(1, 0, 0, "i2") == 7
