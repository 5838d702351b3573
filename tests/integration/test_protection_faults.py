"""Mid-run guarded-pointer violations must fault cleanly under both kernels.

The existing protection tests fault on the very first instruction under the
default event kernel only.  This file drives both kernels — event and
naive — with violations raised *mid-run* (after a warm-up loop has issued
real work, so the slot's compiled plans are hot) and checks the clean-fault contract everywhere: the violating context
parks in FAULTED, an ``exception`` trace event is recorded, innocent
threads keep running to completion, and the machine winds down to
quiescence instead of wedging.
"""

import pytest

from repro import GuardedPointer, MMachine, MachineConfig, PointerPermission
from repro.cluster.hthread import ThreadState
from repro.fuzz.generator import VIOLATION_MODES, ThreadSpec, render_thread

HEAP = 0x10000

KERNELS = ["event", "naive"]

#: A warm-up loop that does real guarded-pointer work before violating:
#: the violation happens mid-run, not on the first fetched instruction.
MID_RUN_VIOLATION = """
        mov i4, #0
        mov i5, #0
loop:   ld i3, i1, #2
        add i5, i5, i3
        add i4, i4, #1
        lt i8, i4, #6
        br i8, loop
        ld i6, i2
        halt
"""

CLEAN_NEIGHBOUR = """
        mov i4, #0
        mov i5, #0
loop:   ld i3, i1, #1
        add i5, i5, i3
        add i4, i4, #1
        lt i8, i4, #10
        br i8, loop
        halt
"""


def protected_machine(kernel):
    config = MachineConfig.single_node()
    config.runtime.protection_enabled = True
    config.sim.kernel = kernel
    machine = MMachine(config)
    machine.map_on_node(0, HEAP, num_pages=1)
    machine.write_word(HEAP + 1, 5)
    machine.write_word(HEAP + 2, 9)
    return machine


def exception_events(machine):
    return [event for event in machine.tracer.events if event.category == "exception"]


class TestMidRunViolationGrid:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_mid_run_fault_is_clean(self, kernel):
        machine = protected_machine(kernel)
        rw = GuardedPointer(HEAP, 9, PointerPermission.rw())
        # i2 holds a plain integer: the final ld faults under protection.
        machine.load_hthread(
            0, 0, 0, MID_RUN_VIOLATION, registers={"i1": rw, "i2": HEAP}
        )
        machine.load_hthread(0, 0, 1, CLEAN_NEIGHBOUR, registers={"i1": rw})
        cycles = machine.run_until_quiescent(max_cycles=5000)
        assert cycles < 5000, "machine wedged instead of going quiescent"
        violator = machine.nodes[0].context(0, 0)
        neighbour = machine.nodes[0].context(0, 1)
        assert violator.state is ThreadState.FAULTED
        # The warm-up loop really ran before the fault.
        assert violator.instructions_issued > 20
        assert neighbour.state is ThreadState.HALTED
        assert machine.register_value(0, 0, 1, "i5") == 50
        assert len(exception_events(machine)) == 1

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("mode", VIOLATION_MODES)
    def test_every_violation_mode_faults(self, kernel, mode):
        machine = protected_machine(kernel)
        thread = ThreadSpec(
            node=0,
            slot=0,
            cluster=0,
            kind="violator",
            params={"base": HEAP, "mode": mode},
        )
        source, registers = render_thread(thread, remote_store_dip=0)
        machine.load_hthread(0, 0, 0, source, registers=registers)
        cycles = machine.run_until_quiescent(max_cycles=5000)
        assert cycles < 5000
        assert machine.nodes[0].context(0, 0).state is ThreadState.FAULTED
        assert len(exception_events(machine)) == 1

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_faulted_grid_points_agree(self, kernel):
        """Both kernels report the identical fault cycle and trace."""
        machine = protected_machine(kernel)
        rw = GuardedPointer(HEAP, 9, PointerPermission.rw())
        machine.load_hthread(
            0, 0, 0, MID_RUN_VIOLATION, registers={"i1": rw, "i2": HEAP}
        )
        machine.run_until_quiescent(max_cycles=5000)
        reference = protected_machine("event")
        reference.load_hthread(
            0, 0, 0, MID_RUN_VIOLATION, registers={"i1": rw, "i2": HEAP}
        )
        reference.run_until_quiescent(max_cycles=5000)
        assert machine.cycle == reference.cycle
        assert [str(e) for e in machine.tracer.events] == [
            str(e) for e in reference.tracer.events
        ]


class TestFaultedMachineKeepsWorking:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_new_work_after_fault(self, kernel):
        """A fault must not wedge the node: freshly loaded work still runs."""
        machine = protected_machine(kernel)
        machine.load_hthread(0, 0, 0, "ld i5, i1\nhalt", registers={"i1": HEAP})
        machine.run_until_quiescent(max_cycles=2000)
        assert machine.nodes[0].context(0, 0).state is ThreadState.FAULTED
        rw = GuardedPointer(HEAP, 9, PointerPermission.rw())
        machine.load_hthread(0, 1, 0, "ld i5, i1, #1\nhalt", registers={"i1": rw})
        machine.run_until_quiescent(max_cycles=2000)
        assert machine.nodes[0].context(1, 0).state is ThreadState.HALTED
        assert machine.register_value(0, 1, 0, "i5") == 5
