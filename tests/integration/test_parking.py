"""Parked H-Threads against the issue scan that re-checked them every cycle.

The issue scan parks a stalled H-Thread on the one condition it waits for
(an empty operand register or an underfull hardware queue) and re-tests
only that condition until it passes (:meth:`Cluster.issue`,
:meth:`Cluster.idle_profile`).  Both clock drivers run the same
``Cluster.issue``, so the kernel differential and the fuzz grid only ever
compare parked against parked.  Before parking, the scan ran a plan's full
``check`` on every visit; those two methods are kept here as the reference,
as ``test_generated_dispatch.py`` keeps the interpreting loops.

Every scenario of ``scenarios.py`` runs twice under each clock driver --
once as shipped, once with the reference installed on every cluster --
and the machines it builds must not differ
(:func:`repro.fuzz.harness.machine_difference`).  Every scenario that
builds a machine but ``coherent-contention`` must park a thread.

The module also checks the park tables, that a SEND whose credit check
comes before an empty operand never parks (another cluster's send can take
the credit while it waits), resumes snapshots taken while threads are
parked, and counts ``check`` calls per issued instruction on busy-stencil.
"""

import json
from contextlib import contextmanager

import pytest

from repro import MMachine
from repro.api import get_workload
from repro.cluster import dispatch
from repro.cluster.cluster import Cluster
from repro.cluster.dispatch import SimulationError
from repro.cluster.hthread import HThreadContext
from repro.core.config import EVENT_SLOT
from repro.core.machine import construction_hooks
from repro.fuzz.harness import machine_view, view_difference
from repro.isa.assembler import assemble
from repro.isa.registers import parse_register
from scenarios import SCENARIOS, gather_machine, run_scenario, runs_difference

KERNELS = ("naive", "event")

#: The one scenario whose threads never wait on a register or queue.
PARKS_NOTHING = {"coherent-contention"}


# -- the reference: the issue scan and sleep check before parking ---------------


def reference_issue(self, cycle: int) -> bool:
    runnable = self._runnable
    if runnable is None:
        runnable = self._refresh_runnable()
    if not runnable:
        self.idle_cycles += 1
        return False
    contexts = self.contexts
    all_plans = self._plans
    for slot in self._scan_orders[self.policy.scan_key(cycle)]:
        context = contexts[slot]
        plans = all_plans[slot]
        if plans is None:
            plans = self._slot_plans(slot)
        pc = context.pc
        if pc < 0 or pc >= len(plans):
            context.halt(cycle)
            continue
        self.icache.fetches += 1
        plan = plans[pc]
        stall = plan.check(self, context)
        if stall is not None:
            context.stall_cycles += 1
            context.stall_reasons[stall] += 1
            continue
        if context.start_cycle is None:
            context.start_cycle = cycle
        plan.fire(self, context, pc, cycle)
        num_ops = plan.num_ops
        unit_counts = self._unit_counts
        for index in plan.unit_idx:
            unit_counts[index] += 1
        self._slot_counts[slot] += 1
        self.instructions_issued += 1
        self.operations_issued += num_ops
        context.instructions_issued += 1
        context.operations_issued += num_ops
        self.policy.issued(slot)
        return True

    self.no_ready_cycles += 1
    return False


def reference_idle_profile(self):
    runnable = self._runnable
    if runnable is None:
        runnable = self._refresh_runnable()
    stalled = []
    for slot in runnable:
        context = self.contexts[slot]
        plans = self._plans[slot]
        if plans is None:
            plans = self._slot_plans(slot)
        pc = context.pc
        if pc < 0 or pc >= len(plans):
            return None
        try:
            reason = plans[pc].check(self, context)
        except SimulationError:
            return None
        if reason is None:
            return None
        stalled.append((context, reason))
    if not stalled:
        return ("idle", ())
    return ("blocked", tuple(stalled))


@contextmanager
def counting_checks():
    """Count the ``check`` calls of every plan compiled in the block; yields
    a one-item list holding the count.  Plans are shared process-wide
    (``dispatch._SHARED_PLANS``), so every wrapped plan gets its own
    ``check`` back on exit."""
    calls = [0]
    wrapped = {}
    compile_program = dispatch.compile_program

    def counted(check):
        def counting(cluster, context):
            calls[0] += 1
            return check(cluster, context)
        return counting

    def counting_compile(program, cluster, slot):
        plans = compile_program(program, cluster, slot)
        for plan in plans:
            if id(plan) not in wrapped:
                wrapped[id(plan)] = (plan, plan.check)
                plan.check = counted(plan.check)
        return plans

    dispatch.compile_program = counting_compile
    try:
        yield calls
    finally:
        dispatch.compile_program = compile_program
        for plan, check in wrapped.values():
            plan.check = check


@pytest.fixture
def parks(monkeypatch):
    """``(context, stall reason)`` of every park made during the test."""
    made = []
    park = HThreadContext.park

    def recording(context, reason, condition):
        made.append((context, reason))
        park(context, reason, condition)

    monkeypatch.setattr(HThreadContext, "park", recording)
    return made


# -- tests -------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_parked_scan_matches_reference(name, kernel, monkeypatch, parks):
    parked = run_scenario(name, kernel)
    if not parked:
        pytest.skip("builds no machine")
    if name not in PARKS_NOTHING:
        assert parks, "the scenario parked no thread"
    monkeypatch.setattr(Cluster, "issue", reference_issue)
    monkeypatch.setattr(Cluster, "idle_profile", reference_idle_profile)
    assert runs_difference(run_scenario(name, kernel), parked) is None


@pytest.mark.parametrize("kernel", KERNELS)
def test_send_credit_before_empty_operand_does_not_park(kernel, parks):
    (machine,) = run_scenario("send-before-empty-operand", kernel)
    sender = machine.nodes[0].clusters[0].contexts[0]
    assert parks, "the remote load's handler threads parked nothing"
    assert all(context is not sender for context, _ in parks)


def test_park_table_stops_at_the_first_step_others_can_change():
    """Register steps keep passing while the thread issues nothing; a send
    credit or an earlier queue does not, so no reason after one parks."""
    layout = HThreadContext(slot=EVENT_SLOT, cluster_id=0).registers

    def parks_of(source):
        instruction = assemble(source)[0]
        return dispatch._compile_instruction(instruction, layout, EVENT_SLOT).parks

    i1, i2 = (layout.flat_offset(parse_register(name)) for name in ("i1", "i2"))
    assert parks_of("add i3, i1, i2") == {"operand i1 empty": (None, i1),
                                          "operand i2 empty": (None, i2)}
    assert parks_of("add i3, net, net | mov i4, evq") == {"net queue empty": ("net", 2)}
    assert parks_of("send i1, #7, #1 | add i3, i2, #1") == {
        "operand i1 empty": (None, i1),
        "message-composition register m0 empty": (None, layout.flat_offset(parse_register("m0"))),
    }


def _contexts(machine):
    return [context for node in machine.nodes for cluster in node.clusters
            for context in cluster.contexts]


@pytest.mark.parametrize("kernel", KERNELS)
def test_snapshot_taken_while_parked_resumes_exactly(kernel):
    """A snapshot every 40 cycles of the remote gather, each taken while
    handler threads are parked on empty queues, restored into a fresh
    machine (which holds no park) and run to the end, gives the
    uninterrupted run."""
    uninterrupted = gather_machine(kernel)
    uninterrupted.run_until_user_done(max_cycles=30_000)
    expected = machine_view(uninterrupted)
    cycles = range(40, uninterrupted.cycle - 40, 40)
    assert len(cycles) >= 5
    for cycle in cycles:
        machine = gather_machine(kernel)
        machine.run(cycle)
        assert any(context.parked_on is not None and context.slot == EVENT_SLOT
                   for context in _contexts(machine))
        restored = MMachine.from_snapshot(json.loads(json.dumps(machine.snapshot_document())))
        assert all(context.parked_on is None for context in _contexts(restored))
        restored.run_until_user_done(max_cycles=30_000)
        diff = view_difference(expected, machine_view(restored))
        assert diff is None, f"resumed from cycle {cycle}: {diff}"


@pytest.mark.parametrize("kernel", KERNELS)
def test_busy_stencil_checks_once_per_issued_instruction(kernel):
    """On busy-stencil 2x2 at 96 iterations the scan calls ``check`` once
    per issued instruction plus once per park episode: each node's 3
    handler threads park on their first visit and stay parked.  That is
    15,468 calls for 15,456 instructions; re-checking every stalled thread
    on every visit made 27,072."""
    machines = []
    with counting_checks() as calls, construction_hooks(machine_hook=machines.append):
        get_workload("busy-stencil").call({"iterations": 96, "mesh": [2, 2, 1],
                                           "kernel": kernel})
    (machine,) = machines
    issued = sum(cluster.instructions_issued for node in machine.nodes
                 for cluster in node.clusters)
    assert (calls[0], issued) == (15_468, 15_456)
    assert calls[0] / issued <= 1.001
