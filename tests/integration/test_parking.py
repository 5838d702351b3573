"""Parked H-Threads against the issue scan that re-checked them every cycle.

The issue scan parks a stalled H-Thread on the one condition it waits for
(an empty operand register or an underfull hardware queue) and re-tests
only that condition until it passes (:meth:`Cluster.issue`,
:meth:`Cluster.idle_profile`).  Both clock drivers run the same
``Cluster.issue``, so the kernel differential and the fuzz grid only ever
compare parked against parked.  Before parking, the scan ran a plan's full
``check`` on every visit; those two methods are kept here as the reference,
as ``test_generated_dispatch.py`` keeps the interpreting loops.

Every scenario runs twice under each clock driver -- once as shipped, once
with the reference installed on each cluster of every machine it builds --
and ``fuzz.harness.observe`` and ``state_dict`` must agree:

* busy-stencil 2x2, where the handler threads park on empty queues;
* a remote gather (remote mode, 2x2), where user threads park on loads;
* a coherent read-share-write sequence;
* ping-pong;
* vthread-interleave under the ``round-robin`` and ``hep`` policies;
* fuzz programs 0-24;
* a SEND whose credit check comes before an empty operand, which must not
  park: another cluster's send can take the credit while it waits.

The module also resumes snapshots taken while threads are parked, and
counts ``check`` calls per issued instruction on busy-stencil.
"""

import json
import random
from contextlib import contextmanager
from types import MethodType

import pytest

from repro import MMachine, MachineConfig
from repro.api import get_workload
from repro.cluster import dispatch
from repro.cluster.dispatch import SimulationError
from repro.cluster.hthread import HThreadContext
from repro.core.config import EVENT_SLOT
from repro.core.machine import construction_hooks
from repro.fuzz import generate_program
from repro.fuzz.harness import observe
from repro.isa.assembler import assemble
from repro.isa.registers import parse_register
from repro.workloads.synthetic import remote_store_sender_program

REGION = 0x40000
KERNELS = ("naive", "event")


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


# -- running a scenario both ways -----------------------------------------------


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


def _machines(scenario, kernel, monkeypatch, reference):
    """Run *scenario(kernel)*; return every machine it built.  With
    *reference*, each cluster of each machine runs the reference scan."""
    machines = []

    def hook(machine):
        if reference:
            for node in machine.nodes:
                for cluster in node.clusters:
                    monkeypatch.setattr(cluster, "issue", MethodType(reference_issue, cluster))
                    monkeypatch.setattr(cluster, "idle_profile",
                                        MethodType(reference_idle_profile, cluster))
        machines.append(machine)

    with construction_hooks(machine_hook=hook):
        scenario(kernel)
    return machines


def _state(machine):
    return json.loads(json.dumps(machine.state_dict()))


def _differential(scenario, kernel, monkeypatch):
    parked = _machines(scenario, kernel, monkeypatch, reference=False)
    reference = _machines(scenario, kernel, monkeypatch, reference=True)
    assert len(parked) == len(reference)
    for parked_machine, reference_machine in zip(parked, reference):
        assert observe(parked_machine) == observe(reference_machine)
        assert _state(parked_machine) == _state(reference_machine)
    return parked


# -- scenarios ---------------------------------------------------------------------


def busy_stencil(kernel, iterations=12):
    get_workload("busy-stencil").call({"iterations": iterations, "mesh": [2, 2, 1],
                                       "kernel": kernel})


#: Three dependent remote loads, then a remote store into the element
#: reached, ``groups`` times.
GATHER_PROGRAM = """
        mov i3, #0
        mov i5, #0
loop:   ld i4, i4
        add i5, i5, i4
        ld i4, i4
        add i5, i5, i4
        ld i4, i4
        add i5, i5, i4
        add i3, i3, #1
        st i3, i4, #1
        lt i6, i3, #{groups}
        br i6, loop
        halt
"""


def gather_machine(kernel, groups=2):
    """A 2x2 remote-mode mesh on which every node walks its own chain of
    two-word elements placed on the other nodes (loaded, not run)."""
    config = MachineConfig.small(2, 2, 1)
    config.runtime.shared_memory_mode = "remote"
    config.sim.kernel = kernel
    machine = MMachine(config)
    page = machine.page_size
    rng = random.Random(7)
    for home in range(machine.num_nodes):
        machine.map_on_node(home, REGION + home * page)
    used = [0] * machine.num_nodes
    for node in range(machine.num_nodes):
        chain = []
        for _ in range(3 * groups + 1):
            home = rng.choice([h for h in range(machine.num_nodes) if h != node])
            chain.append(REGION + home * page + 2 * used[home])
            used[home] += 1
        for element, successor in zip(chain, chain[1:]):
            machine.write_word(element, successor)
        machine.load_hthread(node, 0, 0, GATHER_PROGRAM.format(groups=groups),
                             registers={"i4": chain[0]})
    return machine


def remote_gather(kernel, groups=2):
    machine = gather_machine(kernel, groups)
    machine.run_until_user_done(max_cycles=30_000)
    assert machine.register_value(0, 0, 0, "i3") == groups


def coherent_share(kernel):
    """Node 1 reads a block, node 2 writes it (invalidating node 1), node 0
    recalls the dirty block by reading it back; the readers wait on their
    loads.  The coherence handlers are native, so only user threads park."""
    config = MachineConfig.small(4, 1, 1)
    config.runtime.shared_memory_mode = "coherent"
    config.sim.kernel = kernel
    machine = MMachine(config)
    machine.map_on_node(0, REGION, num_pages=1)
    machine.write_word(REGION, 5)
    machine.load_hthread(1, 0, 0, "ld i5, i1\nadd i6, i5, #1\nhalt", registers={"i1": REGION})
    machine.run_until(lambda m: m.register_full(1, 0, 0, "i5"), max_cycles=30_000)
    machine.load_hthread(2, 0, 0, "st i6, i1\nhalt", registers={"i1": REGION, "i6": 42})
    machine.run_until_quiescent(max_cycles=60_000)
    machine.load_hthread(0, 0, 0, "ld i7, i1\nadd i8, i7, #1\nhalt", registers={"i1": REGION})
    machine.run_until(lambda m: m.register_full(0, 0, 0, "i7"), max_cycles=60_000)
    assert machine.register_value(0, 0, 0, "i7") == 42
    machine.run_until_quiescent(max_cycles=60_000)


def ping_pong(kernel):
    get_workload("ping-pong").call({"rounds": 3, "kernel": kernel})


def vthread_interleave(policy):
    def scenario(kernel):
        def config_hook(config):
            config.cluster.issue_policy = policy
        with construction_hooks(config_hook=config_hook):
            get_workload("vthread-interleave").call({"num_threads": 3, "chain_loads": 6,
                                                     "kernel": kernel})
    return scenario


def fuzz_program(seed):
    def scenario(kernel):
        program = generate_program(seed)
        program.run(program.build_machine(kernel))
    return scenario


def send_before_empty_operand(kernel):
    """Cluster 0's SEND tests its send credit before the empty ``i8`` that
    a remote load fills, while cluster 1 floods remote stores through the
    node's one credit: the stall flips between the two reasons."""
    config = MachineConfig.small(2, 1, 1)
    config.runtime.shared_memory_mode = "remote"
    config.network.send_credits = 1
    config.sim.kernel = kernel
    machine = MMachine(config)
    machine.map_on_node(1, REGION, num_pages=1)
    machine.write_word(REGION + 100, 9)
    dip = machine.runtime.dip("remote_store")
    machine.load_hthread(0, 0, 0, f"""
        mov m0, #5
        ld i8, i9
        send i1, #{dip}, #1 | add i7, i8, #1
        halt
    """, registers={"i1": REGION + 200, "i9": REGION + 100})
    machine.load_hthread(0, 0, 1, remote_store_sender_program(REGION, dip, 12))
    machine.run_until_user_done(max_cycles=20_000)
    assert machine.register_value(0, 0, 0, "i7") == 10
    reasons = machine.nodes[0].clusters[0].contexts[0].stall_reasons
    assert reasons["operand i8 empty"] > 0
    assert reasons["network output busy or out of send credits"] > 0


SCENARIOS = {
    "busy-stencil": busy_stencil,
    "remote-gather": remote_gather,
    "coherent-share": coherent_share,
    "ping-pong": ping_pong,
    "vthread-interleave-round-robin": vthread_interleave("round-robin"),
    "vthread-interleave-hep": vthread_interleave("hep"),
}


# -- tests -------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_parked_scan_matches_reference(name, kernel, monkeypatch, parks):
    _differential(SCENARIOS[name], kernel, monkeypatch)
    assert parks, "the scenario parked no thread"


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", range(25))
def test_fuzz_program_matches_reference(seed, kernel, monkeypatch):
    _differential(fuzz_program(seed), kernel, monkeypatch)


@pytest.mark.parametrize("kernel", KERNELS)
def test_send_credit_before_empty_operand_does_not_park(kernel, monkeypatch, parks):
    (machine,) = _differential(send_before_empty_operand, kernel, monkeypatch)
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
    expected, expected_state = observe(uninterrupted), _state(uninterrupted)
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
        assert observe(restored) == expected, f"resumed from cycle {cycle}"
        assert _state(restored) == expected_state, f"resumed from cycle {cycle}"


@pytest.mark.parametrize("kernel", KERNELS)
def test_busy_stencil_checks_once_per_issued_instruction(kernel):
    """On busy-stencil 2x2 at 96 iterations the scan calls ``check`` once
    per issued instruction plus once per park episode: each node's 3
    handler threads park on their first visit and stay parked.  That is
    15,468 calls for 15,456 instructions; re-checking every stalled thread
    on every visit made 27,072."""
    machines = []
    with counting_checks() as calls, construction_hooks(machine_hook=machines.append):
        busy_stencil(kernel, iterations=96)
    (machine,) = machines
    issued = sum(cluster.instructions_issued for node in machine.nodes
                 for cluster in node.clusters)
    assert (calls[0], issued) == (15_468, 15_456)
    assert calls[0] / issued <= 1.001
