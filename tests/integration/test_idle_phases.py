"""Skipped idle phases and the lean sleep test against the code that paid
for every phase on every tick.

``Node.tick`` runs a phase only when the container its component's method
tests first holds something, and the event kernel's sleep test asks only
the components that hold work (:meth:`Node.tick`,
:meth:`Node.next_event_cycle`).  Both clock drivers run the same
``Node.tick``, so the kernel differential and the fuzz grid only ever
compare the guarded phases with themselves.  The methods as they were
before the guards are kept here as the reference: ``Node.tick`` calling
every phase on every tick, ``Crossbar.deliver`` with its own empty-switch
branch and its old per-cycle budget of four transfers, the sync handler's ``tick``, ``Node.next_event_cycle`` asking every
component, ``has_pending_work`` and the two ``user_threads_finished``
predicates built on generators, and ``Cluster.account_idle_cycles``
counting every blocked cycle through ``stall_reasons``.

Every scenario runs twice under each clock driver -- once as shipped, once
with the reference installed on every machine it builds -- and
``fuzz.harness.observe``, ``state_dict``, the trace and
``kernel.node_ticks`` must agree:

* busy-stencil 2x2, where every phase but issue is idle;
* a remote gather (remote mode, 2x2): C-Switch replies, memory and the
  event kernel's sleep and wake;
* ``coherence``: the four native coherence handlers;
* a producer/consumer ``ld.ff``/``st.xf`` pair on one node, whose
  synchronizing faults go through the sync handler's deferred retries;
* ``nack-flood``, for the network interface's retransmissions;
* ping-pong;
* vthread-interleave under ``hep``, for the cycle-residue branch of
  ``account_idle_cycles``;
* a thread under ``hep`` parked on one empty operand whose register fills
  before its turn while the other operand is still empty, so the node
  sleeps with a profile whose reason is not the park's;
* fuzz programs 0-24;
* a remote gather snapshotted mid-run and resumed.

The module also checks that these scenarios take every guard, and counts
the calls a busy-stencil run makes into the idle layers.
"""

import json
import random
from contextlib import contextmanager

import pytest

from repro import MMachine, MachineConfig
from repro.api import get_workload
from repro.cluster.cluster import Cluster, HepBarrelPolicy, RegWrite, _residue_count
from repro.core.config import EVENT_SLOT, EXCEPTION_SLOT
from repro.core.machine import construction_hooks
from repro.core.trace import encode_event
from repro.fuzz import generate_program
from repro.fuzz.harness import observe
from repro.isa.registers import NUM_CLUSTERS
from repro.memory.memory_system import MemorySystem
from repro.network.interface import NetworkInterface
from repro.node.node import Node
from repro.runtime.native import NativeHandler, SyncStatusFaultHandler
from repro.switches.crossbar import Crossbar

REGION = 0x40000
HEAP = 0x10000
KERNELS = ("naive", "event")


# -- the reference: every phase on every tick, every component at every test ---


def reference_tick(self, cycle: int) -> int:
    for dest_cluster, payload in self.cswitch.deliver(cycle):
        self.clusters[dest_cluster].receive(payload, cycle)
        if isinstance(payload, RegWrite) and payload.origin:
            self.trace(cycle, "reg_write", cluster=dest_cluster, slot=payload.vthread,
                       reg=str(payload.ref), origin=payload.origin)
    for cluster in self.clusters:
        if cluster._writebacks:
            cluster.apply_writebacks(cycle)
    self._enqueue_due_events(cycle)
    for response in self.memory.tick(cycle):
        if response.dest is not None and not response.faulted:
            self.cswitch.submit(
                response.cluster,
                RegWrite(vthread=response.vthread, ref=response.dest, value=response.value,
                         clear_pending=True, origin="memory"),
                cycle,
            )
            self.trace(cycle, "mem_response", req=response.request.req_id,
                       cluster=response.cluster, slot=response.vthread)
    for handler in self.native_handlers:
        handler.tick(self, cycle)
    issued = 0
    for cluster in self.clusters:
        if cluster.issue(cycle):
            issued += 1
    self.instructions_last_cycle = issued
    self.net.tick(cycle)
    return issued


def reference_deliver(self, cycle: int):
    # The budget of four never binds on four ports: the shipped method has
    # none, and this differential checks that it delivers the same.
    if not self._num_pending:
        self._rr_pointer = (self._rr_pointer + 1) % NUM_CLUSTERS
        return []
    delivered = []
    budget = 4
    ports_used = set()
    while budget > 0 and self._broadcast_queue and not ports_used:
        head = self._broadcast_queue[0]
        if head.ready_cycle > cycle:
            break
        self._broadcast_queue.popleft()
        self._num_pending -= 1
        for port in range(NUM_CLUSTERS):
            delivered.append((port, head.payload))
            ports_used.add(port)
        budget -= 1
        self.transfers_delivered += 1
    for scan in range(NUM_CLUSTERS):
        if budget <= 0:
            break
        port = (self._rr_pointer + scan) % NUM_CLUSTERS
        if port in ports_used:
            continue
        queue = self._queues[port]
        if not queue:
            continue
        head = queue[0]
        if head.ready_cycle > cycle:
            continue
        queue.popleft()
        self._num_pending -= 1
        delivered.append((port, head.payload))
        ports_used.add(port)
        budget -= 1
        self.transfers_delivered += 1
    self._rr_pointer = (self._rr_pointer + 1) % NUM_CLUSTERS
    waiting = 0
    for queue in self._queues.values():
        for transfer in queue:
            if transfer.ready_cycle <= cycle:
                waiting += 1
    for transfer in self._broadcast_queue:
        if transfer.ready_cycle <= cycle:
            waiting += 1
    if waiting:
        self.contention_stalls += waiting
    self.busiest_cycle_transfers = max(self.busiest_cycle_transfers, len(delivered))
    return delivered


def reference_sync_handler_tick(self, node, cycle: int) -> None:
    if self._deferred:
        due = [entry for entry in self._deferred if entry[0] <= cycle]
        self._deferred = [entry for entry in self._deferred if entry[0] > cycle]
        for _, request in due:
            self.node.memory.submit(request, cycle)
            self.retries += 1
    NativeHandler.tick(self, node, cycle)


def reference_has_pending_work(self) -> bool:
    return (
        self.memory.busy
        or bool(self._pending_events)
        or self.cswitch.pending > 0
        or not self.msg_queue_p0.is_empty
        or not self.msg_queue_p1.is_empty
        or not self.event_queue_sync.is_empty
        or not self.event_queue_ltlb.is_empty
        or self.net.busy
        or any(handler.busy for handler in self.native_handlers)
        or any(cluster._writebacks for cluster in self.clusters)
    )


def reference_next_event_cycle(self, cycle: int):
    candidates = []
    ready = self.cswitch.next_ready_cycle()
    if ready is not None:
        candidates.append(ready)
    for cluster in self.clusters:
        due = cluster.next_writeback_cycle()
        if due is not None:
            candidates.append(due)
    if self._pending_events:
        candidates.append(min(at_cycle for at_cycle, _ in self._pending_events))
    due = self.memory.next_event_cycle(cycle)
    if due is not None:
        candidates.append(due)
    for handler in self.native_handlers:
        due = handler.next_event_cycle(cycle)
        if due is not None:
            candidates.append(due)
    due = self.net.next_event_cycle(cycle)
    if due is not None:
        candidates.append(due)
    if not candidates:
        return None
    return max(min(candidates), cycle + 1)


def reference_node_users_finished(self) -> bool:
    return all(cluster.user_threads_finished for cluster in self.clusters)


def reference_cluster_users_finished(self) -> bool:
    return all(
        ctx.finished
        for ctx in self.contexts
        if ctx.slot not in (EVENT_SLOT, EXCEPTION_SLOT)
    )


def reference_account_idle_cycles(self, profile, start_cycle: int, num_cycles: int) -> None:
    kind, stalled = profile
    if kind == "idle":
        self.idle_cycles += num_cycles
        return
    self.no_ready_cycles += num_cycles
    if isinstance(self.policy, HepBarrelPolicy):
        modulus = self.policy.num_slots
        for context, reason in stalled:
            visits = _residue_count(start_cycle, num_cycles, context.slot, modulus)
            if visits:
                self.icache.fetches += visits
                context.stall_cycles += visits
                context.stall_reasons[reason] += visits
    else:
        for context, reason in stalled:
            self.icache.fetches += num_cycles
            context.stall_cycles += num_cycles
            context.stall_reasons[reason] += num_cycles


REFERENCE = (
    (Node, "tick", reference_tick),
    (Node, "has_pending_work", property(reference_has_pending_work)),
    (Node, "next_event_cycle", reference_next_event_cycle),
    (Node, "user_threads_finished", property(reference_node_users_finished)),
    (Cluster, "user_threads_finished", property(reference_cluster_users_finished)),
    (Cluster, "account_idle_cycles", reference_account_idle_cycles),
    (Crossbar, "deliver", reference_deliver),
    (SyncStatusFaultHandler, "tick", reference_sync_handler_tick),
)


@contextmanager
def reference_installed():
    """Every machine built or restored in the block runs the reference."""
    with pytest.MonkeyPatch.context() as patch:
        for owner, name, method in REFERENCE:
            patch.setattr(owner, name, method)
        yield


# -- running a scenario both ways -----------------------------------------------


def _machines(scenario, kernel, reference):
    """Run *scenario(kernel)*; return every machine it built."""
    machines = []
    with construction_hooks(machine_hook=machines.append):
        if reference:
            with reference_installed():
                scenario(kernel)
        else:
            scenario(kernel)
    return machines


def _trace(machine):
    return json.loads(json.dumps([encode_event(event) for event in machine.tracer]))


def _state(machine):
    return json.loads(json.dumps(machine.state_dict()))


def _differential(scenario, kernel):
    shipped = _machines(scenario, kernel, reference=False)
    reference = _machines(scenario, kernel, reference=True)
    assert shipped and len(shipped) == len(reference)
    for machine, expected in zip(shipped, reference):
        assert machine.kernel.node_ticks == expected.kernel.node_ticks
        assert observe(machine) == observe(expected)
        assert _trace(machine) == _trace(expected)
        assert _state(machine) == _state(expected)


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
    rng = random.Random(11)
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


def remote_gather(kernel):
    machine = gather_machine(kernel)
    machine.run_until_user_done(max_cycles=30_000)
    assert machine.register_value(0, 0, 0, "i3") == 2


def coherence(kernel):
    get_workload("coherence").call({"repeats": 3, "kernel": kernel})


def sync_producer_consumer(kernel):
    """The consumer's ``ld.ff`` faults until the producer's ``st.xf`` sets
    the word's synchronization bit; the sync handler retries it after its
    back-off."""
    config = MachineConfig.single_node()
    config.sim.kernel = kernel
    machine = MMachine(config)
    machine.map_on_node(0, HEAP, num_pages=1)
    machine.write_word(HEAP + 32, 0, sync_bit=0)
    machine.load_hthread(0, 0, 0, "ld.ff i5, i1\nhalt", registers={"i1": HEAP + 32})
    machine.load_hthread(0, 1, 0, """
        mov i2, #0
wait:   add i2, i2, #1
        lt i3, i2, #40
        br i3, wait
        st.xf i4, i1
        halt
    """, registers={"i1": HEAP + 32, "i4": 1234})
    machine.run_until_user_done(max_cycles=40_000)
    assert machine.register_value(0, 0, 0, "i5") == 1234
    assert machine.nodes[0].native_handlers[0].retries >= 1


def nack_flood(kernel):
    get_workload("nack-flood").call({"messages_each": 6, "kernel": kernel})


def ping_pong(kernel):
    get_workload("ping-pong").call({"rounds": 3, "kernel": kernel})


def vthread_interleave_hep(kernel):
    def config_hook(config):
        config.cluster.issue_policy = "hep"
    with construction_hooks(config_hook=config_hook):
        get_workload("vthread-interleave").call({"num_threads": 3, "chain_loads": 6,
                                                 "kernel": kernel})


def hep_reason_changes_while_parked(kernel):
    """``add i3, i1, i2`` parks on the local load's ``i1``, which fills
    between two of the thread's barrel turns; the idle profile then names
    ``i2``, which a remote load on node 3 fills much later."""
    config = MachineConfig.small(4, 1, 1)
    config.runtime.shared_memory_mode = "remote"
    config.cluster.issue_policy = "hep"
    config.sim.kernel = kernel
    machine = MMachine(config)
    page = machine.page_size
    machine.map_on_node(0, REGION, num_pages=1)
    machine.map_on_node(3, REGION + page, num_pages=1)
    machine.write_word(REGION, 5)
    machine.write_word(REGION + page, 7)
    machine.load_hthread(0, 0, 0, """
        ld i2, i9
        mov i5, #0
wait:   add i5, i5, #1
        lt i6, i5, #8
        br i6, wait
        ld i1, i8
        add i3, i1, i2
        halt
    """, registers={"i8": REGION, "i9": REGION + page})
    machine.run_until_user_done(max_cycles=20_000)
    assert machine.register_value(0, 0, 0, "i3") == 12
    reasons = machine.nodes[0].clusters[0].contexts[0].stall_reasons
    assert reasons["operand i1 empty"] > 0 and reasons["operand i2 empty"] > 0


def gather_resumed(kernel):
    """Snapshot the remote gather at cycle 150, restore the snapshot into a
    fresh machine and run it to the end."""
    machine = gather_machine(kernel)
    machine.run(150)
    restored = MMachine.from_snapshot(json.loads(json.dumps(machine.snapshot_document())))
    restored.run_until_user_done(max_cycles=30_000)
    assert restored.register_value(0, 0, 0, "i3") == 2


def fuzz_program(seed):
    def scenario(kernel):
        program = generate_program(seed)
        program.run(program.build_machine(kernel))
    return scenario


SCENARIOS = {
    "busy-stencil": busy_stencil,
    "remote-gather": remote_gather,
    "coherence": coherence,
    "sync-producer-consumer": sync_producer_consumer,
    "nack-flood": nack_flood,
    "ping-pong": ping_pong,
    "vthread-interleave-hep": vthread_interleave_hep,
    "hep-reason-changes-while-parked": hep_reason_changes_while_parked,
    "gather-resumed": gather_resumed,
}


# -- tests -------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_guarded_phases_match_reference(name, kernel):
    _differential(SCENARIOS[name], kernel)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", range(25))
def test_fuzz_program_matches_reference(seed, kernel):
    _differential(fuzz_program(seed), kernel)


def test_scenarios_take_every_guard():
    """Each guarded phase runs somewhere among the scenarios, the sync
    handler is ticked for a deferred retry alone, the sleep test finds work
    due next cycle as well as work due later, and a woken node replays
    blocked cycles of a parked thread under a reason other than its
    park's."""
    taken = {name: 0 for name in ("deliver", "events", "memory", "handler",
                                  "deferred only", "retransmit", "due next cycle",
                                  "due later", "parked on another reason")}

    def counting(name, method, when=lambda self, *args: True):
        def wrapper(self, *args):
            if when(self, *args):
                taken[name] += 1
            return method(self, *args)
        return wrapper

    shipped_next_event_cycle = Node.next_event_cycle

    def next_event_cycle(self, cycle):
        due = shipped_next_event_cycle(self, cycle)
        if due is not None:
            taken["due next cycle" if due == cycle + 1 else "due later"] += 1
        return due

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Node, "next_event_cycle", next_event_cycle)
        patch.setattr(Crossbar, "deliver", counting("deliver", Crossbar.deliver))
        patch.setattr(Node, "_enqueue_due_events",
                      counting("events", Node._enqueue_due_events))
        patch.setattr(MemorySystem, "tick", counting("memory", MemorySystem.tick))
        patch.setattr(NativeHandler, "tick", counting("handler", NativeHandler.tick))
        patch.setattr(SyncStatusFaultHandler, "tick", counting(
            "deferred only", SyncStatusFaultHandler.tick,
            lambda self, node, cycle: self._deferred and not self.queue._words))
        patch.setattr(NetworkInterface, "tick", counting("retransmit", NetworkInterface.tick))
        patch.setattr(Cluster, "account_idle_cycles", counting(
            "parked on another reason", Cluster.account_idle_cycles,
            lambda self, profile, start, count: any(
                context.parked_on is not None and reason != context.parked_reason
                for context, reason in profile[1])))
        for scenario in SCENARIOS.values():
            scenario("event")
    assert all(taken.values()), taken


def test_busy_stencil_skips_the_idle_layers():
    """On busy-stencil 2x2 (20 iterations) under the event kernel, no node
    has switch, memory, network or handler work: the C-Switch, the memory
    system, the network interface and the sync handler's ``poll`` are never
    entered.  Ticking every phase made one call of each per node-tick, 828
    in all."""
    machines, calls = [], {"deliver": 0, "memory": 0, "net": 0, "poll": 0}

    def count(owner, attr, name):
        method = getattr(owner, attr)

        def counted(*args):
            calls[name] += 1
            return method(*args)

        setattr(owner, attr, counted)

    def instrument(machine):
        machines.append(machine)
        for node in machine.nodes:
            count(node.cswitch, "deliver", "deliver")
            count(node.memory, "tick", "memory")
            count(node.net, "tick", "net")
            for handler in node.native_handlers:
                count(handler, "poll", "poll")

    with construction_hooks(machine_hook=instrument):
        busy_stencil("event", iterations=20)
    (machine,) = machines
    assert machine.kernel.node_ticks == 828
    assert all(machine.nodes[n].native_handlers for n in range(machine.num_nodes))
    assert calls == {"deliver": 0, "memory": 0, "net": 0, "poll": 0}
