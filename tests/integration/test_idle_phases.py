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

Every scenario of ``scenarios.py`` runs twice under each clock driver --
once as shipped, once with the reference installed on every machine it
builds or restores -- and the machines it builds must not differ
(:func:`repro.fuzz.harness.machine_difference`, which compares the node
ticks too).  Among them: busy-stencil 2x2, where every phase but issue is
idle; the remote gather and its mid-run resume; ``coherence``'s native
handlers; the sync handler's deferred retries; ``nack-flood``'s
retransmissions; vthread-interleave under ``hep``, for the cycle-residue
branch of ``account_idle_cycles``; and a thread under ``hep`` whose node
sleeps with a profile whose reason is not its park's.

The module also checks that the scenarios take every guard, and counts
the calls a busy-stencil run makes into the idle layers.
"""

import pytest

from repro.api import get_workload
from repro.cluster.cluster import Cluster, HepBarrelPolicy, RegWrite, _residue_count
from repro.core.config import EVENT_SLOT, EXCEPTION_SLOT
from repro.core.machine import construction_hooks
from repro.isa.registers import NUM_CLUSTERS
from repro.memory.memory_system import MemorySystem
from repro.network.interface import NetworkInterface
from repro.node.node import Node
from repro.runtime.native import NativeHandler, SyncStatusFaultHandler
from repro.switches.crossbar import Crossbar
from scenarios import SCENARIOS, run_scenario, runs_difference

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
    while budget > 0 and self._broadcast and not ports_used:
        head = self._broadcast[0]
        if head.ready_cycle > cycle:
            break
        self._broadcast.popleft()
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
    for transfer in self._broadcast:
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


# -- tests -------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_guarded_phases_match_reference(name, kernel, monkeypatch):
    shipped = run_scenario(name, kernel)
    if not shipped:
        pytest.skip("builds no machine")
    for owner, attr, method in REFERENCE:
        monkeypatch.setattr(owner, attr, method)
    assert runs_difference(run_scenario(name, kernel), shipped) is None


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
        get_workload("busy-stencil").call({"iterations": 20, "mesh": [2, 2, 1]})
    (machine,) = machines
    assert machine.kernel.node_ticks == 828
    assert all(machine.nodes[n].native_handlers for n in range(machine.num_nodes))
    assert calls == {"deliver": 0, "memory": 0, "net": 0, "poll": 0}
