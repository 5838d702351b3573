"""Every scenario the bit-exactness differentials run, defined once.

``SCENARIOS`` maps a name to ``scenario(kernel)``, which builds its machines
with ``config.sim.kernel = kernel``, runs them to the end and checks its
own result.  A differential runs a scenario twice, captures the machines
each run builds (:func:`run_scenario`) and compares them pairwise with
:func:`repro.fuzz.harness.machine_difference` (:func:`runs_difference`):

* ``test_kernel_equivalence.py``: the event kernel against the naive one;
* ``test_parking.py``: the shipped issue scan against the scan that
  re-checked every stalled thread on every visit;
* ``test_idle_phases.py``: the guarded ``Node.tick`` phases against the
  tick that ran every phase;
* ``test_state_walk.py`` runs each scenario once and checks that no
  attribute outside a component's ``_STATE`` table changes.

The catalogue holds every registered workload (those that build no
machine are skipped by the differentials), a few workloads at other
parameters or issue policies, fuzz programs 0-24, and the hand-built
machines whose runs reach what no workload does.  A new differential
needs one variant function; a new scenario goes here, and every
differential runs it.

This module imports no pytest, so plain-Python checks can use it.
"""

import json
import random
from typing import Callable, Dict, List, Optional

from repro import MMachine, MachineConfig
from repro.api import get_workload, workload_names
from repro.core.machine import construction_hooks
from repro.fuzz import generate_program
from repro.fuzz.harness import machine_difference
from repro.workloads.synthetic import remote_store_sender_program

HEAP = 0x10000
REGION = 0x40000

Scenario = Callable[[str], None]


def run_scenario(name: str, kernel: str) -> List[MMachine]:
    """Run scenario *name* under *kernel*; the machines it built, in the
    order it built them."""
    machines: List[MMachine] = []
    with construction_hooks(machine_hook=machines.append):
        SCENARIOS[name](kernel)
    return machines


def runs_difference(expected: List[MMachine], actual: List[MMachine]) -> Optional[str]:
    """The first difference between two runs of one scenario, machine by
    machine, or None."""
    if len(expected) != len(actual):
        return f"built {len(expected)} machines != {len(actual)}"
    for index, (left, right) in enumerate(zip(expected, actual)):
        diff = machine_difference(left, right)
        if diff is not None:
            return f"machine {index}: {diff}"
    return None


# -- registered workloads --------------------------------------------------------

#: Parameters other than the defaults: shorter runs, busy-stencil on four
#: nodes, and many-to-one-flood at the settings of the contention run.
PARAMS = {
    "busy-stencil": {"iterations": 12, "mesh": [2, 2, 1]},
    "cc-barrier": {"iterations": 10},
    "cc-sync": {"iterations": 10},
    "issue-policy": {"iterations": 20},
    "many-to-one-flood": {"messages_each": 12, "queue_words": 128,
                          "retransmit_interval": 32},
    "message-stream": {"count": 16},
    "ping-pong": {"rounds": 3},
    "remote-memory": {"repeats": 4},
    "vthread-interleave": {"num_threads": 3, "chain_loads": 6},
}


def _workload(name: str, policy: Optional[str] = None, **params) -> Scenario:
    """Registered workload *name* with *params* (over ``PARAMS``), every
    machine it builds under the scenario's kernel and issue *policy*."""
    params = {**PARAMS.get(name, {}), **params}

    def scenario(kernel: str) -> None:
        def configure(config: MachineConfig) -> None:
            config.sim.kernel = kernel
            if policy is not None:
                config.cluster.issue_policy = policy

        with construction_hooks(config_hook=configure):
            assert get_workload(name).call(params)["verified"]

    return scenario


def _fuzz(seed: int) -> Scenario:
    def scenario(kernel: str) -> None:
        program = generate_program(seed)
        program.run(program.build_machine(kernel))

    return scenario


# -- hand-built machines ---------------------------------------------------------


def small_config(shape, kernel: str, mode: str = "remote") -> MachineConfig:
    """A ``MachineConfig.small(*shape)`` under *kernel* and shared-memory
    *mode*."""
    config = MachineConfig.small(*shape)
    config.runtime.shared_memory_mode = mode
    config.sim.kernel = kernel
    return config


#: Three dependent remote loads, then a remote store into the element
#: reached, twice.
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
        lt i6, i3, #2
        br i6, loop
        halt
"""


def gather_machine(kernel: str) -> MMachine:
    """A 2x2 remote-mode mesh on which every node walks its own chain of
    two-word elements placed on the other nodes (loaded, not run)."""
    machine = MMachine(small_config((2, 2, 1), kernel))
    page = machine.page_size
    rng = random.Random(7)
    for home in range(machine.num_nodes):
        machine.map_on_node(home, REGION + home * page)
    used = [0] * machine.num_nodes
    for node in range(machine.num_nodes):
        chain = []
        for _ in range(7):
            home = rng.choice([h for h in range(machine.num_nodes) if h != node])
            chain.append(REGION + home * page + 2 * used[home])
            used[home] += 1
        for element, successor in zip(chain, chain[1:]):
            machine.write_word(element, successor)
        machine.load_hthread(node, 0, 0, GATHER_PROGRAM, registers={"i4": chain[0]})
    return machine


def remote_gather(kernel: str) -> None:
    """C-Switch replies, memory, and the event kernel's sleep and wake; the
    user threads park on their loads."""
    machine = gather_machine(kernel)
    machine.run_until_user_done(max_cycles=30_000)
    assert machine.register_value(0, 0, 0, "i3") == 2


def gather_resumed(kernel: str) -> None:
    """Snapshot the remote gather at cycle 150, restore the snapshot into a
    fresh machine and run it to the end."""
    machine = gather_machine(kernel)
    machine.run(150)
    restored = MMachine.from_snapshot(json.loads(json.dumps(machine.snapshot_document())))
    restored.run_until_user_done(max_cycles=30_000)
    assert restored.register_value(0, 0, 0, "i3") == 2


def coherent_share(kernel: str) -> None:
    """Node 1 reads a block, node 2 writes it (invalidating node 1), node 0
    recalls the dirty block by reading it back; the readers wait on their
    loads.  The coherence handlers are native, with busy charges, directory
    recalls and invalidation round trips."""
    machine = MMachine(small_config((4, 1, 1), kernel, mode="coherent"))
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
    assert machine.runtime.coherence.invalidations >= 1


def sync_producer_consumer(kernel: str) -> None:
    """The consumer's ``ld.ff`` faults until the producer's ``st.xf`` sets
    the word's synchronization bit; the sync handler retries it after its
    back-off."""
    machine = MMachine(small_config((1, 1, 1), kernel))
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


def hep_reason_changes_while_parked(kernel: str) -> None:
    """``add i3, i1, i2`` under ``hep`` parks on the local load's ``i1``,
    which fills between two of the thread's barrel turns; the idle profile
    then names ``i2``, which a remote load on node 3 fills much later, so
    the node sleeps with a profile whose reason is not the park's."""
    config = small_config((4, 1, 1), kernel)
    config.cluster.issue_policy = "hep"
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


def send_before_empty_operand(kernel: str) -> None:
    """Cluster 0's SEND tests its send credit before the empty ``i8`` that
    a remote load fills, while cluster 1 floods remote stores through the
    node's one credit: the stall flips between the two reasons, and the
    SEND must not park, since another cluster's send can take the credit
    while it waits."""
    config = small_config((2, 1, 1), kernel)
    config.network.send_credits = 1
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


def sync_retry_machine(kernel: str = "event") -> MMachine:
    """One node whose slot-0 ``ld.fe`` finds its word empty and faults; the
    fault is retried after a back-off until slot 1's ``st.ef``, twelve
    cycles late, fills the word (loaded, not run).  No registered workload
    and no fuzz program defers a synchronizing-fault retry."""
    machine = MMachine(small_config((1, 1, 1), kernel))
    machine.map_on_node(0, 0x10000, num_pages=1)
    machine.write_word(0x10000, 0, sync_bit=0)
    machine.load_hthread(0, 0, 0, "ld.fe i4, i1\nhalt", registers={"i1": 0x10000})
    machine.load_hthread(0, 1, 0, "nop\n" * 12 + "st.ef i5, i1\nhalt",
                         registers={"i1": 0x10000, "i5": 9})
    return machine


def coherent_contention_machine(kernel: str = "event") -> MMachine:
    """A 2x2x1 coherent machine whose nodes 1 and 2 load, and node 3
    stores to, one block homed on node 0 (loaded, not run).  Its run is the
    only one that holds a pending coherence grant across a cycle."""
    machine = MMachine(small_config((2, 2, 1), kernel, mode="coherent"))
    machine.map_on_node(0, 0x40000)
    for node in (1, 2):
        machine.load_hthread(node, 0, 0, "nop\nnop\nnop\nld i4, i1\nhalt",
                             registers={"i1": 0x40000})
    machine.load_hthread(3, 0, 0, "st i1, i1, #3\nhalt", registers={"i1": 0x40000})
    return machine


def _run_to_end(build: Callable[[str], MMachine], cycles: int) -> Scenario:
    def scenario(kernel: str) -> None:
        assert build(kernel).run_until_user_done(10_000) == cycles

    return scenario


def remote_store_exchange(kernel: str) -> None:
    """Nodes 0 and 1 each send eight remote stores into the other's page."""
    machine = MMachine(small_config((2, 1, 1), kernel))
    machine.map_on_node(0, REGION, num_pages=1)
    machine.map_on_node(1, REGION + 0x1000, num_pages=1)
    dip = machine.runtime.dip("remote_store")
    machine.load_hthread(0, 0, 0, remote_store_sender_program(REGION + 0x1000, dip, 8))
    machine.load_hthread(1, 0, 0, remote_store_sender_program(REGION, dip, 8, value_base=2000))
    machine.run_until_user_done(max_cycles=60_000)
    for offset in range(8):
        assert machine.read_word(REGION + offset) == 2000 + offset
        assert machine.read_word(REGION + 0x1000 + offset) == 1000 + offset


def remote_store_ltlb_miss(kernel: str) -> None:
    """A remote store whose home node misses in its LTLB."""
    machine = MMachine(small_config((2, 1, 1), kernel))
    machine.map_on_node(1, REGION, num_pages=1, preload_ltlb=False)
    machine.load_hthread(0, 0, 0, "st i6, i1\nhalt", registers={"i1": REGION + 9, "i6": 2718})
    machine.run_until_quiescent(max_cycles=10_000)
    assert machine.read_word(REGION + 9) == 2718


SCENARIOS: Dict[str, Scenario] = {
    **{name: _workload(name) for name in workload_names()},
    "stencil-4": _workload("stencil", n_hthreads=4),
    "stencil-27pt": _workload("stencil", kind="27pt", n_hthreads=2),
    "stencil-hep": _workload("stencil", policy="hep", n_hthreads=2, max_cycles=60_000),
    "vthread-interleave-round-robin": _workload("vthread-interleave", policy="round-robin"),
    "vthread-interleave-hep": _workload("vthread-interleave", policy="hep"),
    "nack-flood-16": _workload("nack-flood", messages_each=8, retransmit_interval=16),
    **{f"fuzz-{seed}": _fuzz(seed) for seed in range(25)},
    "remote-gather": remote_gather,
    "gather-resumed": gather_resumed,
    "coherent-share": coherent_share,
    "sync-producer-consumer": sync_producer_consumer,
    "hep-reason-changes-while-parked": hep_reason_changes_while_parked,
    "send-before-empty-operand": send_before_empty_operand,
    "sync-retry": _run_to_end(sync_retry_machine, 35),
    "coherent-contention": _run_to_end(coherent_contention_machine, 123),
    "remote-store-exchange": remote_store_exchange,
    "remote-store-ltlb-miss": remote_store_ltlb_miss,
}
