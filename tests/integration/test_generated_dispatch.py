"""Generated check and fire functions against the loops they replaced.

Every compiled plan carries two generated functions, ``check`` and ``fire``
(:mod:`repro.cluster.dispatch`).  Before code generation the issue stage
evaluated the same readiness steps and operand readers with two loops,
``Cluster._stall_reason`` and ``Cluster._execute_plan``; they are kept here
as the reference.  Every instruction of the three runtime handler programs,
of fuzz programs 0-24, of the busy stencil and of the malformed-program
table is driven through both, on two identical machines, from seeded random
register values, scoreboard bits, pending writes and queue contents:

* ``check`` returns the reference's stall reason, or raises its error;
* ``fire`` leaves equal register arrays, read counts, writebacks, PC,
  thread state, queue words, exception records, memory requests, messages,
  C-Switch transfers and trace events, or raises the reference's error.

The module also pins how compiled code is shared within a process: one
factory per instruction shape, and one set of handler programs, with their
plans, for every remote-mode machine and every machine restored from one.
"""

import random
from collections import deque

import pytest

from repro import MMachine, MachineConfig
from repro.api import get_workload
from repro.cluster import dispatch
from repro.cluster.dispatch import (
    CHECK_FULL,
    CHECK_PENDING,
    CHECK_QUEUE,
    CHECK_SEND,
    READ_CID,
    READ_CONST,
    READ_NID,
    READ_REG,
    SimulationError,
)
from repro.cluster.functional_units import ArithmeticFault, OperandError
from repro.cluster.hthread import ThreadState
from repro.core.config import (
    EVENT_CLUSTER_LTLB,
    EVENT_CLUSTER_MSG_P0,
    EVENT_CLUSTER_MSG_P1,
    EVENT_SLOT,
)
from repro.core.machine import construction_hooks
from repro.events.records import EventType
from repro.fuzz import generate_program
from repro.isa.assembler import assemble
from repro.isa.operations import LabelRef
from repro.memory.guarded_pointer import GuardedPointer, PointerPermission, ProtectionError
from repro.runtime import build_asm_runtime
from test_malformed_programs import CASES as MALFORMED_CASES, PREAMBLE, REGION

TRIALS = 4


# -- the reference: the issue stage's loops before code generation -----------


def reference_stall_reason(cluster, context, steps):
    registers = context.registers
    for kind, arg, reason in steps:
        if kind == CHECK_FULL:
            if not registers._full[arg]:
                return reason
        elif kind == CHECK_PENDING:
            if registers._pending[arg]:
                return reason
        elif kind == CHECK_QUEUE:
            try:
                queue = cluster._queue_cache[context.slot][arg[0]]
            except KeyError:
                queue = cluster._queue_binding(context.slot, arg[0])
            if queue is not None and len(queue._words) < arg[1]:
                return reason
        elif kind == CHECK_SEND:
            if not cluster.node.can_send(arg):
                return reason
        else:  # CHECK_RAISE
            raise SimulationError(arg)
    return None


def reference_execute_plan(cluster, context, plan, pc, cycle):
    registers = context.registers
    stored = registers._values
    try:
        calls = []
        for cop in plan.ops:
            if cop.privilege_msg is not None:
                raise ProtectionError(cop.privilege_msg)
            values = []
            for mode, arg in cop.readers:
                if mode == READ_REG:
                    registers.reads += 1
                    values.append(stored[arg])
                elif mode == READ_CONST:
                    values.append(arg)
                elif mode == READ_NID:
                    values.append(cluster.node.node_id)
                elif mode == READ_CID:
                    values.append(cluster.id)
                else:  # READ_QUEUE
                    queue = cluster._queue_binding(context.slot, arg)
                    if queue is None:
                        raise ProtectionError(
                            f"register {arg!r} is not readable from "
                            f"cluster {cluster.id} slot {context.slot}")
                    values.append(queue.pop_word())
            calls.append((cop.executor, values))
        next_pc = pc + 1
        for executor, values in calls:
            outcome_pc = executor(cluster, context, values, cycle)
            if outcome_pc is not None:
                next_pc = outcome_pc
        if context.state is ThreadState.RUNNABLE:
            context.pc = next_pc
    except ProtectionError as exc:
        cluster._raise_exception(context, EventType.PROTECTION, str(exc), cycle)
    except ArithmeticFault as exc:
        cluster._raise_exception(context, EventType.ARITHMETIC, str(exc), cycle)
    except OperandError as exc:
        raise SimulationError(f"{exc} (instruction {plan.instruction})") from exc


# -- machines and their resident programs --------------------------------------


def _handler_machine():
    return MMachine(MachineConfig.single_node())


def _fuzz_machine(seed):
    return lambda: generate_program(seed).build_machine("event")


def _busy_machine():
    machines = []
    with construction_hooks(machine_hook=machines.append):
        get_workload("busy-stencil").call({"iterations": 3})
    return machines[0]


def _malformed_machine():
    machine = MMachine(MachineConfig.single_node())
    machine.map_on_node(0, REGION, num_pages=1)
    for cluster, case in enumerate(MALFORMED_CASES[:4]):
        machine.load_hthread(0, 0, cluster, PREAMBLE + case[1] + "\nhalt")
    for cluster, case in enumerate(MALFORMED_CASES[4:]):
        machine.load_hthread(0, 1, cluster, PREAMBLE + case[1] + "\nhalt")
    return machine


MACHINES = (
    [("handlers", _handler_machine), ("busy-stencil", _busy_machine),
     ("malformed", _malformed_machine)]
    + [(f"fuzz-{seed}", _fuzz_machine(seed)) for seed in range(25)]
)


def _resident(machine):
    """(node, cluster, slot) of every thread slot holding a program."""
    return [
        (node.node_id, cluster.id, slot)
        for node in machine.nodes
        for cluster in node.clusters
        for slot in range(len(cluster.contexts))
        if cluster.icache.program(slot) is not None
    ]


def _queues(node):
    return [node.msg_queue_p0, node.msg_queue_p1, node.event_queue_sync,
            node.event_queue_ltlb] + list(node.exception_queues)


# -- seeded machine states -------------------------------------------------------


#: Register values to draw from: small and negative ints, ints far beyond 64
#: bits and beyond a float (no shift by any of them allocates much memory
#: before it raises), bools, floats, guarded pointers, a label and addresses.
VALUES = (
    [-3, -1, 0, 1, 2, 3, 7, 63, (1 << 64) - 1, -(1 << 64), 1 << 100, 1 << 2000,
     True, False, 0.5, -2.0, 1e300, float("inf"), float("nan"), LabelRef("elsewhere")]
    + [GuardedPointer(REGION + offset, 6, PointerPermission.rw()) for offset in (0, 9, 63)]
    + [REGION + offset for offset in (0, 1, 8, 40)]
)


def _draw_state(seed, size, queues):
    """Register values, scoreboard bits, pending counts and the words of
    each queue, drawn from *seed*."""
    rng = random.Random(seed)
    return (rng.choices(VALUES, k=size),
            rng.choices((True, True, True, True, True, False), k=size),
            rng.choices((0, 0, 0, 0, 1, 2), k=size),
            [rng.choices(range(1 << 16), k=rng.randrange(6)) for _ in range(queues)])


def _set_state(machine, node_id, cluster_id, slot, pc, state, initial):
    """Give one thread slot and its node the drawn *state*, and the node's
    in-flight memory, network and C-Switch state back its *initial* one."""
    node = machine.nodes[node_id]
    cluster = node.clusters[cluster_id]
    context = cluster.contexts[slot]
    registers = context.registers
    values, full, pending, words = state
    registers._values[:] = values
    registers._full[:] = full
    registers._pending[:] = pending
    registers.reads = 0
    for queue, queue_words in zip(_queues(node), words):
        queue._words = deque(queue_words)
    cluster._writebacks = []
    cluster.exceptions_raised = 0
    node.memory.load_state_dict(initial[0])
    node.net.load_state_dict(initial[1])
    node.cswitch.load_state_dict(initial[2])
    machine.tracer.clear()
    context.pc = pc
    context._set_state(ThreadState.RUNNABLE)


def _observe(machine, node_id, cluster_id, slot):
    node = machine.nodes[node_id]
    cluster = node.clusters[cluster_id]
    context = cluster.contexts[slot]
    registers = context.registers
    # Values compare by identity first, so a drawn nan equals itself; a
    # computed result in a writeback may be a new nan, so those compare by
    # their text.
    return (
        registers._values, registers._full, registers._pending, registers.reads,
        repr(cluster._writebacks), context.pc, context.state, cluster.exceptions_raised,
        [list(queue._words) for queue in _queues(node)],
        [[record.to_words(), record.extra]
         for record in node.exception_queues[cluster_id]._records],
        node.memory.state_dict(), node.net.state_dict(), node.cswitch.state_dict(),
        [(event.cycle, event.node, event.category, event.info) for event in machine.tracer],
    )


def _outcome(call):
    """What *call* returned, or the type and text of what it raised."""
    try:
        return ("returned", call())
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("raised", type(exc).__name__, str(exc))


@pytest.mark.parametrize("build", [build for _, build in MACHINES],
                         ids=[name for name, _ in MACHINES])
def test_generated_functions_match_the_reference(build):
    reference, generated = build(), build()
    compared = 0
    for node_id, cluster_id, slot in _resident(reference):
        clusters = [machine.nodes[node_id].clusters[cluster_id]
                    for machine in (reference, generated)]
        # Plans bind nothing cluster-specific: both machines run the same.
        plans = clusters[0]._slot_plans(slot)
        initial = [(machine.nodes[node_id].memory.state_dict(),
                    machine.nodes[node_id].net.state_dict(),
                    machine.nodes[node_id].cswitch.state_dict())
                   for machine in (reference, generated)]
        for pc, plan in enumerate(plans):
            for trial in range(TRIALS):
                seed = f"{node_id}-{cluster_id}-{slot}-{pc}-{trial}"
                contexts = [cluster.contexts[slot] for cluster in clusters]
                state = _draw_state(seed, len(contexts[0].registers._values),
                                    len(_queues(clusters[0].node)))
                for machine, start in zip((reference, generated), initial):
                    _set_state(machine, node_id, cluster_id, slot, pc, state, start)
                expected = _outcome(
                    lambda: reference_stall_reason(clusters[0], contexts[0], plan.steps))
                assert _outcome(lambda: plan.check(clusters[1], contexts[1])) == expected
                cycle = 100 + trial
                expected = _outcome(lambda: reference_execute_plan(
                    clusters[0], contexts[0], plan, pc, cycle))
                assert _outcome(lambda: plan.fire(clusters[1], contexts[1], pc, cycle)) \
                    == expected, (plan.instruction, seed)
                assert _observe(generated, node_id, cluster_id, slot) == \
                    _observe(reference, node_id, cluster_id, slot), (plan.instruction, seed)
                compared += 1
    assert compared > 0


# -- sharing within a process -----------------------------------------------------


def _handler_programs(machine):
    node = machine.nodes[0]
    return [node.clusters[cluster].icache.program(EVENT_SLOT)
            for cluster in (EVENT_CLUSTER_LTLB, EVENT_CLUSTER_MSG_P0, EVENT_CLUSTER_MSG_P1)]


def _remote_load(machine):
    machine.map_on_node(1, 0x40000, num_pages=1)
    machine.load_hthread(0, 0, 0, "ld i5, i1\nhalt", registers={"i1": 0x40000})
    machine.run_until_user_done(max_cycles=2_000)


def test_handler_programs_and_plans_are_shared(monkeypatch):
    """Remote-mode machines built in one process, and machines restored from
    a snapshot of one, run the same handler Program objects, and only the
    first machine's run compiles their plans."""
    first = MMachine(MachineConfig.small(2, 1, 1))
    programs = _handler_programs(first)
    runtime = build_asm_runtime(first.nodes[0].lpt_phys_base)
    assert programs == [runtime.ltlb_handler, runtime.message_p0_handler,
                        runtime.message_p1_handler]
    assert all(mine is theirs for mine, theirs in zip(programs, (
        runtime.ltlb_handler, runtime.message_p0_handler, runtime.message_p1_handler)))
    _remote_load(first)

    compiled = []
    original = dispatch._compile_instruction

    def compile_instruction(instruction, layout, slot):
        compiled.append(instruction)
        return original(instruction, layout, slot)

    monkeypatch.setattr(dispatch, "_compile_instruction", compile_instruction)
    second = MMachine(MachineConfig.small(2, 1, 1))
    assert all(mine is theirs for mine, theirs in zip(_handler_programs(second), programs))
    _remote_load(second)
    assert second.cycle == first.cycle
    handler_instructions = {id(instruction) for program in programs for instruction in program}
    assert compiled
    assert not any(id(instruction) in handler_instructions for instruction in compiled)

    restored = MMachine.from_snapshot(first.snapshot_document())
    assert all(mine is theirs for mine, theirs in zip(_handler_programs(restored), programs))
    # Only the programs are shared: each call returns its own DIP table.
    assert build_asm_runtime(0).dips is not build_asm_runtime(0).dips


def test_exec_runs_once_per_shape(monkeypatch):
    """Compiling programs runs ``exec`` once per instruction shape, however
    many instructions and programs have that shape; every function of a
    shape runs the one code object compiled for it, under a file name that
    spells the shape."""
    calls = []
    monkeypatch.setattr(dispatch, "_FACTORIES", {})
    monkeypatch.setattr(dispatch, "exec",
                        lambda code, namespace: calls.append(code) or exec(code, namespace),
                        raising=False)
    cluster = MMachine(MachineConfig.single_node(), install_runtime=False).nodes[0].clusters[0]
    source = "add i1, i2, i3\nadd i4, i5, i6\nsub i1, i2, #1\nadd i4, i5, i6\nhalt"
    plans = [dispatch.compile_program(assemble(source), cluster, 0) for _ in range(2)]
    assert len(calls) == len(dispatch._FACTORIES) == 6
    for first, second in zip(*plans):
        assert first is not second
        assert first.check.__code__ is second.check.__code__
        assert first.fire.__code__ is second.fire.__code__
    assert plans[0][0].fire.__code__ is plans[0][1].fire.__code__
    assert plans[0][0].fire.__code__.co_filename == "<generated fire add(reg,reg)>"
    assert plans[0][2].check.__code__.co_filename == "<generated check full pending>"
