"""Instruction semantics of the cluster issue stage, compiled once per program.

The synchronization stage (Sections 3.1 and 3.2 of the paper) holds each
resident H-Thread's next instruction until its operands are present and the
resources it needs are free, then issues every operation of one ready
instruction.  None of the facts that decision needs -- which registers the
operands name, which opcode semantics apply, what the stall-reason strings
say -- depend on machine state, only on the instruction and the V-Thread
slot it is resident in.  This module resolves them once, when a program is
first issued from, into one :class:`CompiledInstruction` plan per program
counter, and :class:`~repro.cluster.cluster.Cluster` runs nothing else:

* ``steps`` -- the readiness checks, as ``(kind, arg, reason)`` triples in
  the order the stage tests them: per operation, its source scoreboard bits
  (``CHECK_FULL``) and its destinations' in-flight writes
  (``CHECK_PENDING``), for a SEND the message-composition registers it
  launches (Section 4.1) and the network send credit (``CHECK_SEND``); then
  the depth of every hardware queue the instruction reads
  (``CHECK_QUEUE``).  Register checks index the flat register-file arrays
  (:meth:`~repro.cluster.regfile.RegisterSet.flat_offset`).  Evaluating
  the steps has no side effects, so the event kernel's sleep check
  (:meth:`~repro.cluster.cluster.Cluster.idle_profile`) runs the same
  steps as the issue scan.
* per-operation ``readers`` -- constant, register-offset, queue or identity
  operand sources;
* per-operation ``executor`` closures with the opcode semantics,
  destination offsets, latencies and trace strings bound at compile time.

A malformed instruction still compiles.  A fault the stage would detect
while checking readiness (a remote register as a source, a special
register as a destination, a SEND whose length is not an immediate) becomes a
``CHECK_RAISE`` step at the position of the failing check; a fault found
while executing (``empty`` or a load targeting a remote register, a label
as a branch condition) is raised by the executor.  Either way
:class:`SimulationError` fires on the cycle the thread reaches the
instruction.

Plans are **derived state**: they are cached per (cluster, slot), never
serialised into snapshots, and rebuilt on first issue after a restore (a
restore installs freshly decoded :class:`~repro.isa.program.Program`
objects).  Plans bind nothing cluster-specific -- hardware queues are
resolved by name through the executing cluster, node and cluster identities
are read at run time -- so one plan list serves every cluster (see
``_SHARED_PLANS``).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.functional_units import OperandError, value_evaluator
from repro.core.config import EVENT_SLOT, EXCEPTION_SLOT
from repro.isa.instruction import Instruction
from repro.isa.operations import LabelRef, Operation, SYNC_CONDITIONS, Unit
from repro.isa.program import Program
from repro.isa.registers import NUM_MC_REGS, RegFile, RegisterRef
from repro.memory.guarded_pointer import GuardedPointer, PointerPermission, ProtectionError
from repro.memory.page_table import BlockStatus
from repro.memory.requests import MemOpKind, MemRequest


@dataclass
class RegWrite:
    """A register write travelling over the C-Switch (inter-cluster register
    writes, global-CC broadcasts, memory-system responses and privileged
    ``xregwr`` writes)."""

    vthread: int
    ref: RegisterRef
    value: object
    #: Clear one pending-write reservation on arrival (set for writes that
    #: complete an operation issued by the destination thread, e.g. load
    #: responses and handler ``xregwr`` completions of faulted loads).
    clear_pending: bool = False
    #: Human-readable origin, for traces.
    origin: str = ""


class SimulationError(Exception):
    """Raised for malformed programs (e.g. a remote register used as a source)."""


# Reader modes: (mode, arg) per source operand.
READ_CONST = 0    # arg is the value (immediates, labels, folded vid/zero)
READ_REG = 1      # arg is a flat register-file offset
READ_QUEUE = 2    # arg is the queue name; pop one word (raises if unreadable)
READ_NID = 3      # executing node's id
READ_CID = 4      # executing cluster's id

# Readiness-step kinds: (kind, arg, reason) per check.
CHECK_FULL = 0     # arg is a flat offset; stall unless full
CHECK_PENDING = 1  # arg is a flat offset; stall while a write is in flight
CHECK_SEND = 2     # arg is the message priority; stall unless the node can send
CHECK_QUEUE = 3    # arg is (queue_name, needed_words); stall while underfull
CHECK_RAISE = 4    # arg is the SimulationError message of a malformed instruction

#: Function-unit names in ascending order: the index space of the cluster's
#: per-unit operation counts, and the order they are reported in.
UNIT_VALUES = tuple(sorted(unit.value for unit in Unit))
_UNIT_INDEX = {Unit(value): index for index, value in enumerate(UNIT_VALUES)}


class CompiledOp:
    """One operation of a compiled instruction."""

    __slots__ = ("readers", "privilege_msg", "executor")

    def __init__(self, readers, privilege_msg, executor):
        self.readers = readers
        self.privilege_msg = privilege_msg
        self.executor = executor


class CompiledInstruction:
    """One instruction resolved to readiness steps and bound executors."""

    __slots__ = ("steps", "ops", "num_ops", "unit_idx", "instruction")

    def __init__(self, steps, ops, unit_idx, instruction):
        self.steps = steps
        self.ops = ops
        self.num_ops = len(ops)
        self.unit_idx = unit_idx
        self.instruction = instruction


class _Malformed(Exception):
    """Compile-time signal: the readiness check being compiled can never
    pass; its message becomes the instruction's ``CHECK_RAISE`` step."""


#: Shared plan lists, keyed by Program object identity then by slot (every
#: register set has the same layout).  The same Program loaded into many
#: clusters (every SPMD workload, every runtime handler) compiles once and
#: is shared.  On an NxN mesh this collapses the plan footprint touched per
#: simulated cycle by ``4 x N x N``, which is what keeps the busy-heavy
#: per-node-tick throughput flat as the mesh grows (the host working set
#: would otherwise blow out the CPU cache).
#:
#: Keyed by ``id(program)`` (Program defines ``__eq__`` but not ``__hash__``)
#: with a weakref that both validates identity against id reuse and evicts
#: the entry when the program is collected.
_SHARED_PLANS: dict = {}


def compile_program(program: Optional[Program], cluster,
                    slot: int) -> List[CompiledInstruction]:
    """Compile every instruction of *program* for one (cluster, slot): one
    plan per program counter."""
    if program is None:
        return []
    layout = cluster.contexts[slot].registers
    cache_key = id(program)
    entry = _SHARED_PLANS.get(cache_key)
    if entry is None or entry[0]() is not program:
        ref = weakref.ref(program, lambda _ref, _key=cache_key: _SHARED_PLANS.pop(_key, None))
        entry = _SHARED_PLANS[cache_key] = (ref, {})
    per_program = entry[1]
    plans = per_program.get(slot)
    if plans is None:
        plans = [_compile_instruction(instruction, layout, slot) for instruction in program]
        per_program[slot] = plans
    return plans


def _compile_instruction(instruction: Instruction, layout, slot: int) -> CompiledInstruction:
    steps = []
    try:
        ops, unit_idx = _compile_operations(instruction, layout, slot, steps)
    except _Malformed as malformed:
        steps.append((CHECK_RAISE, str(malformed), ""))
        return CompiledInstruction(tuple(steps), (), (), instruction)
    return CompiledInstruction(tuple(steps), ops, unit_idx, instruction)


def _register_offset(layout, ref: RegisterRef, instruction: Instruction) -> int:
    offset = layout.flat_offset(ref)
    if offset is None:
        raise _Malformed(_out_of_range(ref, instruction))
    return offset


def _compile_operations(instruction: Instruction, layout, slot: int, steps: list):
    """Append the readiness steps of *instruction* to *steps* and return its
    ``(ops, unit_idx)``; raises :class:`_Malformed` at a check that can never
    pass."""
    queue_needs = {}
    compiled_ops = []
    unit_idx = []
    for op in instruction.operations:
        readers = []
        for src in op.srcs:
            if not isinstance(src, RegisterRef):
                # Immediates and LabelRefs pass through unchanged.
                readers.append((READ_CONST, src))
            elif src.is_queue:
                queue_needs[src.name] = queue_needs.get(src.name, 0) + 1
                readers.append((READ_QUEUE, src.name))
            elif src.is_identity:
                if src.name == "nid":
                    readers.append((READ_NID, None))
                elif src.name == "cid":
                    readers.append((READ_CID, None))
                else:  # vid / zero fold to plan-wide constants
                    readers.append((READ_CONST, slot if src.name == "vid" else 0))
            elif src.is_remote:
                raise _Malformed(
                    f"remote register {src} cannot be used as a source operand "
                    f"(instruction {instruction})"
                )
            else:
                offset = _register_offset(layout, src, instruction)
                steps.append((CHECK_FULL, offset, f"operand {src} empty"))
                readers.append((READ_REG, offset))
        for dest in op.dests:
            if dest.is_remote or dest.file is RegFile.GCC:
                continue
            steps.append((CHECK_PENDING, _register_offset(layout, dest, instruction),
                          f"destination {dest} has a write in flight"))
        if op.opcode.is_send:
            executor = _compile_send(op, layout, instruction, steps)
        else:
            executor = _compile_executor(op, layout, instruction)

        privilege_msg = None
        if op.opcode.privileged and slot not in (EVENT_SLOT, EXCEPTION_SLOT):
            privilege_msg = (
                f"privileged operation {op.opcode.name!r} issued from user slot {slot}"
            )
        compiled_ops.append(CompiledOp(tuple(readers), privilege_msg, executor))
        unit_idx.append(_UNIT_INDEX[op.unit])

    for name, count in queue_needs.items():
        # The executing cluster resolves the name each check; a cluster
        # without the queue skips the check and the read raises instead.
        steps.append((CHECK_QUEUE, (name, count), f"{name} queue empty"))
    return tuple(compiled_ops), tuple(unit_idx)


# ---------------------------------------------------------------------------
# Executors.  Each is a closure ``run(cluster, context, values, cycle)``
# returning the next PC for taken control transfers and None otherwise.
# ---------------------------------------------------------------------------

def _compile_executor(op: Operation, layout, instruction: Instruction):
    name = op.opcode.name
    if name == "nop":
        return _exec_nop
    if name == "mark":
        return _exec_mark
    if name == "empty":
        return _make_empty(op, layout, instruction)
    if name == "halt":
        return _exec_halt
    if op.opcode.is_branch:
        return _make_branch(op)
    if op.opcode.is_memory:
        return _make_memory(op, layout, instruction)
    if name in _SYSTEM_EFFECTS:
        return _SYSTEM_EFFECTS[name]
    if name in _SYSTEM_RESULTS:
        return _make_result(op, _SYSTEM_RESULTS[name], layout)
    evaluator = value_evaluator(name)
    if evaluator is None:
        return _make_unknown(name)
    return _make_value(op, evaluator, layout)


def _exec_nop(cluster, context, values, cycle):
    return None


def _exec_mark(cluster, context, values, cycle):
    cluster.node.trace(cycle, "mark", marker=values[0], cluster=cluster.id,
                       slot=context.slot, pc=context.pc)
    return None


def _out_of_range(ref: RegisterRef, instruction: Instruction) -> str:
    return f"register {ref} out of range (instruction {instruction})"


def _make_empty(op: Operation, layout, instruction: Instruction):
    # Local destinations outside the GCC file were range-checked by their
    # CHECK_PENDING steps; a remote or out-of-range GCC destination raises
    # after the destinations before it have been emptied.
    offsets = []
    error = None
    for dest in op.dests:
        if dest.is_remote:
            error = "empty cannot target a remote register"
            break
        offset = layout.flat_offset(dest)
        if offset is None:
            error = _out_of_range(dest, instruction)
            break
        offsets.append(offset)
    offsets = tuple(offsets)

    def run(cluster, context, values, cycle):
        full = context.registers._full
        for offset in offsets:
            full[offset] = False
        if error is not None:
            raise SimulationError(error)
        return None
    return run


def _exec_halt(cluster, context, values, cycle):
    context.halt(cycle)
    cluster.node.trace(cycle, "halt", cluster=cluster.id, slot=context.slot)
    return context.pc


def _make_branch(op: Operation):
    name = op.opcode.name
    target = op.target
    if name == "jmp":
        def run(cluster, context, values, cycle):
            value = values[0]
            if isinstance(value, LabelRef):
                return target
            return int(value)
        return run

    invert = name != "br"
    label_msg = f"branch condition of {op} is a label"
    untargeted_msg = f"branch {op} has no resolved target"

    def run(cluster, context, values, cycle):
        condition = values[0]
        if isinstance(condition, LabelRef):
            raise SimulationError(label_msg)
        taken = (not condition) if invert else bool(condition)
        if taken:
            if target is None:
                raise SimulationError(untargeted_msg)
            return target
        return None
    return run


def _effective_address(cluster, context, address_operand, offset,
                       is_store: bool, physical: bool) -> int:
    """The address a memory operation accesses: a guarded pointer plus offset
    (permission- and segment-checked), or a plain integer where protection
    allows one (Section 2's guarded pointers)."""
    offset = int(offset) if not isinstance(offset, LabelRef) else 0
    if isinstance(address_operand, GuardedPointer):
        target = address_operand.address + offset
        required = PointerPermission.WRITE if is_store else PointerPermission.READ
        address_operand.check(required, target)
        return target
    if (
        cluster.node.protection_enabled
        and not physical
        and context.slot not in (EVENT_SLOT, EXCEPTION_SLOT)
    ):
        raise ProtectionError(
            "memory access through a non-pointer address with protection enabled"
        )
    return int(address_operand) + offset


def _make_memory(op: Operation, layout, instruction: Instruction):
    name = op.opcode.name
    physical = name in ("pld", "pst")
    is_store = op.opcode.is_store
    kind = MemOpKind.STORE if is_store else MemOpKind.LOAD
    pre, post = SYNC_CONDITIONS.get(name, ("x", "x"))

    dest = op.dest if not is_store else None
    dest_offset = None
    error = None
    if dest is not None:
        if dest.is_remote:
            error = "loads cannot target a remote register"
        else:
            dest_offset = layout.flat_offset(dest)
            if dest_offset is None:
                error = _out_of_range(dest, instruction)
    is_fp = dest is not None and dest.file is RegFile.FP
    request_dest = dest.local() if dest is not None else None
    has_offset_operand = len(op.srcs) > (2 if is_store else 1)

    def run(cluster, context, values, cycle):
        if is_store:
            store_value = values[0]
            address_operand = values[1]
            offset = values[2] if has_offset_operand else 0
        else:
            store_value = None
            address_operand = values[0]
            offset = values[1] if has_offset_operand else 0
        address = _effective_address(cluster, context, address_operand, offset,
                                     is_store, physical)
        request = MemRequest(
            kind=kind,
            address=address,
            data=store_value,
            dest=request_dest,
            vthread=context.slot,
            cluster=cluster.id,
            sync_pre=pre,
            sync_post=post,
            physical=physical,
            is_fp=is_fp,
            issue_cycle=cycle,
            req_id=cluster.node.request_ids(),
        )
        if error is not None:
            raise SimulationError(error)
        if dest_offset is not None:
            registers = context.registers
            registers._full[dest_offset] = False
            registers._pending[dest_offset] += 1
        cluster.node.submit_memory_request(request, cycle)
        cluster.node.trace(cycle, "mem_issue", req=request.req_id, address=address,
                           store=is_store, cluster=cluster.id, slot=context.slot,
                           physical=physical)
        return None
    return run


def _compile_send(op: Operation, layout, instruction: Instruction, steps: list):
    """Append a SEND's readiness steps -- every message-composition register
    of the body full, then a send credit at the message's priority -- and
    return its executor (Section 4.1)."""
    length = op.srcs[2] if len(op.srcs) >= 3 else None
    if isinstance(length, bool) or not isinstance(length, int):
        raise _Malformed(f"send length must be an immediate (instruction {instruction})")
    body_offsets = []
    for index in range(length):
        if index >= NUM_MC_REGS:
            raise _Malformed(f"register m{index} out of range (instruction {instruction})")
        offset = layout.flat_offset(RegisterRef(RegFile.MC, index))
        steps.append((CHECK_FULL, offset, f"message-composition register m{index} empty"))
        body_offsets.append(offset)
    physical = op.opcode.name == "sendp"
    if len(op.srcs) >= 4 and isinstance(op.srcs[3], int):
        priority = int(op.srcs[3])
    else:
        priority = 1 if physical else 0
    steps.append((CHECK_SEND, priority, "network output busy or out of send credits"))
    body_offsets = tuple(body_offsets)

    def run(cluster, context, values, cycle):
        registers = context.registers
        registers.reads += length
        stored = registers._values
        body = [stored[offset] for offset in body_offsets]
        dip = int(values[1])
        cluster.node.send_message(
            cycle=cycle,
            cluster=cluster.id,
            vthread=context.slot,
            dest_address=None if physical else values[0],
            dip=dip,
            body=body,
            priority=priority,
            physical_node=int(values[0]) if physical else None,
        )
        return None
    return run


def _make_result(op: Operation, produce, layout):
    actions = _dest_actions(op, layout)

    def run(cluster, context, values, cycle):
        value = produce(cluster, values)
        for action in actions:
            action(cluster, context, value, cycle)
        return None
    return run


def _make_unknown(name: str):
    def run(cluster, context, values, cycle):
        raise OperandError(f"operation {name!r} has no value semantics")
    return run


def _make_value(op: Operation, evaluator, layout):
    name = op.opcode.name
    latency = max(op.opcode.latency, 1)

    # The overwhelmingly common case: exactly one local, non-GCC destination.
    if (len(op.dests) == 1 and not op.dests[0].is_remote
            and op.dests[0].file is not RegFile.GCC):
        dest = op.dests[0]
        dest_offset = layout.flat_offset(dest)

        def run(cluster, context, values, cycle):
            try:
                value = evaluator(values)
            except (TypeError, IndexError) as exc:
                raise OperandError(f"bad operands for {name}: {values!r}") from exc
            registers = context.registers
            registers._full[dest_offset] = False
            registers._pending[dest_offset] += 1
            cluster._writebacks.append(
                (cycle + latency, context.slot, dest, value, True, dest_offset))
            return None
        return run

    actions = _dest_actions(op, layout)

    def run(cluster, context, values, cycle):
        try:
            value = evaluator(values)
        except (TypeError, IndexError) as exc:
            raise OperandError(f"bad operands for {name}: {values!r}") from exc
        for action in actions:
            action(cluster, context, value, cycle)
        return None
    return run


def _dest_actions(op: Operation, layout) -> tuple:
    """One result-delivery closure ``act(cluster, context, value, cycle)``
    per destination of a value-producing operation."""
    latency = max(op.opcode.latency, 1)
    return tuple(_make_dest_action(dest, latency, layout) for dest in op.dests)


def _make_dest_action(dest: RegisterRef, latency: int, layout):
    if dest.file is RegFile.GCC and not dest.is_remote:
        dest_local = dest.local()
        dest_index = dest.index

        def act(cluster, context, value, cycle):
            cluster_id = cluster.id
            allowed = (2 * cluster_id, 2 * cluster_id + 1)
            if dest_index not in allowed:
                raise ProtectionError(
                    f"cluster {cluster_id} may only broadcast to "
                    f"gcc{allowed[0]}/gcc{allowed[1]}, not gcc{dest_index}"
                )
            cluster.node.cswitch_broadcast(
                RegWrite(vthread=context.slot, ref=dest_local, value=value,
                         origin=f"gcc-broadcast c{cluster_id}"),
                cycle + latency - 1,
            )
        return act

    if dest.is_remote:
        dest_local = dest.local()
        dest_cluster = dest.cluster

        def act(cluster, context, value, cycle):
            cluster.node.cswitch_register_write(
                dest_cluster,
                RegWrite(vthread=context.slot, ref=dest_local, value=value,
                         origin=f"c{cluster.id}->c{dest_cluster}"),
                cycle + latency - 1,
            )
        return act

    # Range-checked by the destination's CHECK_PENDING step.
    dest_offset = layout.flat_offset(dest)

    def act(cluster, context, value, cycle):
        registers = context.registers
        registers._full[dest_offset] = False
        registers._pending[dest_offset] += 1
        cluster._writebacks.append(
            (cycle + latency, context.slot, dest, value, True, dest_offset))
    return act


# -- privileged system operations (Section 4's software runtime) -----------------

def _exec_xregwr(cluster, context, values, cycle):
    cluster.node.xregwr(int(values[0]), values[1], cycle)


def _exec_ltlbw(cluster, context, values, cycle):
    va, frame, flags = (int(v) for v in values[:3])
    cluster.node.memory.install_translation(va, frame, flags)


def _exec_bsset(cluster, context, values, cycle):
    # An unmapped address (KeyError) or a status outside the two bits
    # (ValueError) is a malformed operand, reported with the instruction.
    try:
        cluster.node.memory.set_block_status(int(values[0]), BlockStatus(int(values[1])))
    except (KeyError, ValueError) as exc:
        raise OperandError(str(exc.args[0])) from exc


def _exec_syncset(cluster, context, values, cycle):
    cluster.node.memory.set_sync_bit_virtual(int(values[0]), int(values[1]))


def _ltlbp(cluster, values):
    return cluster.node.memory.probe_translation(int(values[0]))


def _gprobe(cluster, values):
    return cluster.node.gtlb_node_of(int(values[0]))


def _bsget(cluster, values):
    return cluster.node.memory.get_block_status(int(values[0]))


#: Executors of the system operations run for their side effect only.
_SYSTEM_EFFECTS = {
    "xregwr": _exec_xregwr,
    "ltlbw": _exec_ltlbw,
    "bsset": _exec_bsset,
    "syncset": _exec_syncset,
}
#: System operations whose result is written to their destinations.
_SYSTEM_RESULTS = {"ltlbp": _ltlbp, "gprobe": _gprobe, "bsget": _bsget}
