"""Instruction semantics of the cluster issue stage, compiled once per program.

The synchronization stage (Sections 3.1 and 3.2 of the paper) holds each
resident H-Thread's next instruction until its operands are present and the
resources it needs are free, then issues every operation of one ready
instruction.  None of the facts that decision needs -- which registers the
operands name, which opcode semantics apply, what the stall-reason strings
say -- depend on machine state, only on the instruction and the V-Thread
slot it is resident in.  This module resolves them once, when a program is
first issued from, into one :class:`CompiledInstruction` plan per program
counter.  A plan holds two generated Python functions, and
:class:`~repro.cluster.cluster.Cluster` runs nothing else:

* ``check(cluster, context)`` returns the reason of the first readiness
  check that fails, or None when the instruction can issue.  The checks run
  in the order the stage tests them: per operation, its source scoreboard
  bits (``CHECK_FULL``) and its destinations' in-flight writes
  (``CHECK_PENDING``), for a SEND the message-composition registers it
  launches (Section 4.1) and the network send credit (``CHECK_SEND``); then
  the depth of every hardware queue the instruction reads
  (``CHECK_QUEUE``).  Register checks index the flat register-file arrays
  (:meth:`~repro.cluster.regfile.RegisterSet.flat_offset`).  ``check`` has
  no side effects, so the event kernel's sleep check
  (:meth:`~repro.cluster.cluster.Cluster.idle_profile`) calls it as the
  issue scan does, for every thread that is not parked.
* ``fire(cluster, context, pc, cycle)`` issues the instruction: it reads
  every operand of every operation (constants, registers, queues, the node
  and cluster identities), then executes the operations in order, then
  advances the PC unless an operation halted or faulted the thread.  Value
  operations with one local destination, and branches with a resolved
  target, are written out in line; an integer operation on operands that are
  all exact ``int`` evaluates its expression from
  :data:`~repro.cluster.functional_units.INLINE_FORMS` in line too.  Every
  other operation calls its executor closure, which has the opcode
  semantics, destination offsets, latencies and trace strings bound.

A plan also carries ``parks``, a table from each stall reason the issue
scan may park a thread on to what it waits for: a ``CHECK_FULL`` step's
register offset, or a ``CHECK_QUEUE`` step's queue name and word count.  A
reason parks only when every step before its first occurrence is a register
step, because only the thread's own issue empties its registers or adds a
pending write, so those steps keep passing while the parked thread issues
nothing; a send credit or an earlier queue can be taken by others, so no
reason after a ``CHECK_SEND``, ``CHECK_QUEUE`` or ``CHECK_RAISE`` parks.

Both functions are straight-line code generated from the plan's readiness
``steps`` and per-operation :class:`CompiledOp` records, which the plan
keeps.  The generated source depends only on the instruction's *shape* --
its step kinds, operand modes and operation kinds -- and every offset, stall
string, queue name, executor, latency and branch target is an argument of a
factory compiled once per shape and process (``_FACTORIES``).  A shape's
code is compiled under a file name that spells the shape, so tracebacks and
profiles name the kind of instruction that ran.

A malformed instruction still compiles.  A fault the stage would detect
while checking readiness (a remote register as a source, a special
register as a destination, a SEND whose length is not an immediate) becomes a
``CHECK_RAISE`` step at the position of the failing check; a fault found
while executing (``empty`` or a load targeting a remote register, a label
as a branch condition) is raised by the generated code or the executor.
Either way :class:`SimulationError` fires on the cycle the thread reaches
the instruction.

Plans are **derived state**: they are cached per (cluster, slot), never
serialised into snapshots, and looked up again on first issue after a
restore (a restore installs decoded :class:`~repro.isa.program.Program`
objects, the same objects for a source this process has assembled
before).  Plans bind nothing cluster-specific -- hardware queues are
resolved by name through the executing cluster, node and cluster identities
are read at run time -- so one plan list serves every cluster (see
``_SHARED_PLANS``).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.functional_units import (
    INLINE_FORMS,
    ArithmeticFault,
    OperandError,
    evaluate,
    value_evaluator,
)
from repro.cluster.hthread import ThreadState
from repro.core.config import EVENT_SLOT, EXCEPTION_SLOT
from repro.events.records import EventType
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

# Operation kinds of a generated ``fire``: (kind, variant, args) per operation.
OP_VALUE = "value"  # one local destination; variant is an INLINE_FORMS key or None;
#                     args are (evaluator, opcode name, latency, dest, dest offset)
OP_BR = "br"        # branch if the condition is true; args are (label message, target)
OP_BRZ = "brz"      # branch if the condition is false; args as OP_BR
OP_CALL = "call"    # call the executor; variant is True when it may return a PC
OP_DENIED = "deny"  # privileged operation from a user slot: raise before its reads

#: Function-unit names in ascending order: the index space of the cluster's
#: per-unit operation counts, and the order they are reported in.
UNIT_VALUES = tuple(sorted(unit.value for unit in Unit))
_UNIT_INDEX = {Unit(value): index for index, value in enumerate(UNIT_VALUES)}


class CompiledOp:
    """One operation of a compiled instruction: its operand ``readers``, the
    protection message when its slot may not issue it, the ``executor``
    closure with its semantics, and the ``form`` the generated ``fire``
    executes it in."""

    __slots__ = ("readers", "privilege_msg", "executor", "form")

    def __init__(self, readers, privilege_msg, executor, form):
        self.readers = readers
        self.privilege_msg = privilege_msg
        self.executor = executor
        self.form = form


class CompiledInstruction:
    """One instruction resolved to readiness steps, operations, the
    generated ``check`` and ``fire`` functions built from them, and the
    table of stall reasons it may park on."""

    __slots__ = ("steps", "ops", "num_ops", "unit_idx", "instruction", "check", "fire",
                 "parks")

    def __init__(self, steps, ops, unit_idx, instruction):
        self.steps = steps
        self.ops = ops
        self.num_ops = len(ops)
        self.unit_idx = unit_idx
        self.instruction = instruction
        self.check = _check_function(steps)
        self.fire = _fire_function(ops, instruction)
        self.parks = _park_table(steps)


def _park_table(steps) -> dict:
    """Stall reason -> ``(queue name, words needed)`` for a ``CHECK_QUEUE``
    step, or ``(None, flat offset)`` for a ``CHECK_FULL`` step, for every
    reason whose first step follows only register steps."""
    parks = {}
    for kind, arg, reason in steps:
        if kind == CHECK_FULL:
            parks.setdefault(reason, (None, arg))
        elif kind == CHECK_QUEUE:
            parks.setdefault(reason, arg)
            break
        elif kind != CHECK_PENDING:
            break
    return parks


class _Malformed(Exception):
    """Compile-time signal: the readiness check being compiled can never
    pass; its message becomes the instruction's ``CHECK_RAISE`` step."""


#: Shared plan lists, keyed by Program object identity then by slot (every
#: register set has the same layout).  The same Program loaded into many
#: clusters (every SPMD workload, every runtime handler) compiles once and
#: is shared.  On an NxN mesh this collapses the plan footprint touched per
#: simulated cycle by ``4 x N x N``, which is what keeps the busy-heavy
#: per-node-tick throughput flat as the mesh grows (the host working set
#: would otherwise blow out the CPU cache).  The runtime's handler programs
#: come from :func:`~repro.isa.assembler.assemble_cached`, so their plans
#: are compiled once per process.
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
        compiled_ops.append(CompiledOp(tuple(readers), privilege_msg, executor,
                                       _fire_form(op, layout, executor)))
        unit_idx.append(_UNIT_INDEX[op.unit])

    for name, count in queue_needs.items():
        # The executing cluster resolves the name each check; a cluster
        # without the queue skips the check and the read raises instead.
        steps.append((CHECK_QUEUE, (name, count), f"{name} queue empty"))
    return tuple(compiled_ops), tuple(unit_idx)


def _fire_form(op: Operation, layout, executor) -> tuple:
    """How the generated ``fire`` executes *op*: ``(kind, variant, args)``."""
    name = op.opcode.name
    if name in (OP_BR, OP_BRZ) and op.target is not None:
        return (name, None, (f"branch condition of {op} is a label", op.target))
    evaluator = value_evaluator(name)
    if (evaluator is not None and len(op.dests) == 1 and not op.dest.is_remote
            and op.dest.file is not RegFile.GCC):
        # Range-checked by the destination's CHECK_PENDING step.
        variant = name if name in INLINE_FORMS else None
        return (OP_VALUE, variant, (evaluator, name, max(op.opcode.latency, 1), op.dest,
                                    layout.flat_offset(op.dest)))
    return (OP_CALL, op.opcode.is_branch, (executor,))


# ---------------------------------------------------------------------------
# Generated code.  A shape is a tuple whose first item names the function
# ("check" or "fire"); the factory compiled for it takes every value of one
# instruction as an argument and returns that instruction's function.
# ---------------------------------------------------------------------------

#: Factories of generated functions, keyed by shape.  Derived state like
#: ``_SHARED_PLANS``: module-level, filled on first use, never serialised.
_FACTORIES: dict = {}

_CHECK_NAMES = {CHECK_FULL: "full", CHECK_PENDING: "pending", CHECK_SEND: "send",
                CHECK_QUEUE: "queue", CHECK_RAISE: "raise"}
_READ_NAMES = {READ_CONST: "const", READ_REG: "reg", READ_QUEUE: "queue",
               READ_NID: "nid", READ_CID: "cid"}
#: Reader modes whose ``arg`` is an argument of the generated factory.
_READ_ARGS = (READ_CONST, READ_REG, READ_QUEUE)


def _unreadable(name: str, cluster, context) -> ProtectionError:
    return ProtectionError(
        f"register {name!r} is not readable from cluster {cluster.id} slot {context.slot}")


#: Globals of the generated code.
_GENERATED_GLOBALS = {
    "SimulationError": SimulationError,
    "ProtectionError": ProtectionError,
    "ArithmeticFault": ArithmeticFault,
    "OperandError": OperandError,
    "LabelRef": LabelRef,
    "RUNNABLE": ThreadState.RUNNABLE,
    "PROTECTION": EventType.PROTECTION,
    "ARITHMETIC": EventType.ARITHMETIC,
    "evaluate": evaluate,
    "unreadable": _unreadable,
}


def _check_function(steps):
    """The ``check`` function of a plan's readiness *steps*."""
    args = []
    for kind, arg, reason in steps:
        if kind == CHECK_QUEUE:
            args += [arg[0], arg[1], reason]
        elif kind == CHECK_RAISE:
            args.append(arg)
        else:
            args += [arg, reason]
    return _factory(("check",) + tuple(kind for kind, _, _ in steps))(*args)


def _fire_function(ops, instruction: Instruction):
    """The ``fire`` function of a plan's operations *ops*.  The factory takes
    the operand arguments of every operation, then the execution arguments
    of every operation, then the instruction."""
    shape, reads, runs = ["fire"], [], []
    for cop in ops:
        if cop.privilege_msg is not None:
            # The operations before it read their operands; none executes.
            shape.append((OP_DENIED, (), None))
            runs = [cop.privilege_msg]
            break
        kind, variant, args = cop.form
        shape.append((kind, tuple(mode for mode, _ in cop.readers), variant))
        reads += [arg for mode, arg in cop.readers if mode in _READ_ARGS]
        runs += args
    return _factory(tuple(shape))(*reads, *runs, instruction)


def _factory(shape: tuple):
    factory = _FACTORIES.get(shape)
    if factory is None:
        if shape[0] == "check":
            params, body = _check_source(shape[1:])
            function, signature = "check", "cluster, context"
        else:
            params, body = _fire_source(shape[1:])
            function, signature = "fire", "cluster, context, pc, cycle"
        source = "\n".join(
            [f"def factory({', '.join(params)}):", f"    def {function}({signature}):"]
            + [f"        {line}" for line in body]
            + [f"    return {function}", ""])
        filename = f"<generated {_shape_name(shape)}>"
        namespace = dict(_GENERATED_GLOBALS)
        exec(compile(source, filename, "exec"), namespace)
        factory = _FACTORIES[shape] = namespace["factory"]
    return factory


def _shape_name(shape: tuple) -> str:
    if shape[0] == "check":
        return " ".join(["check"] + [_CHECK_NAMES[kind] for kind in shape[1:]])
    words = ["fire"]
    for kind, modes, variant in shape[1:]:
        if kind == OP_CALL and variant:
            kind = "jump"
        elif kind == OP_VALUE and variant is not None:
            kind = variant
        words.append(f"{kind}({','.join(_READ_NAMES[mode] for mode in modes)})")
    return " ".join(words)


def _check_source(kinds: tuple):
    """Parameters and body of the ``check`` function for step *kinds*."""
    params, body = [], []
    if CHECK_FULL in kinds or CHECK_PENDING in kinds:
        body.append("registers = context.registers")
    for index, kind in enumerate(kinds):
        reason = f"r{index}"
        if kind == CHECK_FULL:
            params += [f"a{index}", reason]
            body += [f"if not registers._full[a{index}]:", f"    return {reason}"]
        elif kind == CHECK_PENDING:
            params += [f"a{index}", reason]
            body += [f"if registers._pending[a{index}]:", f"    return {reason}"]
        elif kind == CHECK_SEND:
            params += [f"a{index}", reason]
            body += [f"if not cluster.node.can_send(a{index}):", f"    return {reason}"]
        elif kind == CHECK_QUEUE:
            # The slot's queue cache is read directly; a miss binds the name.
            params += [f"q{index}", f"n{index}", reason]
            body += ["try:",
                     f"    queue = cluster._queue_cache[context.slot][q{index}]",
                     "except KeyError:",
                     f"    queue = cluster._queue_binding(context.slot, q{index})",
                     f"if queue is not None and len(queue._words) < n{index}:",
                     f"    return {reason}"]
        else:  # CHECK_RAISE
            params.append(f"m{index}")
            body.append(f"raise SimulationError(m{index})")
    body.append("return None")
    return params, body


def _fire_source(ops: tuple):
    """Parameters and body of the ``fire`` function for operation shapes
    *ops*: ``(kind, reader modes, variant)`` each."""
    read_params, run_params, code = [], [], []
    reads = 0  # register reads not yet added to ``registers.reads``
    reads_registers = any(READ_REG in modes for _, modes, _ in ops)
    operands = []
    for index, (_kind, modes, _variant) in enumerate(ops):
        names = []
        for position, mode in enumerate(modes):
            name = f"v{index}_{position}"
            if mode == READ_CONST:
                read_params.append(name)
            elif mode == READ_REG:
                read_params.append(f"a{name}")
                code.append(f"{name} = stored[a{name}]")
                reads += 1
            elif mode == READ_NID:
                code.append(f"{name} = cluster.node.node_id")
            elif mode == READ_CID:
                code.append(f"{name} = cluster.id")
            else:  # READ_QUEUE
                if reads:
                    code.append(f"registers.reads += {reads}")
                    reads = 0
                read_params.append(f"q{name}")
                code += [f"queue = cluster._queue_binding(context.slot, q{name})",
                         "if queue is None:",
                         f"    raise unreadable(q{name}, cluster, context)",
                         f"{name} = queue.pop_word()"]
            names.append(name)
        operands.append(names)
    if reads:
        code.append(f"registers.reads += {reads}")

    denied = bool(ops) and ops[-1][0] == OP_DENIED
    if denied:
        run_params.append("denied")
        code.append("raise ProtectionError(denied)")
        ops = ()
    jumps = any(kind in (OP_BR, OP_BRZ) or (kind == OP_CALL and variant)
                for kind, _, variant in ops)
    if jumps:
        code.append("next_pc = pc + 1")
    for index, (kind, _modes, variant) in enumerate(ops):
        names = operands[index]
        values = f"[{', '.join(names)}]"
        if kind == OP_VALUE:
            evaluator, name, latency, dest, offset = (f"{letter}{index}" for letter in "enldo")
            run_params += [evaluator, name, latency, dest, offset]
            result = f"r{index}"
            call = f"evaluate({name}, {evaluator}, {values})"
            if variant is None:
                code.append(f"{result} = {call}")
            else:
                expression, guard = INLINE_FORMS[variant]
                expression = expression.format(*names)
                if guard is None:
                    code.append(f"{result} = {expression}")
                else:
                    code += [f"if {guard.format(*names)}:", f"    {result} = {expression}",
                             "else:", f"    {result} = {call}"]
            code += [f"registers._full[{offset}] = False",
                     f"registers._pending[{offset}] += 1",
                     f"cluster._writebacks.append((cycle + {latency}, context.slot, {dest}, "
                     f"{result}, True, {offset}))"]
        elif kind in (OP_BR, OP_BRZ):
            message, target = f"m{index}", f"t{index}"
            run_params += [message, target]
            condition = names[0]
            code += [f"if isinstance({condition}, LabelRef):",
                     f"    raise SimulationError({message})",
                     f"if {'' if kind == OP_BR else 'not '}{condition}:",
                     f"    next_pc = {target}"]
        elif kind == OP_CALL:
            executor = f"x{index}"
            run_params.append(executor)
            call = f"{executor}(cluster, context, {values}, cycle)"
            if variant:
                code += [f"out = {call}", "if out is not None:", "    next_pc = out"]
            else:
                code.append(call)
    if not denied:
        code += ["if context.state is RUNNABLE:",
                 f"    context.pc = {'next_pc' if jumps else 'pc + 1'}"]

    body = []
    if reads_registers or any(kind == OP_VALUE for kind, _, _ in ops):
        body.append("registers = context.registers")
    if reads_registers:
        body.append("stored = registers._values")
    body += (["try:"] + [f"    {line}" for line in code]
             + ["except ProtectionError as exc:",
                "    cluster._raise_exception(context, PROTECTION, str(exc), cycle)",
                "except ArithmeticFault as exc:",
                "    cluster._raise_exception(context, ARITHMETIC, str(exc), cycle)",
                "except OperandError as exc:",
                '    raise SimulationError(f"{exc} (instruction {instruction})") from exc'])
    return read_params + run_params + ["instruction"], body


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
    actions = _dest_actions(op, layout)

    def run(cluster, context, values, cycle):
        value = evaluate(name, evaluator, values)
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
