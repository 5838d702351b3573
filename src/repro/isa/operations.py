"""Operation set of the MAP cluster.

A MAP instruction contains up to three *operations*, one per function unit:

* the **integer unit** executes arithmetic/logic operations, comparisons,
  condition-code writes, branches and the ``empty`` scoreboard operation;
* the **memory unit** (the second integer ALU of the cluster) executes loads,
  stores, the atomic ``send`` instruction and the privileged
  memory-management operations used by the software runtime, and can also
  execute plain integer operations;
* the **floating-point unit** executes floating-point arithmetic and
  conversions.

Each opcode carries:

``op_class``
    The semantic class (integer / memory / floating point / control).
``units``
    Which function units may execute it.
``latency``
    The result latency in cycles for operations whose result is produced by
    the function unit itself (memory operations get their latency from the
    memory system instead).
``privileged``
    Privileged operations may only be issued from the event or exception
    V-Thread slots; issuing one from a user slot raises a protection
    exception.

The latencies are fixed: the cluster's dispatch plans
(:mod:`repro.cluster.dispatch`) read them from this table, and no
configuration key changes them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.isa.registers import RegisterRef


class Unit(enum.Enum):
    """Function units of a cluster."""

    IALU = "ialu"
    MEM = "mem"
    FPU = "fpu"


class OpClass(enum.Enum):
    """Semantic class of an operation."""

    INT = "int"
    MEM = "mem"
    FP = "fp"
    CONTROL = "control"
    SYSTEM = "system"


@dataclass(frozen=True)
class Opcode:
    """Static description of one opcode."""

    name: str
    op_class: OpClass
    units: Tuple[Unit, ...]
    latency: int = 1
    privileged: bool = False
    is_branch: bool = False
    is_memory: bool = False
    is_store: bool = False
    is_send: bool = False
    reads_queue: bool = False
    description: str = ""

    def __str__(self) -> str:
        return self.name


def _op(
    name: str,
    op_class: OpClass,
    units: Sequence[Unit],
    latency: int = 1,
    **kwargs,
) -> Opcode:
    return Opcode(name=name, op_class=op_class, units=tuple(units), latency=latency, **kwargs)


_INT_UNITS = (Unit.IALU, Unit.MEM)
_MEM_UNITS = (Unit.MEM,)
_FP_UNITS = (Unit.FPU,)


def _integer_ops() -> List[Opcode]:
    ops = []
    arith = {
        "add": "integer addition",
        "sub": "integer subtraction",
        "mul": "integer multiplication",
        "div": "integer division (truncating)",
        "mod": "integer remainder",
        "and": "bitwise AND",
        "or": "bitwise OR",
        "xor": "bitwise XOR",
        "shl": "logical shift left",
        "shr": "logical shift right",
        "min": "integer minimum",
        "max": "integer maximum",
    }
    lat = {"mul": 2, "div": 8, "mod": 8}
    for name, desc in arith.items():
        ops.append(_op(name, OpClass.INT, _INT_UNITS, lat.get(name, 1), description=desc))
    unary = {
        "not": "bitwise complement",
        "neg": "integer negation",
        "mov": "copy register or immediate",
    }
    for name, desc in unary.items():
        ops.append(_op(name, OpClass.INT, _INT_UNITS, 1, description=desc))
    compare = {
        "eq": "set destination to 1 if equal",
        "ne": "set destination to 1 if not equal",
        "lt": "set destination to 1 if less than",
        "le": "set destination to 1 if less or equal",
        "gt": "set destination to 1 if greater than",
        "ge": "set destination to 1 if greater or equal",
    }
    for name, desc in compare.items():
        ops.append(_op(name, OpClass.INT, _INT_UNITS, 1, description=desc))
    ops.append(
        _op(
            "empty",
            OpClass.INT,
            _INT_UNITS,
            1,
            description="mark the listed registers' scoreboard bits empty",
        )
    )
    ops.append(
        _op(
            "lea",
            OpClass.INT,
            _INT_UNITS,
            1,
            description="guarded-pointer add with segment bounds check",
        )
    )
    ops.append(
        _op(
            "setptr",
            OpClass.INT,
            _INT_UNITS,
            1,
            privileged=True,
            description="forge a guarded pointer (privileged)",
        )
    )
    ops.append(
        _op(
            "ptrinfo",
            OpClass.INT,
            _INT_UNITS,
            1,
            description="extract the permission/length fields of a guarded pointer",
        )
    )
    ops.append(_op("nop", OpClass.INT, _INT_UNITS, 1, description="no operation"))
    ops.append(
        _op(
            "mark",
            OpClass.INT,
            _INT_UNITS,
            1,
            description="debug/trace marker; records (cycle, id) in the machine trace",
        )
    )
    return ops


def _control_ops() -> List[Opcode]:
    return [
        _op("br", OpClass.CONTROL, _INT_UNITS, 1, is_branch=True,
            description="branch to label if the source register is non-zero"),
        _op("brz", OpClass.CONTROL, _INT_UNITS, 1, is_branch=True,
            description="branch to label if the source register is zero"),
        _op("jmp", OpClass.CONTROL, _INT_UNITS, 1, is_branch=True,
            description="jump to label or register target (reading 'net' dispatches a message)"),
        _op("halt", OpClass.CONTROL, _INT_UNITS, 1, is_branch=True,
            description="terminate this H-Thread"),
    ]


def _memory_ops() -> List[Opcode]:
    ops = []
    # Plain and synchronising loads/stores.  The two-letter suffix gives the
    # precondition and postcondition on the word's synchronisation bit:
    #   x = don't care / leave unchanged, f = full, e = empty.
    load_variants = {
        "ld": ("x", "x", "load word"),
        "ld.ff": ("f", "f", "load word; requires sync bit full, leaves it full"),
        "ld.fe": ("f", "e", "load word; requires sync bit full, leaves it empty (consume)"),
        "ld.xf": ("x", "f", "load word; sets sync bit full"),
        "ld.xe": ("x", "e", "load word; sets sync bit empty"),
    }
    store_variants = {
        "st": ("x", "x", "store word"),
        "st.ef": ("e", "f", "store word; requires sync bit empty, sets it full (produce)"),
        "st.xf": ("x", "f", "store word; sets sync bit full"),
        "st.xe": ("x", "e", "store word; sets sync bit empty"),
        "st.ff": ("f", "f", "store word; requires sync bit full, leaves it full"),
    }
    for name, (_pre, _post, desc) in load_variants.items():
        ops.append(
            _op(name, OpClass.MEM, _MEM_UNITS, 1, is_memory=True, description=desc)
        )
    for name, (_pre, _post, desc) in store_variants.items():
        ops.append(
            _op(name, OpClass.MEM, _MEM_UNITS, 1, is_memory=True, is_store=True, description=desc)
        )
    ops.append(
        _op("send", OpClass.MEM, _MEM_UNITS, 1, is_send=True,
            description="atomically launch a message: send <dest-va>, <dip>, #<len> [, #<priority>]")
    )
    ops.append(
        _op("sendp", OpClass.MEM, _MEM_UNITS, 1, is_send=True, privileged=True,
            description="privileged physical-destination send (system replies, priority 1)")
    )
    return ops


def _system_ops() -> List[Opcode]:
    """Privileged operations used by the software runtime (event handlers)."""
    return [
        _op("xregwr", OpClass.SYSTEM, _MEM_UNITS, 1, privileged=True,
            description="write a value into an arbitrary thread register named by a packed regspec"),
        _op("ltlbw", OpClass.SYSTEM, _MEM_UNITS, 1, privileged=True,
            description="install a translation: ltlbw <va>, <pa-frame>, <flags>"),
        _op("ltlbp", OpClass.SYSTEM, _MEM_UNITS, 1, privileged=True,
            description="probe the LTLB/page table: destination gets the physical frame or -1"),
        _op("gprobe", OpClass.SYSTEM, _MEM_UNITS, 1, privileged=True,
            description="probe the GTLB: destination gets the home node id of a virtual address or -1"),
        _op("bsset", OpClass.SYSTEM, _MEM_UNITS, 1, privileged=True,
            description="set the block-status bits of the block containing <va>"),
        _op("bsget", OpClass.SYSTEM, _MEM_UNITS, 1, privileged=True,
            description="read the block-status bits of the block containing <va>"),
        _op("pld", OpClass.SYSTEM, _MEM_UNITS, 1, privileged=True, is_memory=True,
            description="physical (untranslated) load"),
        _op("pst", OpClass.SYSTEM, _MEM_UNITS, 1, privileged=True, is_memory=True, is_store=True,
            description="physical (untranslated) store"),
        _op("syncset", OpClass.SYSTEM, _MEM_UNITS, 1, privileged=True,
            description="set the synchronisation bit of the word at <va> to <value>"),
    ]


def _fp_ops() -> List[Opcode]:
    ops = []
    binary = {
        "fadd": ("floating-point addition", 3),
        "fsub": ("floating-point subtraction", 3),
        "fmul": ("floating-point multiplication", 3),
        "fdiv": ("floating-point division", 10),
        "fmin": ("floating-point minimum", 1),
        "fmax": ("floating-point maximum", 1),
    }
    for name, (desc, lat) in binary.items():
        ops.append(_op(name, OpClass.FP, _FP_UNITS, lat, description=desc))
    ops.append(_op("fmadd", OpClass.FP, _FP_UNITS, 3,
                   description="fused multiply-add: dst = src1*src2 + src3"))
    unary = {
        "fneg": "floating-point negation",
        "fabs": "floating-point absolute value",
        "fmov": "floating-point copy (register or immediate)",
        "itof": "convert integer to floating point",
        "ftoi": "convert floating point to integer (truncating)",
    }
    for name, desc in unary.items():
        ops.append(_op(name, OpClass.FP, _FP_UNITS, 1, description=desc))
    compare = {
        "feq": "set destination to 1 if equal",
        "flt": "set destination to 1 if less than",
        "fle": "set destination to 1 if less or equal",
    }
    for name, desc in compare.items():
        ops.append(_op(name, OpClass.FP, _FP_UNITS, 1, description=desc))
    return ops


def _build_opcode_table() -> dict:
    table = {}
    for op in _integer_ops() + _control_ops() + _memory_ops() + _system_ops() + _fp_ops():
        if op.name in table:
            raise RuntimeError(f"duplicate opcode {op.name}")
        table[op.name] = op
    return table


#: The full opcode table, keyed by mnemonic.
OPCODES = _build_opcode_table()


#: Synchronisation-bit pre/post conditions for the load/store variants.
#: Maps mnemonic -> (precondition, postcondition); conditions are one of
#: ``"x"`` (don't care / unchanged), ``"f"`` (full) or ``"e"`` (empty).
SYNC_CONDITIONS = {
    "ld": ("x", "x"),
    "ld.ff": ("f", "f"),
    "ld.fe": ("f", "e"),
    "ld.xf": ("x", "f"),
    "ld.xe": ("x", "e"),
    "st": ("x", "x"),
    "st.ef": ("e", "f"),
    "st.xf": ("x", "f"),
    "st.xe": ("x", "e"),
    "st.ff": ("f", "f"),
    "pld": ("x", "x"),
    "pst": ("x", "x"),
}


#: Operand type used for immediates and label references.
Immediate = Union[int, float]


@dataclass(frozen=True)
class LabelRef:
    """A reference to a program label, resolved by the assembler."""

    name: str

    def __str__(self) -> str:
        return self.name


Operand = Union[RegisterRef, Immediate, LabelRef]


@dataclass
class Operation:
    """One operation of a 3-wide MAP instruction.

    Attributes
    ----------
    opcode:
        The :class:`Opcode` describing the operation.
    dests:
        Destination operands.  Most operations have zero or one destination;
        ``empty`` lists every register it marks empty.
    srcs:
        Source operands (registers, immediates or label references).
    unit:
        The function unit the assembler assigned the operation to.
    target:
        Resolved branch target (instruction index) for control operations
        whose source is a label; filled in by the assembler.
    """

    opcode: Opcode
    dests: List[RegisterRef] = field(default_factory=list)
    srcs: List[Operand] = field(default_factory=list)
    unit: Optional[Unit] = None
    target: Optional[int] = None

    # -- convenience -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.opcode.name

    @property
    def dest(self) -> Optional[RegisterRef]:
        return self.dests[0] if self.dests else None

    def __str__(self) -> str:
        parts = []
        for dest in self.dests:
            parts.append(str(dest))
        for src in self.srcs:
            if isinstance(src, (int, float)) and not isinstance(src, bool):
                parts.append(f"#{src}")
            else:
                parts.append(str(src))
        if parts:
            return f"{self.opcode.name} " + ", ".join(parts)
        return self.opcode.name
