"""A two-pass assembler for the textual MAP assembly.

Syntax
------

* One instruction per line.  Up to three operations separated by ``|``::

      loop: add i1, i1, #1 | ld f2, i3, #8 | fadd f4, f4, f2

* ``;`` and ``#!`` start a comment (``#`` alone introduces an immediate, so
  comments use ``;``).
* Labels are identifiers followed by ``:`` at the start of a line; a label
  may stand on its own line or prefix an instruction.
* Operands are separated by commas.  An operand is either a register
  (``i3``, ``f0``, ``cc1``, ``gcc5``, ``m2``, ``net``, ``evq``, ``nid``,
  ``cid``, ``vid``, ``zero``, or the cluster-qualified ``c2.i7``), an
  immediate (``#42``, ``#-3``, ``#1.5``, ``#0x1f`` -- the ``#`` is optional
  for plain integers), or a label reference (for branches).

Slot assignment
---------------

Floating-point operations go to the FPU slot, memory/system operations to the
memory-unit slot, and integer/control operations to the integer-ALU slot --
falling back to the memory-unit slot (the second integer ALU) when the
integer slot is already taken, mirroring the two-integer-ALU cluster of the
paper.  Over-committing a slot is an assembly error.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.isa.instruction import Instruction
from repro.isa.operations import (
    LabelRef,
    OPCODES,
    Operation,
    OpClass,
    Unit,
)
from repro.isa.registers import RegisterRef, is_register, parse_register


class AssemblyError(Exception):
    """Raised for any syntactic or semantic error in an assembly source."""

    def __init__(self, message: str, line: Optional[int] = None, text: str = ""):
        self.line = line
        self.text = text
        location = f" (line {line})" if line is not None else ""
        detail = f": {text.strip()!r}" if text else ""
        super().__init__(f"{message}{location}{detail}")


_LABEL_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_.]*)\s*:\s*(.*)$")
_INT_RE = re.compile(r"^[+-]?(0x[0-9a-fA-F]+|\d+)$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+\.)([eE][+-]?\d+)?$|^[+-]?\d+[eE][+-]?\d+$")


#: Opcodes that take no destination operands; every operand is a source.
_NO_DEST_OPCODES = {
    "st", "st.ef", "st.xf", "st.xe", "st.ff", "pst",
    "send", "sendp",
    "xregwr", "ltlbw", "bsset", "syncset",
    "br", "brz", "jmp", "halt", "nop", "mark",
}

#: Opcodes for which *every* operand is a destination.
_ALL_DEST_OPCODES = {"empty"}

#: Minimum/maximum operand counts per opcode (None means unchecked).
_ARITY: Dict[str, Tuple[int, Optional[int]]] = {
    "nop": (0, 0),
    "halt": (0, 0),
    "mark": (1, 1),
    "mov": (2, 2),
    "not": (2, 2),
    "neg": (2, 2),
    "empty": (1, None),
    "br": (2, 2),
    "brz": (2, 2),
    "jmp": (1, 1),
    "ld": (2, 3),
    "ld.ff": (2, 3),
    "ld.fe": (2, 3),
    "ld.xf": (2, 3),
    "ld.xe": (2, 3),
    "st": (2, 3),
    "st.ef": (2, 3),
    "st.xf": (2, 3),
    "st.xe": (2, 3),
    "st.ff": (2, 3),
    "pld": (2, 3),
    "pst": (2, 3),
    "send": (3, 4),
    "sendp": (3, 4),
    "xregwr": (2, 2),
    "ltlbw": (3, 3),
    "ltlbp": (2, 2),
    "gprobe": (2, 2),
    "bsset": (2, 2),
    "bsget": (2, 2),
    "syncset": (2, 2),
    "setptr": (4, 4),
    "ptrinfo": (3, 3),
    "lea": (3, 3),
    "fmadd": (4, 4),
    "fmov": (2, 2),
    "fneg": (2, 2),
    "fabs": (2, 2),
    "itof": (2, 2),
    "ftoi": (2, 2),
}


def _parse_operand(token: str, line_no: int, text: str):
    token = token.strip()
    if not token:
        raise AssemblyError("empty operand", line_no, text)
    if token.startswith("#"):
        literal = token[1:]
        if _INT_RE.match(literal):
            return int(literal, 0)
        if _FLOAT_RE.match(literal):
            return float(literal)
        raise AssemblyError(f"bad immediate {token!r}", line_no, text)
    if is_register(token):
        return parse_register(token)
    if _INT_RE.match(token):
        return int(token, 0)
    if _FLOAT_RE.match(token):
        return float(token)
    if re.match(r"^[A-Za-z_][A-Za-z0-9_.]*$", token):
        return LabelRef(token)
    raise AssemblyError(f"cannot parse operand {token!r}", line_no, text)


def _split_operands(body: str) -> List[str]:
    return [tok for tok in (t.strip() for t in body.split(",")) if tok]


def _build_operation(mnemonic: str, operands: List, line_no: int, text: str) -> Operation:
    opcode = OPCODES.get(mnemonic)
    if opcode is None:
        raise AssemblyError(f"unknown opcode {mnemonic!r}", line_no, text)

    arity = _ARITY.get(mnemonic)
    if arity is not None:
        lo, hi = arity
        if len(operands) < lo or (hi is not None and len(operands) > hi):
            expected = f"{lo}" if hi == lo else f"{lo}..{'∞' if hi is None else hi}"
            raise AssemblyError(
                f"{mnemonic} expects {expected} operands, got {len(operands)}",
                line_no,
                text,
            )
    elif opcode.op_class in (OpClass.INT, OpClass.FP) and len(operands) != 3:
        raise AssemblyError(
            f"{mnemonic} expects 3 operands (dst, src1, src2), got {len(operands)}",
            line_no,
            text,
        )

    if mnemonic in _ALL_DEST_OPCODES:
        dests, srcs = operands, []
    elif mnemonic in _NO_DEST_OPCODES:
        dests, srcs = [], operands
    else:
        if not operands:
            raise AssemblyError(f"{mnemonic} requires a destination operand", line_no, text)
        dests, srcs = operands[:1], operands[1:]

    for dest in dests:
        if not isinstance(dest, RegisterRef):
            raise AssemblyError(
                f"destination of {mnemonic} must be a register, got {dest!r}", line_no, text
            )
        if dest.is_identity or (dest.is_queue):
            raise AssemblyError(
                f"special register {dest} cannot be a destination", line_no, text
            )

    return Operation(opcode=opcode, dests=list(dests), srcs=list(srcs))


def _assign_slot(instr: Instruction, op: Operation, line_no: int, text: str) -> None:
    opcode = op.opcode
    if opcode.units == (Unit.FPU,):
        preferred = [Unit.FPU]
    elif opcode.units == (Unit.MEM,):
        preferred = [Unit.MEM]
    else:
        preferred = [Unit.IALU, Unit.MEM]
    for unit in preferred:
        if unit not in instr.ops:
            instr.add(op, unit)
            return
    raise AssemblyError(
        f"no free slot for operation {op} (slots used: "
        f"{', '.join(u.value for u in instr.ops)})",
        line_no,
        text,
    )


def _parse_line(text: str, line_no: int) -> Tuple[Optional[str], Optional[Instruction]]:
    """Parse one source line into (label, instruction)."""
    # Strip comments.  ';' always starts a comment.
    code = text.split(";", 1)[0].rstrip()
    if not code.strip():
        return None, None

    label = None
    match = _LABEL_RE.match(code)
    if match:
        label = match.group(1)
        code = match.group(2)
    if not code.strip():
        return label, None

    instr = Instruction(label=label, source_line=line_no, source_text=text.strip())
    for op_text in code.split("|"):
        op_text = op_text.strip()
        if not op_text:
            continue
        pieces = op_text.split(None, 1)
        mnemonic = pieces[0].lower()
        operand_text = pieces[1] if len(pieces) > 1 else ""
        operands = [
            _parse_operand(tok, line_no, text) for tok in _split_operands(operand_text)
        ]
        op = _build_operation(mnemonic, operands, line_no, text)
        _assign_slot(instr, op, line_no, text)
    if instr.is_empty:
        return label, None
    return label, instr


def _resolve_labels(instructions: List[Instruction], labels: Dict[str, int]) -> None:
    for index, instr in enumerate(instructions):
        for op in instr:
            new_srcs = []
            for src in op.srcs:
                if isinstance(src, LabelRef):
                    if src.name not in labels:
                        raise AssemblyError(
                            f"undefined label {src.name!r}",
                            instr.source_line,
                            instr.source_text,
                        )
                    op.target = labels[src.name]
                new_srcs.append(src)
            op.srcs = new_srcs
            # A branch with an immediate integer target is taken as an absolute
            # instruction index (used by generated code).
            if op.opcode.is_branch and op.target is None:
                for src in op.srcs:
                    if isinstance(src, int) and not isinstance(src, bool):
                        op.target = src
                        break


def assemble(source: str, name: str = "program") -> "Program":
    """Assemble *source* into a :class:`~repro.isa.program.Program`.

    Raises
    ------
    AssemblyError
        For unknown opcodes, malformed operands, slot over-commitment,
        undefined labels or duplicate labels.
    """
    from repro.isa.program import Program  # noqa: PLC0415

    instructions: List[Instruction] = []
    labels: Dict[str, int] = {}
    pending_labels: List[Tuple[str, int]] = []

    for line_no, raw in enumerate(source.splitlines(), start=1):
        label, instr = _parse_line(raw, line_no)
        if label is not None:
            if label in labels or any(label == existing for existing, _ in pending_labels):
                raise AssemblyError(f"duplicate label {label!r}", line_no, raw)
            pending_labels.append((label, line_no))
        if instr is not None:
            for pending, _ in pending_labels:
                labels[pending] = len(instructions)
            pending_labels.clear()
            instructions.append(instr)

    # Labels at end of program point one past the last instruction.
    for pending, _ in pending_labels:
        labels[pending] = len(instructions)

    _resolve_labels(instructions, labels)
    return Program(name=name, instructions=instructions, labels=labels, source=source)


@lru_cache(maxsize=256)
def assemble_cached(source: str, name: str) -> "Program":
    """:func:`assemble`, returning the same :class:`~repro.isa.program.Program`
    object for the same source and name.

    The runtime's handler programs and the programs a snapshot decodes come
    from here, so a restored machine shares its programs with the machine
    it was taken from, and the issue stage compiles each of them once per
    process (:func:`repro.cluster.dispatch.compile_program` caches by
    program identity).  Callers must not modify the returned program."""
    return assemble(source, name=name)
