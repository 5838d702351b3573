"""The 3-wide MAP instruction.

"Each map instruction contains 1, 2, or 3 operations, one for each ALU.  All
operations in a single instruction issue together but may complete out of
order." (Section 2 of the paper.)

An :class:`Instruction` therefore holds at most one operation per
:class:`~repro.isa.operations.Unit`.  The issue logic of a cluster treats the
instruction as the unit of issue: the instruction is held in the
synchronization stage until *every* operation's source operands are full and
every required resource is available, then all of its operations issue in the
same cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.isa.operations import Operation, Unit


@dataclass
class Instruction:
    """A single 3-wide instruction."""

    ops: Dict[Unit, Operation] = field(default_factory=dict)
    label: Optional[str] = None
    source_line: Optional[int] = None
    source_text: str = ""

    def add(self, op: Operation, unit: Unit) -> None:
        """Assign *op* to *unit*; raises if the slot is already occupied."""
        if unit in self.ops:
            raise ValueError(f"instruction already has an operation in the {unit.value} slot")
        op.unit = unit
        self.ops[unit] = op

    # -- queries ---------------------------------------------------------------

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops.values())

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def operations(self) -> List[Operation]:
        return list(self.ops.values())

    @property
    def is_empty(self) -> bool:
        return not self.ops

    # -- formatting ------------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for unit in (Unit.IALU, Unit.MEM, Unit.FPU):
            op = self.ops.get(unit)
            if op is not None:
                parts.append(str(op))
        body = " | ".join(parts) if parts else "nop"
        if self.label:
            return f"{self.label}: {body}"
        return body
