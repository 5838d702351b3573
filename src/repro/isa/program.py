"""Assembled MAP programs.

A :class:`Program` is the unit of code loaded into one H-Thread: an ordered
list of 3-wide instructions plus the label map produced by the assembler.
Programs are stored by the loader in the (always-hit) per-cluster instruction
cache model; the simulator addresses instructions by index (the program
counter is an instruction index).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from repro.isa.instruction import Instruction


@dataclass
class Program:
    """An assembled program for a single H-Thread."""

    name: str = "program"
    instructions: List[Instruction] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)
    source: str = ""

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def label_address(self, label: str) -> int:
        """Return the instruction index a label refers to."""
        try:
            return self.labels[label]
        except KeyError:
            raise KeyError(f"label {label!r} not defined in program {self.name!r}") from None

    @property
    def operation_count(self) -> int:
        """Total number of operations across all instructions."""
        return sum(len(instr) for instr in self.instructions)

    def listing(self) -> str:
        """Return a human-readable listing with instruction indices."""
        lines = [f"; program {self.name} ({len(self)} instructions)"]
        reverse_labels: Dict[int, List[str]] = {}
        for label, index in self.labels.items():
            reverse_labels.setdefault(index, []).append(label)
        for index, instr in enumerate(self.instructions):
            for label in reverse_labels.get(index, []):
                lines.append(f"{label}:")
            body = " | ".join(str(op) for op in instr.operations) or "nop"
            lines.append(f"  {index:4d}: {body}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return f"Program({self.name!r}, {len(self)} instructions)"
