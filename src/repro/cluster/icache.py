"""Per-cluster instruction cache.

Each cluster has a 1 KW (8 KB) instruction cache (Section 2, Figure 3).  The
paper's evaluation never exercises instruction-cache misses (the kernels and
handlers are tiny), so the model is an always-hit store of the programs
loaded into each V-Thread slot with capacity accounting: the loader checks
that the resident programs fit, and fetch statistics are kept so utilisation
can be reported.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.component import StatefulComponent
from repro.core.values import pairs, state_fields
from repro.isa.program import Program

#: Instruction-cache capacity in words (1 KW = 8 KB per the paper).
ICACHE_WORDS = 1024
#: Words one 3-wide instruction is assumed to occupy in the I-cache.
WORDS_PER_INSTRUCTION = 4


class CapacityError(Exception):
    """Raised when the programs loaded on a cluster exceed the I-cache size."""


class InstructionCache(StatefulComponent):
    """Always-hit instruction cache holding one program per V-Thread slot."""

    _STATE = state_fields(("_programs", pairs()), "fetches")

    def __init__(self, name: str = "icache"):
        self.name = name
        self._programs: Dict[int, Program] = {}
        # Statistics: instruction fetches, counted by the cluster's issue
        # stage each time it examines a resident H-Thread's next instruction.
        self.fetches = 0

    # -- loading -----------------------------------------------------------------

    def load(self, slot: int, program: Program) -> None:
        self._programs[slot] = program
        if self.words_used > ICACHE_WORDS:
            raise CapacityError(
                f"{self.name}: resident programs need {self.words_used} words, "
                f"capacity is {ICACHE_WORDS}"
            )

    def program(self, slot: int) -> Optional[Program]:
        return self._programs.get(slot)

    # -- capacity ----------------------------------------------------------------

    @property
    def words_used(self) -> int:
        return sum(
            len(program) * WORDS_PER_INSTRUCTION
            for program in self._programs.values()
        )

    def __repr__(self) -> str:
        return f"InstructionCache({self.name!r}, {len(self._programs)} programs, {self.words_used} words)"
