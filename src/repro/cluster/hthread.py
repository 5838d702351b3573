"""H-Thread contexts.

An H-Thread is the instruction stream of one V-Thread slot on one cluster.
Its architectural state (program counter, register file with scoreboard) is
resident in the cluster; a stalled H-Thread "consumes no resources other
than the thread slot that holds its state" (Section 3.2).

Every change of a context's :class:`ThreadState` goes through this module
and calls the context's ``on_state_change`` hook, which the owning cluster
uses to keep its runnable-slot cache current.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cluster.regfile import RegisterSet
from repro.core.values import (
    decode_counter,
    decode_value,
    encode_counter,
    encode_value,
)
from repro.isa.program import Program


class ThreadState(enum.Enum):
    #: No program loaded in this slot.
    IDLE = "idle"
    #: Loaded and eligible for issue.
    RUNNABLE = "runnable"
    #: Executed ``halt`` or ran off the end of its program.
    HALTED = "halted"
    #: Took a synchronous exception and is stopped pending handler action.
    FAULTED = "faulted"


@dataclass
class HThreadContext:
    """State of one H-Thread (one V-Thread slot on one cluster)."""

    slot: int
    cluster_id: int
    registers: RegisterSet = field(default_factory=RegisterSet)
    program: Optional[Program] = None
    pc: int = 0
    state: ThreadState = ThreadState.IDLE
    # Statistics
    instructions_issued: int = 0
    operations_issued: int = 0
    stall_cycles: int = 0
    stall_reasons: Counter = field(default_factory=Counter)
    issue_cycles: int = 0
    start_cycle: Optional[int] = None
    halt_cycle: Optional[int] = None
    #: Called after every change of :attr:`state` (installed by the owning
    #: cluster; wiring, not state, so never serialised or compared).
    on_state_change: Optional[Callable[[], None]] = field(default=None, repr=False, compare=False)

    # -- lifecycle ---------------------------------------------------------------

    def _set_state(self, state: ThreadState) -> None:
        self.state = state
        if self.on_state_change is not None:
            self.on_state_change()

    def load(self, program: Program, initial_registers: Optional[dict] = None,
             entry: Optional[str] = None) -> None:
        self.program = program
        self.pc = program.label_address(entry) if entry else 0
        self._set_state(ThreadState.RUNNABLE)
        self.instructions_issued = 0
        self.operations_issued = 0
        self.stall_cycles = 0
        self.stall_reasons.clear()
        self.start_cycle = None
        self.halt_cycle = None
        if initial_registers:
            self.registers.set_initial(initial_registers)

    def halt(self, cycle: Optional[int] = None) -> None:
        self._set_state(ThreadState.HALTED)
        self.halt_cycle = cycle

    def fault(self) -> None:
        self._set_state(ThreadState.FAULTED)

    def resume(self) -> None:
        """Used by an exception handler to restart a faulted thread."""
        if self.state is ThreadState.FAULTED:
            self._set_state(ThreadState.RUNNABLE)

    # -- queries -----------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.state in (ThreadState.HALTED, ThreadState.IDLE)

    # -- snapshot (repro.snapshot state_dict contract) ---------------------------

    def state_dict(self) -> dict:
        return {
            "program": encode_value(self.program),
            "pc": self.pc,
            "state": self.state.value,
            "registers": self.registers.state_dict(),
            "instructions_issued": self.instructions_issued,
            "operations_issued": self.operations_issued,
            "stall_cycles": self.stall_cycles,
            "stall_reasons": encode_counter(self.stall_reasons),
            "issue_cycles": self.issue_cycles,
            "start_cycle": self.start_cycle,
            "halt_cycle": self.halt_cycle,
        }

    def load_state_dict(self, state: dict) -> None:
        self.program = decode_value(state["program"])
        self.pc = state["pc"]
        self._set_state(ThreadState(state["state"]))
        self.registers.load_state_dict(state["registers"])
        self.instructions_issued = state["instructions_issued"]
        self.operations_issued = state["operations_issued"]
        self.stall_cycles = state["stall_cycles"]
        self.stall_reasons = decode_counter(state["stall_reasons"])
        self.issue_cycles = state["issue_cycles"]
        self.start_cycle = state["start_cycle"]
        self.halt_cycle = state["halt_cycle"]

    def __str__(self) -> str:
        return (
            f"HThread(slot={self.slot}, cluster={self.cluster_id}, state={self.state.value}, "
            f"pc={self.pc}, issued={self.instructions_issued})"
        )
