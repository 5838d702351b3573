"""H-Thread contexts.

An H-Thread is the instruction stream of one V-Thread slot on one cluster.
Its architectural state (program counter, register file with scoreboard) is
resident in the cluster; a stalled H-Thread "consumes no resources other
than the thread slot that holds its state" (Section 3.2).

Every change of a context's :class:`ThreadState` goes through this module
and calls the context's ``on_state_change`` hook, which the owning cluster
uses to keep its runnable-slot cache current.

The issue scan parks a stalled context on the one condition it waits for
(an empty operand register or an underfull hardware queue, see
:meth:`~repro.cluster.cluster.Cluster.issue`); the context holds that park.
While parked, the scan counts each visit in ``parked_visits`` instead of in
:attr:`HThreadContext.stall_reasons`, which is a property that folds the
pending visits into its ``Counter`` whenever it is read, so every reader
sees the same counts as if each visit had been recorded there.  Parks are
derived state: never serialised, never compared, and dropped (their visits
folded) by every thread-state change, which includes loading a program and
restoring a snapshot.
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
    #: The park (derived state): None, or ``(on_queue, target, arg)`` -- a
    #: queue's word deque and the words needed, or the register set's full
    #: bits and a flat offset -- with the stall reason it stands for and the
    #: visits not yet folded into :attr:`stall_reasons`.
    parked_on: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    parked_reason: str = field(default="", init=False, repr=False, compare=False)
    parked_visits: int = field(default=0, init=False, repr=False, compare=False)

    # -- lifecycle ---------------------------------------------------------------

    def _set_state(self, state: ThreadState) -> None:
        self.state = state
        if self.parked_on is not None:
            self.unpark()
        if self.on_state_change is not None:
            self.on_state_change()

    # -- parking -----------------------------------------------------------------

    def park(self, reason: str, condition: tuple) -> None:
        """Park on *condition* (see :attr:`parked_on`), which failed with
        stall *reason* at a visit already counted in :attr:`stall_reasons`."""
        self.parked_on = condition
        self.parked_reason = reason

    def unpark(self) -> None:
        """End the park, folding its visits into :attr:`stall_reasons`."""
        if self.parked_visits:
            self._fold_parked_visits()
        self.parked_on = None

    def _fold_parked_visits(self) -> None:
        self._stall_reasons[self.parked_reason] += self.parked_visits
        self.parked_visits = 0

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


def _stall_reasons(context: HThreadContext) -> Counter:
    if context.parked_visits:
        context._fold_parked_visits()
    return context._stall_reasons


def _set_stall_reasons(context: HThreadContext, reasons: Counter) -> None:
    context._stall_reasons = reasons


# ``stall_reasons`` stays a dataclass field, so ``__init__``, ``__eq__`` and
# ``__repr__`` include it, but is read through this property, which folds a
# parked context's pending visits first.
HThreadContext.stall_reasons = property(  # type: ignore[assignment]
    _stall_reasons, _set_stall_reasons,
    doc="Stall cycles per reason string, parked visits included.")
