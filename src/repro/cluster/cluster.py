"""The MAP execution cluster model.

A cluster holds the register state of all six resident V-Thread slots (one
H-Thread context per slot), an instruction cache, the three function units
and the synchronization stage that interleaves the H-Threads cycle by cycle
(Sections 2, 3.1 and 3.2 of the paper).

The cluster is driven by its node (the MAP chip) in three phases per cycle:

1. :meth:`Cluster.apply_writebacks` -- results of previously issued
   operations (and register writes delivered by the C-Switch) become visible
   and set their scoreboard bits full;
2. the node advances the memory system and switches;
3. :meth:`Cluster.issue` -- the synchronization stage picks at most one ready
   instruction from the resident H-Threads and issues all of its operations.

Because writebacks are applied before issue, an operation of latency *L*
issued at cycle *t* can feed a dependent instruction at cycle *t + L*, and a
cache-hit load (memory-system latency of two cycles plus the two switch
traversals) satisfies a dependent instruction three cycles after issue, as in
Table 1 of the paper.

Instruction semantics live in :mod:`repro.cluster.dispatch`, which compiles
each resident program once into :class:`~repro.cluster.dispatch.CompiledInstruction`
plans, each holding two generated functions: ``check``, the readiness
checks, and ``fire``, which issues the instruction.  The issue scan calls
both; the event kernel's sleep check (:meth:`Cluster.idle_profile`) calls
``check``, which has no side effects.  Plans are derived state, cached per
slot and never serialised: loading a program or restoring a snapshot drops
the slot's plans, and the next use recompiles them.

The issue scan keeps three more pieces of derived state: the slots whose
H-Thread is runnable, with the issue policy's scan orders filtered to them;
each slot's queue-name bindings; and the parks.  When ``check`` stalls a
thread on a reason its plan lists in ``parks`` (an empty operand register
or an underfull hardware queue), the scan counts that visit as usual and
parks the context on the failed condition.  Later visits and idle profiles
re-test only that condition; the first visit that finds it passing ends the
park and runs ``check`` again.  Only the thread's own issue empties its
registers or adds a pending write, and a parked thread issues nothing, so
``check`` would have returned the parked reason on every visit the park
absorbs.  Every thread-state change calls the context's
``on_state_change`` hook, which drops the runnable-slot cache, and drops
the context's park; a restore drops the queue bindings.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster import dispatch
from repro.cluster.dispatch import UNIT_VALUES, RegWrite, SimulationError
from repro.cluster.hthread import HThreadContext, ThreadState
from repro.cluster.icache import InstructionCache
from repro.cluster.issue import HepBarrelPolicy, make_issue_policy
from repro.core.config import (
    ClusterConfig,
    EVENT_SLOT,
    EXCEPTION_SLOT,
    NUM_VTHREAD_SLOTS,
)
from repro.core.values import (
    SnapshotError,
    decode_pairs,
    decode_value,
    encode_pairs,
    encode_value,
)
from repro.events.records import EventRecord, EventType
from repro.isa.program import Program

_RUNNABLE = ThreadState.RUNNABLE
_FINISHED = (ThreadState.HALTED, ThreadState.IDLE)


def _residue_count(start: int, count: int, residue: int, modulus: int) -> int:
    """Number of cycles ``c`` in ``[start, start + count)`` with
    ``c % modulus == residue`` (the HEP barrel's turn cycles for one slot)."""
    first = start + ((residue - start) % modulus)
    if first >= start + count:
        return 0
    return (start + count - 1 - first) // modulus + 1


class Cluster:
    """One of the four execution clusters of a MAP chip."""

    def __init__(self, cluster_id: int, node, config: Optional[ClusterConfig] = None):
        self.id = cluster_id
        self.node = node
        self.config = config or ClusterConfig()
        self.contexts: List[HThreadContext] = [
            HThreadContext(slot=slot, cluster_id=cluster_id)
            for slot in range(NUM_VTHREAD_SLOTS)
        ]
        self.icache = InstructionCache(name=f"n{getattr(node, 'node_id', '?')}c{cluster_id}")
        self.policy = make_issue_policy(self.config, NUM_VTHREAD_SLOTS)
        #: Runnable slots in ascending order, and per policy scan key the
        #: policy's order filtered to them (derived state, dropped by every
        #: thread-state change; see :meth:`_refresh_runnable`).
        self._runnable: Optional[Tuple[int, ...]] = None
        self._scan_orders: List[Tuple[int, ...]] = []
        for context in self.contexts:
            context.on_state_change = self._drop_runnable
        #: The contexts of the user slots (every slot but the event and
        #: exception slots), in slot order.
        self._user_contexts = tuple(
            context for context in self.contexts
            if context.slot not in (EVENT_SLOT, EXCEPTION_SLOT)
        )
        #: In-flight local writebacks as ``(due_cycle, slot, ref, value,
        #: clear_pending, flat_offset)`` tuples (plain tuples, not objects:
        #: the issue stage appends one per value-producing operation).
        #: ``clear_pending`` is always True -- every local result completes
        #: a write its own issue reserved -- and is kept for the snapshot.
        self._writebacks: List[tuple] = []
        #: Per-slot compiled plans (derived state, never serialised; see
        #: :meth:`_slot_plans`).
        self._plans: List[Optional[list]] = [None] * NUM_VTHREAD_SLOTS
        #: Per-slot queue-name -> hardware-queue bindings (derived state;
        #: compiled plans carry queue *names* so they stay cluster-neutral
        #: and shareable, and this cache makes the per-cycle resolution O(1)).
        self._queue_cache: List[dict] = [dict() for _ in range(NUM_VTHREAD_SLOTS)]
        # Statistics.  Operations per function unit (indexed like
        # dispatch.UNIT_VALUES) and instructions per slot are flat counts;
        # the dict views are built on read.
        self.instructions_issued = 0
        self.operations_issued = 0
        self.idle_cycles = 0
        self.no_ready_cycles = 0
        self.exceptions_raised = 0
        self._unit_counts = [0] * len(UNIT_VALUES)
        self._slot_counts = [0] * NUM_VTHREAD_SLOTS

    # ------------------------------------------------------------------ loading

    def load_program(
        self,
        slot: int,
        program: Program,
        initial_registers: Optional[dict] = None,
        entry: Optional[str] = None,
    ) -> HThreadContext:
        context = self.contexts[slot]
        self.icache.load(slot, program)
        self._plans[slot] = None
        context.load(program, initial_registers, entry)
        return context

    def context(self, slot: int) -> HThreadContext:
        return self.contexts[slot]

    # ------------------------------------------------------------------ queries

    @property
    def user_threads_finished(self) -> bool:
        for context in self._user_contexts:
            if context.state not in _FINISHED:
                return False
        return True

    @property
    def operations_by_unit(self) -> Dict[str, int]:
        """Operations issued per function unit, in ascending unit-name order
        (units that issued nothing are left out)."""
        return {unit: count for unit, count in zip(UNIT_VALUES, self._unit_counts) if count}

    @property
    def issue_by_slot(self) -> Dict[int, int]:
        """Instructions issued per V-Thread slot, in ascending slot order
        (slots that issued nothing are left out)."""
        return {slot: count for slot, count in enumerate(self._slot_counts) if count}

    # --------------------------------------------------------------- writebacks

    def apply_writebacks(self, cycle: int) -> None:
        writebacks = self._writebacks
        if not writebacks:
            return
        remaining = None
        contexts = self.contexts
        for wb in writebacks:
            if wb[0] > cycle:
                if remaining is None:
                    remaining = [wb]
                else:
                    remaining.append(wb)
                continue
            registers = contexts[wb[1]].registers
            offset = wb[5]
            registers.writes += 1
            registers._values[offset] = wb[3]
            registers._full[offset] = True
            if registers._pending[offset] > 0:
                registers._pending[offset] -= 1
        if remaining is None:
            writebacks.clear()
        else:
            self._writebacks = remaining

    def receive(self, write: RegWrite, cycle: int) -> None:
        """Apply a register write delivered by the C-Switch."""
        registers = self.contexts[write.vthread].registers
        ref = write.ref.local()
        registers.write(ref, write.value)
        if write.clear_pending:
            registers.clear_pending(ref)

    # -------------------------------------------------------------------- issue

    def _slot_plans(self, slot: int) -> list:
        """The compiled plans of *slot*'s program, compiling on first use.

        The cache entry is dropped by the only two paths that change a
        slot's resident program: :meth:`load_program` and
        :meth:`load_state_dict` (a snapshot restore installs decoded
        ``Program`` objects).  The compiler is called through its module so
        that profiling tools can wrap it.
        """
        plans = dispatch.compile_program(self.icache.program(slot), self, slot)
        self._plans[slot] = plans
        return plans

    def _drop_runnable(self) -> None:
        """``on_state_change`` hook of every context of this cluster."""
        self._runnable = None

    def _refresh_runnable(self) -> Tuple[int, ...]:
        """Recompute the runnable slots and the scan orders filtered to them."""
        runnable = tuple(
            context.slot for context in self.contexts if context.state is _RUNNABLE
        )
        self._runnable = runnable
        self._scan_orders = [
            tuple(slot for slot in order if slot in runnable) for order in self.policy.orders
        ]
        return runnable

    def _queue_binding(self, slot: int, name: str):
        """The hardware queue *name* resolves to for *slot* (None when the
        queue is not readable here), memoized per slot."""
        cache = self._queue_cache[slot]
        try:
            return cache[name]
        except KeyError:
            queue = self.node.queue_for(self.id, slot, name)
            cache[name] = queue
            return queue

    def issue(self, cycle: int) -> bool:
        """Run the synchronization stage for one cycle; returns True if an
        instruction issued.

        The scan visits the runnable slots in the policy's order for this
        cycle.  Only the visited slot can change state during a scan (an
        implicit halt), so the order taken at the start stays valid."""
        runnable = self._runnable
        if runnable is None:
            runnable = self._refresh_runnable()
        if not runnable:
            self.idle_cycles += 1
            return False
        contexts = self.contexts
        all_plans = self._plans
        for slot in self._scan_orders[self.policy.scan_key(cycle)]:
            context = contexts[slot]
            parked_on = context.parked_on
            if parked_on is not None:
                # A parked thread's PC and plans are unchanged since it parked.
                on_queue, target, arg = parked_on
                if (len(target) < arg) if on_queue else (not target[arg]):
                    self.icache.fetches += 1
                    context.stall_cycles += 1
                    context.parked_visits += 1
                    continue
                context.unpark()
            plans = all_plans[slot]
            if plans is None:
                plans = self._slot_plans(slot)
            pc = context.pc
            if pc < 0 or pc >= len(plans):
                # Running off the end of the program is an implicit halt
                # (not counted as an instruction fetch).
                context.halt(cycle)
                continue
            self.icache.fetches += 1
            plan = plans[pc]
            stall = plan.check(self, context)
            if stall is not None:
                context.stall_cycles += 1
                context.stall_reasons[stall] += 1
                park = plan.parks.get(stall)
                if park is not None:
                    self._park(context, stall, park)
                continue
            if context.start_cycle is None:
                context.start_cycle = cycle
            plan.fire(self, context, pc, cycle)
            num_ops = plan.num_ops
            unit_counts = self._unit_counts
            for index in plan.unit_idx:
                unit_counts[index] += 1
            self._slot_counts[slot] += 1
            self.instructions_issued += 1
            self.operations_issued += num_ops
            context.instructions_issued += 1
            context.operations_issued += num_ops
            self.policy.issued(slot)
            return True

        self.no_ready_cycles += 1
        return False

    def _park(self, context: HThreadContext, reason: str, park: tuple) -> None:
        """Park *context* on the condition its plan's park table names for
        *reason*: a queue's word deque, or its register set's full bits."""
        queue_name, arg = park
        if queue_name is None:
            context.park(reason, (False, context.registers._full, arg))
        else:
            queue = self._queue_binding(context.slot, queue_name)
            context.park(reason, (True, queue._words, arg))

    # ------------------------------------------------------- kernel scheduling

    def next_writeback_cycle(self) -> Optional[int]:
        """Earliest due cycle of an in-flight local writeback, or None
        (SimComponent contract for the event kernel)."""
        if not self._writebacks:
            return None
        return min(wb[0] for wb in self._writebacks)

    def idle_profile(self):
        """Dry-run of the synchronization stage for the event kernel.

        Returns ``None`` when the cluster could make progress on the next
        cycle (an instruction is ready, a PC ran off its program and the
        implicit halt is still pending, or an instruction is malformed and
        the real issue scan must raise), meaning the node must stay awake.
        Otherwise returns the frozen per-cycle statistics profile of an
        idle/blocked cycle: ``("idle", ())`` when no H-Thread is runnable,
        or ``("blocked", ((context, stall_reason), ...))`` for the runnable
        slots the issue scan would visit.  The dry-run re-tests a parked
        thread's condition and calls the same generated ``check`` functions
        as :meth:`issue` for the others, but has no side effects (no fetch
        counts, no stall records, no parks made or ended): the profile is
        replayed in bulk by :meth:`account_idle_cycles` when the node wakes.
        """
        runnable = self._runnable
        if runnable is None:
            runnable = self._refresh_runnable()
        stalled = []
        for slot in runnable:
            context = self.contexts[slot]
            parked_on = context.parked_on
            if parked_on is not None:
                on_queue, target, arg = parked_on
                if (len(target) < arg) if on_queue else (not target[arg]):
                    stalled.append((context, context.parked_reason))
                    continue
            plans = self._plans[slot]
            if plans is None:
                plans = self._slot_plans(slot)
            pc = context.pc
            if pc < 0 or pc >= len(plans):
                return None
            try:
                reason = plans[pc].check(self, context)
            except SimulationError:
                return None
            if reason is None:
                return None
            stalled.append((context, reason))
        if not stalled:
            return ("idle", ())
        return ("blocked", tuple(stalled))

    def account_idle_cycles(self, profile, start_cycle: int, num_cycles: int) -> None:
        """Apply *num_cycles* worth of idle/blocked issue-stage statistics in
        one step, exactly as *num_cycles* naive calls of :meth:`issue` on the
        frozen state would have (the state cannot have changed while the
        node slept, so the per-cycle increments are constant -- except under
        the HEP barrel policy, where the scanned slot rotates with the clock
        and the per-slot counts follow the cycle residues).

        A context still parked on the profile's reason counts the cycles as
        parked visits, as :meth:`issue` would have; they fold into
        ``stall_reasons`` under that reason, which the park's first visit
        already put there."""
        kind, stalled = profile
        if kind == "idle":
            self.idle_cycles += num_cycles
            return
        self.no_ready_cycles += num_cycles
        hep = isinstance(self.policy, HepBarrelPolicy)
        for context, reason in stalled:
            if hep:
                visits = _residue_count(start_cycle, num_cycles, context.slot,
                                        self.policy.num_slots)
                if not visits:
                    continue
            else:
                # event-priority and round-robin scan every runnable slot
                # each blocked cycle.
                visits = num_cycles
            self.icache.fetches += visits
            context.stall_cycles += visits
            if context.parked_on is not None and reason == context.parked_reason:
                context.parked_visits += visits
            else:
                context.stall_reasons[reason] += visits

    # -- exceptions ----------------------------------------------------------------

    def _raise_exception(self, context: HThreadContext, event_type: EventType, detail: str, cycle: int) -> None:
        self.exceptions_raised += 1
        context.fault()
        record = EventRecord(
            event_type=event_type,
            address=0,
            data=0,
            vthread=context.slot,
            cluster=self.id,
            cycle=cycle,
            extra={"detail": detail, "pc": context.pc},
        )
        self.node.post_exception(self.id, record, cycle)
        self.node.trace(cycle, "exception", type=event_type.name, cluster=self.id,
                        slot=context.slot, detail=detail)

    # -- statistics ----------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "instructions_issued": self.instructions_issued,
            "operations_issued": self.operations_issued,
            "operations_by_unit": self.operations_by_unit,
            "idle_cycles": self.idle_cycles,
            "no_ready_cycles": self.no_ready_cycles,
            "issue_by_slot": self.issue_by_slot,
            "exceptions": self.exceptions_raised,
            "icache_fetches": self.icache.fetches,
        }

    # -- snapshot (repro.snapshot state_dict contract) -----------------------------

    def state_dict(self) -> dict:
        return {
            "contexts": [context.state_dict() for context in self.contexts],
            "icache": self.icache.state_dict(),
            "policy": self.policy.state_dict(),
            "writebacks": [
                {
                    "due_cycle": wb[0],
                    "slot": wb[1],
                    "ref": encode_value(wb[2]),
                    "value": encode_value(wb[3]),
                    "clear_pending": wb[4],
                }
                for wb in self._writebacks
            ],
            "instructions_issued": self.instructions_issued,
            "operations_issued": self.operations_issued,
            "operations_by_unit": encode_pairs(self.operations_by_unit),
            "idle_cycles": self.idle_cycles,
            "no_ready_cycles": self.no_ready_cycles,
            "issue_by_slot": encode_pairs(self.issue_by_slot),
            "exceptions_raised": self.exceptions_raised,
        }

    def load_state_dict(self, state: dict) -> None:
        for context, context_state in zip(self.contexts, state["contexts"]):
            context.load_state_dict(context_state)
        self.icache.load_state_dict(state["icache"])
        # The restore installed decoded Program objects: look their plans up again.
        self._plans = [None] * len(self._plans)
        self._queue_cache = [dict() for _ in self._queue_cache]
        self.policy.load_state_dict(state["policy"])
        self._writebacks = []
        for wb in state["writebacks"]:
            ref = decode_value(wb["ref"])
            offset = self.contexts[wb["slot"]].registers.flat_offset(ref)
            if offset is None:
                raise SnapshotError(f"writeback to unknown register {ref}")
            self._writebacks.append((wb["due_cycle"], wb["slot"], ref,
                                     decode_value(wb["value"]), wb["clear_pending"], offset))
        self.instructions_issued = state["instructions_issued"]
        self.operations_issued = state["operations_issued"]
        self._unit_counts = [0] * len(UNIT_VALUES)
        for unit, count in decode_pairs(state["operations_by_unit"]).items():
            self._unit_counts[UNIT_VALUES.index(unit)] = count
        self.idle_cycles = state["idle_cycles"]
        self.no_ready_cycles = state["no_ready_cycles"]
        self._slot_counts = [0] * len(self._slot_counts)
        for slot, count in decode_pairs(state["issue_by_slot"]).items():
            self._slot_counts[slot] = count
        self.exceptions_raised = state["exceptions_raised"]
