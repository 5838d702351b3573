"""The clock drivers: the naive reference loop and the event kernel.

:class:`~repro.core.machine.MMachine` advances its clock through one
:class:`ClockDriver`, chosen once from ``MachineConfig.sim.kernel`` (see
:data:`DRIVERS`) and held as ``machine.kernel``.  Both drivers produce
identical cycle counts, statistics and traces:

* :class:`NaiveKernel` (``"naive"``) is the reference.  It ticks the mesh
  and every node on every cycle, so a run costs ``O(cycles x nodes)`` host
  time, and it decides quiescence by asking every node.
* :class:`SimulationKernel` (``"event"``, the default) makes the same
  simulation cost ``O(work)``:

  * **Activity ledger.**  Every node is either *awake* (ticked each cycle,
    exactly like the naive loop) or *asleep*.  A node is put to sleep only
    when a real tick proves there is nothing it can do: it issued nothing,
    no cluster has a ready instruction, and no internal machinery (switch
    transfers, writebacks, memory pipeline, event formatting, native
    handlers, retransmissions) has work due on the next cycle.
  * **Scheduled wakeups.**  A sleeping node with *future-dated* internal
    work (a memory response completing at cycle ``t``, a handler busy until
    ``t``, a NACK retransmission backed off until ``t``, ...) declares the
    earliest such cycle through the
    :class:`~repro.core.component.SimComponent` protocol and is woken
    exactly then.  Mesh deliveries -- the only way one node can affect
    another -- wake the destination node via the
    :class:`~repro.core.component.MeshObserver` hook.
  * **Cycle skipping.**  When every node is asleep, the clock jumps straight
    to the next scheduled wakeup or mesh delivery instead of stepping one
    cycle at a time.

Equivalence with the naive loop is bit-exact, including statistics: the
naive loop's issue stage accrues ``idle_cycles`` / ``no_ready_cycles`` /
per-thread stall counters / I-cache fetch counts on every blocked cycle.
Because a sleeping node's state is frozen, those per-cycle increments are a
pure function of the state at sleep time; the kernel captures that *idle
profile* once (:meth:`~repro.node.node.Node.idle_issue_profile`) and
applies it in bulk (:meth:`~repro.node.node.Node.account_idle_cycles`)
when the node is woken or when statistics are read.  The differential test
``tests/integration/test_kernel_equivalence.py`` pins this down for every
workload class.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Type

#: Consecutive quiet cycles after which ``run_until_quiescent`` and
#: ``run_until_user_done`` return, in both clock drivers.
SETTLE_CYCLES = 4


class ClockDriver:
    """The interface ``MMachine`` drives its clock through.

    ``step`` and the run methods advance ``machine.cycle``; the run methods
    return the cycle reached.  ``run_until_settled`` serves both
    ``run_until_quiescent`` (``users=False``) and ``run_until_user_done``
    (``users=True``): it returns once nothing has issued and nothing has
    been in flight for :data:`SETTLE_CYCLES` consecutive cycles, and with
    *users* every user H-Thread must have finished too.

    An attached checkpoint policy acts on the clock through
    :meth:`_on_cycle`.  ``step``, ``run`` and ``run_until`` call it on every
    cycle they reach; ``run_until_settled`` only on a cycle whose count of
    quiet cycles is 0.  No snapshot records that count, so a run resumed from
    a cycle inside a settle window would count the window again from 0 and
    end later than the run it resumes.
    """

    def __init__(self, machine):
        self.machine = machine
        self.mesh = machine.mesh
        self.nodes = machine.nodes
        #: Node ticks performed (a diagnostic; no architectural effect).
        self.node_ticks = 0

    def step(self) -> int:
        """Advance one cycle; returns the instructions issued in it."""
        raise NotImplementedError

    def run(self, max_cycles: int) -> int:
        raise NotImplementedError

    def run_until(self, predicate: Callable, max_cycles: int) -> int:
        raise NotImplementedError

    def run_until_settled(self, max_cycles: int, users: bool) -> int:
        raise NotImplementedError

    def sync(self) -> None:
        """Bring lazily kept statistics up to the current cycle, so that they
        read exactly as if every node had been ticked every cycle."""

    def _on_cycle(self) -> None:
        """Let an attached checkpoint policy act on the current cycle."""
        machine = self.machine
        if machine._checkpoint is not None:
            machine._checkpoint.on_cycle(machine)

    def _condition_timeout(self, max_cycles: int) -> TimeoutError:
        return TimeoutError(
            f"condition not reached within {max_cycles} cycles (cycle {self.machine.cycle})"
        )

    @staticmethod
    def _settle_timeout(max_cycles: int, users: bool) -> TimeoutError:
        if users:
            return TimeoutError(f"user threads did not finish within {max_cycles} cycles")
        return TimeoutError(f"machine did not quiesce within {max_cycles} cycles")


class NaiveKernel(ClockDriver):
    """The reference clock driver: the mesh and every node tick on every
    cycle, so ``node_ticks`` is always cycles run times nodes."""

    def step(self) -> int:
        issued = self._step()
        self._on_cycle()
        return issued

    def _step(self) -> int:
        """Advance one cycle, without the checkpoint hook."""
        cycle = self.machine.cycle
        self.mesh.tick(cycle)
        issued = 0
        for node in self.nodes:
            issued += node.tick(cycle)
        self.node_ticks += len(self.nodes)
        self.machine.cycle = cycle + 1
        return issued

    def run(self, max_cycles: int) -> int:
        machine = self.machine
        limit = machine.cycle + max_cycles
        while machine.cycle < limit:
            self.step()
        return machine.cycle

    def run_until(self, predicate: Callable, max_cycles: int) -> int:
        machine = self.machine
        limit = machine.cycle + max_cycles
        while machine.cycle < limit:
            self.step()
            if predicate(machine):
                return machine.cycle
        raise self._condition_timeout(max_cycles)

    def _settled(self, issued: int, users: bool) -> bool:
        """The reference settle predicate for the cycle just stepped: with
        *users*, every user H-Thread has finished; nothing issued or is in
        flight; and no node's issue stage can make progress next cycle.  The
        last clause matters under the HEP barrel, where a ready thread can
        wait for its turn longer than the settle window."""
        if users and not all(node.user_threads_finished for node in self.nodes):
            return False
        return not (
            issued > 0
            or self.mesh.busy
            or any(node.has_pending_work or node.idle_issue_profile() is None
                   for node in self.nodes)
        )

    def run_until_settled(self, max_cycles: int, users: bool) -> int:
        machine = self.machine
        limit = machine.cycle + max_cycles
        quiet = 0
        while machine.cycle < limit:
            quiet = quiet + 1 if self._settled(self._step(), users) else 0
            if quiet == 0:
                self._on_cycle()
            elif quiet >= SETTLE_CYCLES:
                return machine.cycle
        raise self._settle_timeout(max_cycles, users)


class SimulationKernel(ClockDriver):
    """The event kernel: activity-tracked and cycle-skipping."""

    def __init__(self, machine):
        super().__init__(machine)
        num_nodes = len(self.nodes)

        #: Per-node sleep flag; every node starts awake.
        self._asleep: List[bool] = [False] * num_nodes
        self._num_asleep = 0
        #: First naive-loop tick a sleeping node has not yet been charged for.
        self._idle_from: List[int] = [0] * num_nodes
        #: Frozen issue-stage profile captured when the node went to sleep.
        self._idle_profile: List[Optional[list]] = [None] * num_nodes
        #: ``has_pending_work`` / ``user_threads_finished`` frozen at sleep
        #: time (a sleeping node's state cannot change, so these are exact).
        self._pending_flag: List[bool] = [False] * num_nodes
        self._users_flag: List[bool] = [True] * num_nodes
        #: Count of sleeping nodes with pending work / unfinished users, so
        #: the run loops' busy checks cost O(awake) instead of O(nodes).
        self._sleeping_pending = 0
        self._sleeping_users_unfinished = 0
        #: Min-heap of scheduled wakeups, encoded as single ints
        #: ``(cycle << shift) | node_id`` so heap operations compare machine
        #: integers instead of allocating tuples.  The encoding preserves the
        #: (cycle, node_id) lexicographic order of the old tuple heap.
        #: Entries are never removed eagerly; waking an already-awake node is
        #: a no-op and waking a node early just costs one provably-idle tick.
        self._wakeup_shift = max(num_nodes - 1, 1).bit_length()
        self._node_mask = (1 << self._wakeup_shift) - 1
        self._wakeups: List[int] = []
        #: Earliest queued wakeup cycle per node (-1 when none is known), so
        #: re-sleeping with an unchanged next event skips the duplicate push.
        self._queued_wakeup: List[int] = [-1] * num_nodes

        self.mesh.attach_observer(self)

        # Diagnostics (reported by benchmarks; no architectural effect).
        self.cycles_skipped = 0

    # ------------------------------------------------------------- mesh observer

    def message_delivered(self, node_id: int, cycle: int) -> None:
        """MeshObserver hook: any delivery (data, ACK or NACK) can unblock
        the destination node."""
        if self._asleep[node_id]:
            self._wake(node_id, cycle)

    # ------------------------------------------------------------ sleep bookkeeping

    def _flush_idle(self, node_id: int, upto_cycle: int) -> None:
        """Charge a sleeping node the per-cycle issue-stage statistics the
        naive loop would have accrued for ticks ``[idle_from, upto_cycle)``."""
        start = self._idle_from[node_id]
        delta = upto_cycle - start
        if delta <= 0:
            return
        self.nodes[node_id].account_idle_cycles(self._idle_profile[node_id], start, delta)
        self._idle_from[node_id] = upto_cycle
        self.cycles_skipped += delta

    def _wake(self, node_id: int, cycle: int) -> None:
        self._flush_idle(node_id, cycle)
        self._asleep[node_id] = False
        self._num_asleep -= 1
        self._idle_profile[node_id] = None
        if self._pending_flag[node_id]:
            self._pending_flag[node_id] = False
            self._sleeping_pending -= 1
        if not self._users_flag[node_id]:
            self._users_flag[node_id] = True
            self._sleeping_users_unfinished -= 1

    def _maybe_sleep(self, node, cycle: int) -> None:
        """Called after a tick that issued nothing: put the node to sleep if
        the tick proved it has nothing to do before its next known event."""
        next_event = node.next_event_cycle(cycle)
        if next_event is not None and next_event <= cycle + 1:
            return  # work is due immediately; keep ticking
        profile = node.idle_issue_profile()
        if profile is None:
            return  # some cluster can issue (or halt a thread) next cycle
        node_id = node.node_id
        self._asleep[node_id] = True
        self._num_asleep += 1
        self._idle_from[node_id] = cycle + 1
        self._idle_profile[node_id] = profile
        pending = node.has_pending_work
        self._pending_flag[node_id] = pending
        if pending:
            self._sleeping_pending += 1
        users_finished = node.user_threads_finished
        self._users_flag[node_id] = users_finished
        if not users_finished:
            self._sleeping_users_unfinished += 1
        if next_event is not None:
            queued = self._queued_wakeup[node_id]
            if queued < 0 or next_event < queued:
                heapq.heappush(
                    self._wakeups, (next_event << self._wakeup_shift) | node_id
                )
                self._queued_wakeup[node_id] = next_event

    def wake_all(self) -> None:
        """Reactivate every node (used at the start of every public run so
        that loader/test mutations made while nodes slept take effect)."""
        if self._num_asleep == 0:
            return
        cycle = self.machine.cycle
        for node_id in range(len(self.nodes)):
            if self._asleep[node_id]:
                self._wake(node_id, cycle)

    def sync(self) -> None:
        """Flush the lazy idle accounting of all sleeping nodes so external
        observers (``machine.stats()``, tests poking at clusters) see exactly
        the counters the naive loop would have produced.  Idempotent; leaves
        nodes asleep."""
        cycle = self.machine.cycle
        for node_id in range(len(self.nodes)):
            if self._asleep[node_id]:
                self._flush_idle(node_id, cycle)

    # ------------------------------------------------------------------ stepping

    def step(self) -> int:
        """Public single-step: equivalent to the naive ``step``.

        External code may have mutated the machine (loaded threads, written
        memory) since the last step, so every node is conservatively woken;
        run loops use :meth:`_step` directly and rely on wakeups instead."""
        self.wake_all()
        issued = self._step()
        self._on_cycle()
        return issued

    def _step(self) -> int:
        """Advance one cycle, ticking only awake nodes, without the
        checkpoint hook."""
        cycle = self.machine.cycle
        wakeups = self._wakeups
        if wakeups:
            shift = self._wakeup_shift
            mask = self._node_mask
            queued = self._queued_wakeup
            while wakeups and (wakeups[0] >> shift) <= cycle:
                entry = heapq.heappop(wakeups)
                node_id = entry & mask
                if queued[node_id] == entry >> shift:
                    queued[node_id] = -1
                if self._asleep[node_id]:
                    self._wake(node_id, cycle)
        mesh = self.mesh
        if mesh.busy:
            # Deliveries wake their destination nodes via message_delivered.
            mesh.tick(cycle)
        issued = 0
        asleep = self._asleep
        for node in self.nodes:
            if asleep[node.node_id]:
                continue
            node_issued = node.tick(cycle)
            self.node_ticks += 1
            issued += node_issued
            if node_issued == 0:
                self._maybe_sleep(node, cycle)
        self.machine.cycle = cycle + 1
        return issued

    # ----------------------------------------------------------- frozen-span logic

    def _frozen_until(self, limit: int) -> Optional[int]:
        """When every node is asleep and nothing is due at the current
        cycle, the machine state is frozen until the next scheduled wakeup
        or mesh delivery: the cycle that span ends at, capped at *limit*.
        None when the machine is not frozen."""
        if self._num_asleep != len(self.nodes):
            return None
        next_cycle = (self._wakeups[0] >> self._wakeup_shift) if self._wakeups else None
        delivery = self.mesh.next_delivery_cycle()
        if delivery is not None and (next_cycle is None or delivery < next_cycle):
            next_cycle = delivery
        if next_cycle is None:
            return limit
        return min(next_cycle, limit) if next_cycle > self.machine.cycle else None

    def _machine_busy(self, issued: int) -> bool:
        """The naive loop's busy clauses, with sleeping nodes served from
        their frozen flags (a sleeping node's issue stage cannot make
        progress: it went to sleep with an idle profile)."""
        if issued > 0 or self.mesh.busy or self._sleeping_pending > 0:
            return True
        asleep = self._asleep
        return any(node.has_pending_work or node.idle_issue_profile() is None
                   for node in self.nodes if not asleep[node.node_id])

    def _users_done(self) -> bool:
        if self._sleeping_users_unfinished > 0:
            return False
        asleep = self._asleep
        return all(node.user_threads_finished for node in self.nodes
                   if not asleep[node.node_id])

    def _settled(self, issued: int, users: bool) -> bool:
        """The naive loop's settle predicate for the cycle just stepped."""
        return (not users or self._users_done()) and not self._machine_busy(issued)

    # ------------------------------------------------------------------ run loops
    #
    # Each loop mirrors the naive driver's loop cycle for cycle.  In a frozen
    # span the loop's predicates are constant, so the outcome of stepping
    # through the span can be computed in closed form -- the clock jumps
    # instead.

    def run(self, max_cycles: int) -> int:
        machine = self.machine
        self.wake_all()
        limit = machine.cycle + max_cycles
        while machine.cycle < limit:
            horizon = self._frozen_until(limit)
            if horizon is None:
                self._step()
            else:
                machine.cycle = horizon
            self._on_cycle()
        self.sync()
        return machine.cycle

    def run_until(self, predicate: Callable, max_cycles: int) -> int:
        machine = self.machine
        self.wake_all()
        limit = machine.cycle + max_cycles
        while machine.cycle < limit:
            self._step()
            self._on_cycle()
            if self._num_asleep:
                # Settle lazy idle accounting so predicates that read node
                # statistics (not just architectural state) match the naive
                # loop cycle for cycle.
                self.sync()
            if predicate(machine):
                return machine.cycle
        raise self._condition_timeout(max_cycles)

    def run_until_settled(self, max_cycles: int, users: bool) -> int:
        machine = self.machine
        self.wake_all()
        limit = machine.cycle + max_cycles
        quiet = 0
        while machine.cycle < limit:
            horizon = self._frozen_until(limit)
            if horizon is None:
                quiet = quiet + 1 if self._settled(self._step(), users) else 0
            elif not self._settled(0, users):
                quiet = 0
                machine.cycle = horizon
            elif machine.cycle + SETTLE_CYCLES - quiet <= horizon:
                # Settled for the whole span: the window closes inside it.
                machine.cycle += SETTLE_CYCLES - quiet
                quiet = SETTLE_CYCLES
            else:
                quiet += horizon - machine.cycle
                machine.cycle = horizon
            if quiet == 0:
                self._on_cycle()
            elif quiet >= SETTLE_CYCLES:
                self.sync()
                return machine.cycle
        self.sync()
        raise self._settle_timeout(max_cycles, users)

    # ---------------------------------------------------------------- diagnostics

    @property
    def awake_nodes(self) -> int:
        return len(self.nodes) - self._num_asleep

    def __repr__(self) -> str:
        return (
            f"SimulationKernel({len(self.nodes)} nodes, {self.awake_nodes} awake, "
            f"{self.cycles_skipped} node-cycles skipped)"
        )


#: The clock driver for each ``MachineConfig.sim.kernel`` value.
DRIVERS: Dict[str, Type[ClockDriver]] = {"event": SimulationKernel, "naive": NaiveKernel}
