"""Periodic checkpointing and resume-on-restart for workload runs.

Workload factories build their machine, perform deterministic setup and run
it to completion inside one function call, so checkpointing cannot be bolted
on from the outside.  This module threads it *underneath* instead: while a
:class:`CheckpointPolicy` is active (see :func:`checkpoint_context`), its
construction hook (:func:`~repro.core.machine.construction_hooks`) gives
every :class:`~repro.core.machine.MMachine` that is constructed a small
per-machine runtime which

* **saves** a snapshot of the machine every ``every`` simulated cycles
  (checked from the clock drivers, so both the event kernel and the naive
  loop checkpoint at exact cycle boundaries), and
* **resumes**: at the start of the machine's first ``run*`` call, if a
  checkpoint file for this machine already exists, its state is loaded
  (after verifying the configuration matches) and the run continues from
  the checkpointed cycle instead of from zero.  The factory's setup code has
  re-executed by then -- it is deterministic, so the restored state simply
  supersedes it.

Factories may build several machines (latency harnesses do); each machine
gets an ordinal in construction order and its own checkpoint file, which is
deterministic across the original and the resumed process.

``snapshot_at`` mode (used by ``repro snapshot``) saves one snapshot when
the clock first reaches the requested cycle and ends the run by raising
:class:`SnapshotTaken`.

Cost model: a save serialises the complete machine state.  With the default
in-memory trace sink that includes the full trace — newly recorded events
are encoded incrementally (the tracer caches encoded events between saves),
but writing the document is still proportional to total state size — so
pick ``every`` as a small multiple of how many cycles of progress you can
afford to lose, not smaller.  With a disk-backed trace
(``Experiment.trace``, see ``docs/traces.md``) the snapshot carries only
the trace file path, chunk offsets and unflushed tail, so checkpoint size
stays bounded on long runs and a resumed run appends to the same trace
files; a machine whose trace is kept elsewhere is refused.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import List, Optional, Tuple

from repro.core.machine import _MACHINE_HOOKS, construction_hooks
from repro.snapshot.format import read_snapshot


class SnapshotTaken(Exception):
    """Raised to abort a run after a requested one-shot snapshot was saved
    (``repro snapshot`` does not need the rest of the workload)."""

    def __init__(self, path: str, cycle: int):
        super().__init__(f"snapshot saved to {path} at cycle {cycle}")
        self.path = path
        self.cycle = cycle


class CheckpointPolicy:
    """What to checkpoint, where, and how often."""

    def __init__(
        self,
        directory: str,
        every: Optional[int] = None,
        snapshot_at: Optional[int] = None,
    ):
        if every is not None and every <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.directory = directory
        self.every = every
        self.snapshot_at = snapshot_at
        self._next_ordinal = 0
        self._snapshot_done = False
        #: ``(ordinal, cycle)`` log of saves, for tests and runner logging.
        self.saves: List[Tuple[int, int]] = []
        #: ``(ordinal, cycle)`` log of resumes.
        self.resumes: List[Tuple[int, int]] = []

    def path_for(self, ordinal: int) -> str:
        return os.path.join(self.directory, f"machine-{ordinal}.json")

    def attach(self, machine) -> None:
        """Machine hook: give *machine* the next ordinal and its own
        :class:`CheckpointRuntime`."""
        machine._checkpoint = CheckpointRuntime(self, machine, self._next_ordinal)
        self._next_ordinal += 1


class CheckpointRuntime:
    """One machine's view of the active policy (created by ``attach``)."""

    def __init__(self, policy: CheckpointPolicy, machine, ordinal: int):
        self.policy = policy
        self.ordinal = ordinal
        self.path = policy.path_for(ordinal)
        self._next_due: Optional[int] = None
        self._resume_checked = False

    # -- resume ------------------------------------------------------------------

    def on_run_start(self, machine) -> None:
        """Called at the start of every public ``run*`` call; on the first
        one, load an existing checkpoint for this machine if there is one."""
        if self._resume_checked:
            return
        self._resume_checked = True
        if os.path.exists(self.path):
            document = read_snapshot(self.path)
            machine.restore_snapshot(document)
            self.policy.resumes.append((self.ordinal, machine.cycle))
        if self.policy.every is not None:
            self._next_due = machine.cycle + self.policy.every

    # -- periodic saves ----------------------------------------------------------

    def on_cycle(self, machine) -> None:
        """Called by the clock drivers after every cycle advance (including
        the event kernel's frozen-span jumps)."""
        cycle = machine.cycle
        policy = self.policy
        if (
            policy.snapshot_at is not None
            and not policy._snapshot_done
            and cycle >= policy.snapshot_at
        ):
            policy._snapshot_done = True
            machine.save_snapshot(self.path)
            policy.saves.append((self.ordinal, cycle))
            raise SnapshotTaken(self.path, cycle)
        if self._next_due is not None and cycle >= self._next_due:
            machine.save_snapshot(self.path)
            policy.saves.append((self.ordinal, cycle))
            self._next_due = cycle + policy.every


@contextmanager
def checkpoint_context(
    directory: str,
    every: Optional[int] = None,
    snapshot_at: Optional[int] = None,
):
    """Attach a :class:`CheckpointPolicy` to every machine constructed
    inside the ``with`` block, through
    :func:`~repro.core.machine.construction_hooks`; yields the policy."""
    if any(isinstance(getattr(hook, "__self__", None), CheckpointPolicy)
           for hook in _MACHINE_HOOKS):
        raise RuntimeError("a checkpoint policy is already active")
    policy = CheckpointPolicy(directory, every=every, snapshot_at=snapshot_at)
    with construction_hooks(machine_hook=policy.attach):
        yield policy
