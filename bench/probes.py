"""Span recording and the outside-in probes that time each simulator layer.

Nothing here changes the simulator.  A :class:`Probe` is handed to
``repro.core.machine.construction_hooks`` (or ``Experiment.builder().probe``)
and, on every machine built while it is active,

* marks machine construction (config hook to machine hook) as
  ``machine.build`` and everything from then until the machine's first
  ``run*`` call as ``workloads.load``;
* wraps the machine's ``run*`` methods as ``scheduler`` and keeps the
  simulated cycles, node-ticks and issued instructions they advance;
* in detailed mode, also wraps the methods through which each layer is
  entered on this machine's own instances (``node.tick``,
  ``cluster.issue``, ``memory.tick``, ``tracer.record``, ...);
* otherwise lets the recorder measure the host's speed
  (:meth:`Recorder.calibrate`) between the first node's ticks whenever a
  measurement is due.

Spans nest on one stack, so a layer's self time is its span time minus the
time its child spans cover.  Spans are aggregated per (name, parent) as
count, inclusive seconds and self seconds; raw spans are kept only for the
coarse phases in :data:`COARSE_SPANS`.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import repro.cluster.dispatch
import repro.sweep.runner

#: Phases whose individual spans are kept (everything else is aggregated).
COARSE_SPANS = frozenset({
    "unit", "machine.build", "workloads.load", "scheduler",
    "workloads.verify", "snapshot.save", "snapshot.restore", "sweep.run",
})

#: The machine's public clock drivers.
RUN_METHODS = ("run", "run_until", "run_until_quiescent", "run_until_user_done")

#: Iterations of one pass of the reference loop: about 3 ms of host time.
REFERENCE_ITERATIONS = 20_000

#: Host seconds between two reference passes inside a calibrated unit.
CALIBRATE_EVERY_S = 0.1

Totals = Dict[Tuple[str, str], List[float]]


def reference_pass() -> float:
    """Host seconds of one pass of a fixed piece of interpreter work that
    shares no code with the simulator: the yardstick of the host's speed."""
    start = time.perf_counter()
    total, table = 0, {}
    for index in range(REFERENCE_ITERATIONS):
        total += index * index % 7
        table[index & 1023] = total
    return time.perf_counter() - start


class Recorder:
    """A stack of open spans plus per-(name, parent) totals, and the
    reference passes taken between them.

    The host this benchmark runs on changes speed by up to 2x within a
    second, because other tenants share its cores.  A calibrated recorder
    therefore runs a reference pass at span boundaries whenever
    :data:`CALIBRATE_EVERY_S` has passed since the last one, so that every
    stretch of a unit can be divided by the host speed measured next to it.
    """

    def __init__(self, root: str = "process") -> None:
        self._stack: List[list] = [[root, 0.0, time.perf_counter()]]
        #: ``(name, parent) -> [count, inclusive_s, self_s]``.
        self.totals: Totals = {}
        #: Raw coarse spans: ``[name, parent, start_s, end_s]``.
        self.raw: List[list] = []
        #: Reference passes as ``(start_s, end_s)``, in time order.
        self.calibrations: List[Tuple[float, float]] = []
        #: Whether span boundaries take a reference pass when one is due.
        self.calibrating = False

    @property
    def depth(self) -> int:
        return len(self._stack)

    @property
    def top(self) -> str:
        return self._stack[-1][0]

    def calibrate(self) -> None:
        """Run one reference pass now and keep when it ran."""
        start = time.perf_counter()
        reference_pass()
        self.calibrations.append((start, time.perf_counter()))

    def calibrate_if_due(self) -> None:
        if time.perf_counter() - self.calibrations[-1][1] >= CALIBRATE_EVERY_S:
            self.calibrate()

    def enter(self, name: str) -> None:
        if self.calibrating:
            self.calibrate_if_due()
        self._stack.append([name, 0.0, time.perf_counter()])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        end = time.perf_counter()
        if self.calibrating:
            self.calibrate_if_due()
        name, child_time, start = self._stack.pop()
        duration = end - start
        parent = self._stack[-1]
        parent[1] += duration
        key = (name, parent[0])
        entry = self.totals.get(key)
        if entry is None:
            entry = self.totals[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_time
        if name in COARSE_SPANS:
            self.raw.append([name, parent[0], start, end])
        return duration

    def close_to(self, depth: int) -> None:
        """Close every span opened above *depth* (spans a failure left open)."""
        while len(self._stack) > depth:
            self.exit()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        depth = self.depth
        self.enter(name)
        try:
            yield
        finally:
            self.close_to(depth + 1)
            self.exit()

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as span *name* (instance-level:
        the class and every other instance are untouched)."""
        inner = getattr(owner, attr)
        enter, leave = self.enter, self.exit

        def timed(*args, **kwargs):
            enter(name)
            try:
                return inner(*args, **kwargs)
            finally:
                leave()

        setattr(owner, attr, timed)

    # -- queries -------------------------------------------------------------

    def inclusive(self, name: str) -> float:
        return sum(entry[1] for key, entry in self.totals.items() if key[0] == name)

    def self_time(self, name: str) -> float:
        return sum(entry[2] for key, entry in self.totals.items() if key[0] == name)


class MachineProbe:
    """What one machine did inside its ``run*`` calls."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.cycles = 0
        self.node_ticks = 0
        self.issued = 0
        self.snapshot_bytes = 0
        self._base = (0, 0, 0)

    def _counters(self) -> Tuple[int, int, int]:
        machine = self.machine
        ticks = machine.kernel.node_ticks if machine.kernel is not None else 0
        issued = sum(
            cluster.instructions_issued for node in machine.nodes for cluster in node.clusters
        )
        return machine.cycle, ticks, issued

    def rebase(self) -> None:
        """Start counting from the machine's current state (a run begins, or
        a snapshot restore just replaced the clock and the kernel)."""
        self._base = self._counters()

    def settle(self) -> None:
        cycle, ticks, issued = self._counters()
        self.cycles += cycle - self._base[0]
        self.node_ticks += ticks - self._base[1]
        self.issued += issued - self._base[2]
        self._base = (cycle, ticks, issued)


class Probe:
    """Construction hooks plus per-machine instrumentation for one unit."""

    def __init__(self, recorder: Recorder, detailed: bool) -> None:
        self.recorder = recorder
        self.detailed = detailed
        self.machines: List[MachineProbe] = []

    # -- construction hooks ----------------------------------------------------

    def config_hook(self, config) -> None:
        self.recorder.enter("machine.build")

    def machine_hook(self, machine) -> None:
        recorder = self.recorder
        if recorder.top == "machine.build":
            recorder.exit()
        self._close_loading()
        state = MachineProbe(machine)
        self.machines.append(state)
        self._instrument(machine, state)
        recorder.enter("workloads.load")

    def _close_loading(self) -> None:
        recorder = self.recorder
        while recorder.top == "workloads.load":
            recorder.exit()

    @contextmanager
    def patched_modules(self) -> Iterator[None]:
        """In detailed mode, time the module-level entry points the layers
        call by module attribute (dispatch compilation, sweep runs)."""
        if not self.detailed:
            yield
            return
        patches = ((repro.cluster.dispatch, "compile_program", "cluster.compile"),
                   (repro.sweep.runner, "execute_run", "sweep.run"))
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        for module, attr, name in patches:
            self.recorder.wrap(module, attr, name)
        try:
            yield
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)

    # -- instrumentation -------------------------------------------------------

    def _instrument(self, machine, state: MachineProbe) -> None:
        recorder = self.recorder
        for attr in RUN_METHODS:
            self._wrap_run(machine, attr, state)
        self._wrap_restore(machine, state)
        if not self.detailed:
            self._calibrate_between_ticks(machine.nodes[0])
            return
        self._wrap_save(machine, state)
        recorder.wrap(machine.mesh, "tick", "network.mesh")
        recorder.wrap(machine.mesh, "inject", "network.mesh")
        recorder.wrap(machine.tracer, "record", "trace.record")
        recorder.wrap(machine.tracer, "flush", "trace.flush")
        for node in machine.nodes:
            recorder.wrap(node, "tick", "node.tick")
            recorder.wrap(node.cswitch, "deliver", "switches.deliver")
            recorder.wrap(node.memory, "tick", "memory.tick")
            recorder.wrap(node.sdram, "read_word", "memory.sdram")
            recorder.wrap(node.sdram, "write_word", "memory.sdram")
            recorder.wrap(node.net, "tick", "network.ni")
            for cluster in node.clusters:
                recorder.wrap(cluster, "issue", "cluster.issue")
                recorder.wrap(cluster, "apply_writebacks", "cluster.writeback")
            for handler in node.native_handlers:
                recorder.wrap(handler, "tick", "runtime.handler")

    def _calibrate_between_ticks(self, node) -> None:
        """Let the recorder take a reference pass before any tick of *node*
        when one is due, so that long runs are calibrated inside too."""
        inner = node.tick
        recorder = self.recorder

        def tick(cycle):
            recorder.calibrate_if_due()
            return inner(cycle)

        node.tick = tick

    def _wrap_run(self, machine, attr: str, state: MachineProbe) -> None:
        inner = getattr(machine, attr)
        recorder = self.recorder

        def run(*args, **kwargs):
            self._close_loading()
            state.rebase()
            recorder.enter("scheduler")
            try:
                return inner(*args, **kwargs)
            finally:
                recorder.exit()
                state.settle()

        setattr(machine, attr, run)

    def _wrap_restore(self, machine, state: MachineProbe) -> None:
        inner = machine.restore_snapshot
        recorder = self.recorder

        def restore_snapshot(document):
            state.settle()
            recorder.enter("snapshot.restore")
            try:
                return inner(document)
            finally:
                recorder.exit()
                state.rebase()

        machine.restore_snapshot = restore_snapshot

    def _wrap_save(self, machine, state: MachineProbe) -> None:
        inner = machine.save_snapshot
        recorder = self.recorder

        def save_snapshot(path):
            recorder.enter("snapshot.save")
            try:
                written = inner(path)
            finally:
                recorder.exit()
            state.snapshot_bytes += os.path.getsize(written)
            return written

        machine.save_snapshot = save_snapshot
