"""The top-level M-Machine model.

:class:`MMachine` builds the mesh of nodes described by a
:class:`~repro.core.config.MachineConfig`, provides the address-space and
thread-loading API used by examples, tests and benchmarks, installs the
software runtime (Section 4.2/4.3 handlers) and drives the global clock.

The clock is advanced by one of two driver objects in
:mod:`repro.core.scheduler`, chosen once from ``MachineConfig.sim.kernel``
and held as ``machine.kernel``: the **event kernel** (default) tracks which
nodes can make progress and skips everything else, and the **naive loop**
ticks every node every cycle.  Both produce identical cycle counts and
statistics; the naive loop is retained for differential testing.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.cluster.hthread import ThreadState
from repro.core.config import MachineConfig
from repro.core.ids import IdSource
from repro.core.scheduler import DRIVERS, ClockDriver
from repro.core.stats import MachineStats
from repro.core.trace import Tracer
from repro.core.values import SnapshotError
from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.isa.registers import parse_register
from repro.memory.page_table import PAGE_SIZE_WORDS
from repro.network.gtlb import GlobalDestinationTable, GtlbEntry
from repro.network.mesh import MeshNetwork, coords_to_id, id_to_coords
from repro.node.node import Node

ProgramLike = Union[Program, str]


def _as_program(program: ProgramLike, name: str = "program") -> Program:
    if isinstance(program, Program):
        return program
    return assemble(program, name=name)


#: Construction hooks (see :func:`construction_hooks`).  Config hooks run on
#: the resolved :class:`MachineConfig` before it is validated and before any
#: component is built; machine hooks run on the fully-constructed machine.
#: Workload factories build their machines internally, so this is the one
#: way to act on machines the caller never sees being constructed: the
#: ``repro.api`` experiment builder applies config overrides, disk traces and
#: probes with it, and :func:`repro.snapshot.checkpoint.checkpoint_context`
#: attaches its policy.
_CONFIG_HOOKS: List[Callable[[MachineConfig], None]] = []
_MACHINE_HOOKS: List[Callable[["MMachine"], None]] = []


@contextmanager
def construction_hooks(
    config_hook: Optional[Callable[[MachineConfig], None]] = None,
    machine_hook: Optional[Callable[["MMachine"], None]] = None,
) -> Iterator[None]:
    """Install hooks on every :class:`MMachine` constructed in the block.

    The hook lists are **process-global and not thread-safe**: nested
    blocks compose (hooks run in installation order, which is what lets an
    experiment layer overrides on top of another context), but two threads
    constructing machines under different hook sets would see each other's
    hooks — run concurrent experiments in separate processes, as the sweep
    runner does.
    """
    if config_hook is not None:
        _CONFIG_HOOKS.append(config_hook)
    if machine_hook is not None:
        _MACHINE_HOOKS.append(machine_hook)
    try:
        yield
    finally:
        if config_hook is not None:
            _CONFIG_HOOKS.remove(config_hook)
        if machine_hook is not None:
            _MACHINE_HOOKS.remove(machine_hook)


@contextmanager
def _malformed(section: str) -> Iterator[None]:
    """Turn the errors a malformed snapshot *section* raises while it is
    read into a :class:`SnapshotError` that names the section."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as error:
        raise SnapshotError(
            f"snapshot {section} section is malformed: {type(error).__name__}: {error}"
        ) from error


class MMachine:
    """A complete M-Machine: nodes, mesh network, runtime and clock."""

    def __init__(self, config: Optional[MachineConfig] = None):
        self.config = config or MachineConfig()
        for config_hook in _CONFIG_HOOKS:
            config_hook(self.config)
        self.config.validate()
        self.tracer = Tracer(self.config.trace_enabled)
        self.gdt = GlobalDestinationTable()
        self.mesh = MeshNetwork(self.config.network)
        #: Machine-owned id allocators: request/message numbering is a pure
        #: function of this machine's execution (other machines in the same
        #: process cannot perturb it), and snapshots capture/restore it.
        self.request_ids = IdSource()
        self.message_ids = IdSource()
        shape = self.config.network.mesh_shape
        self.nodes: List[Node] = [
            Node(
                node_id=node_id,
                coords=id_to_coords(node_id, shape),
                config=self.config,
                mesh=self.mesh,
                gdt=self.gdt,
                tracer=self.tracer,
                request_ids=self.request_ids,
                message_ids=self.message_ids,
            )
            for node_id in range(self.config.num_nodes)
        ]
        self.cycle = 0
        self.runtime = None
        if self.config.runtime.shared_memory_mode != "none":
            # The handlers are compiled on the first machine that installs
            # them, not by every import of the simulator.
            from repro.runtime import install_runtime as _install  # noqa: PLC0415

            self.runtime = _install(self)
        #: The clock driver selected by ``config.sim.kernel``.
        self.kernel: ClockDriver = DRIVERS[self.config.sim.kernel](self)
        #: Per-machine checkpoint runtime, set by the machine hook of an
        #: active checkpoint policy (see :mod:`repro.snapshot.checkpoint`).
        self._checkpoint = None
        for machine_hook in _MACHINE_HOOKS:
            machine_hook(self)

    # ------------------------------------------------------------------ topology

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def node_at(self, coords: Tuple[int, int, int]) -> Node:
        return self.nodes[coords_to_id(coords, self.config.network.mesh_shape)]

    # -------------------------------------------------------------- address space

    @property
    def page_size(self) -> int:
        return PAGE_SIZE_WORDS

    def map_region(
        self,
        base_address: int,
        num_pages: int,
        start_node: Tuple[int, int, int] = (0, 0, 0),
        extent: Tuple[int, int, int] = (0, 0, 0),
        pages_per_node: int = 1,
        writable: bool = True,
        preload_ltlb: bool = True,
    ) -> GtlbEntry:
        """Map a page-group of the global virtual address space over a 3-D
        region of nodes (creates the GDT entry and the local page-table
        entries on every home node).

        ``extent`` gives the base-2 logarithms of the region's X/Y/Z sizes,
        exactly as in the GTLB entry format of Figure 8.
        """
        if base_address % self.page_size:
            raise ValueError("region base address must be page aligned")
        entry = GtlbEntry(
            base_page=base_address // self.page_size,
            page_group_length=num_pages,
            start_node=start_node,
            extent=extent,
            pages_per_node=pages_per_node,
            page_size_words=self.page_size,
        )
        self.gdt.add(entry)
        for node in self.nodes:
            pages = entry.pages_on_node(node.coords)
            for page in pages:
                node.map_page(page, writable=writable, preload_ltlb=preload_ltlb)
        return entry

    def map_on_node(
        self,
        node_id: int,
        base_address: int,
        num_pages: int = 1,
        writable: bool = True,
        preload_ltlb: bool = True,
    ) -> GtlbEntry:
        """Map a page-group entirely on one node."""
        coords = self.nodes[node_id].coords
        return self.map_region(
            base_address,
            num_pages,
            start_node=coords,
            extent=(0, 0, 0),
            pages_per_node=num_pages,
            writable=writable,
            preload_ltlb=preload_ltlb,
        )

    def home_node_of(self, address: int) -> Node:
        entry = self.gdt.lookup(address)
        if entry is None:
            raise KeyError(f"address {address:#x} is not mapped by any page-group")
        coords = entry.node_coords_of(address)
        return self.node_at(coords)

    def write_word(self, address: int, value, sync_bit: Optional[int] = None) -> None:
        """Write a word of the global address space directly (loader/test API)."""
        self.home_node_of(address).write_word(address, value, sync_bit)

    def read_word(self, address: int):
        return self.home_node_of(address).read_word(address)

    def write_block(self, address: int, values: Sequence[object]) -> None:
        for offset, value in enumerate(values):
            self.write_word(address + offset, value)

    def read_block(self, address: int, count: int) -> List[object]:
        return [self.read_word(address + offset) for offset in range(count)]

    # -------------------------------------------------------------- thread loading

    def load_hthread(
        self,
        node_id: int,
        slot: int,
        cluster: int,
        program: ProgramLike,
        registers: Optional[dict] = None,
        entry: Optional[str] = None,
        name: str = "user",
    ):
        return self.nodes[node_id].load_hthread(
            slot, cluster, _as_program(program, name), registers, entry
        )

    def load_vthread(
        self,
        node_id: int,
        slot: int,
        programs: Dict[int, ProgramLike],
        registers: Optional[Dict[int, dict]] = None,
        entries: Optional[Dict[int, str]] = None,
        name: str = "user",
    ) -> None:
        compiled = {
            cluster: _as_program(program, f"{name}-c{cluster}")
            for cluster, program in programs.items()
        }
        self.nodes[node_id].load_vthread(slot, compiled, registers, entries)

    # ---------------------------------------------------------------- register API

    def register_value(self, node_id: int, slot: int, cluster: int, register: str):
        context = self.nodes[node_id].context(slot, cluster)
        return context.registers.peek(parse_register(register))

    def register_full(self, node_id: int, slot: int, cluster: int, register: str) -> bool:
        context = self.nodes[node_id].context(slot, cluster)
        return context.registers.is_full(parse_register(register))

    def thread_halted(self, node_id: int, slot: int, cluster: int) -> bool:
        return self.nodes[node_id].context(slot, cluster).state is ThreadState.HALTED

    # ------------------------------------------------------------------- execution

    def step(self) -> int:
        """Advance the whole machine by one cycle; returns the number of
        instructions issued across all nodes."""
        return self.kernel.step()

    @contextmanager
    def _running(self) -> Iterator[ClockDriver]:
        """The frame of every ``run*`` method: the first run may resume from
        a checkpoint (which replaces the clock driver), and the tracer is
        flushed on exit, even on timeout, so a disk-backed trace is always
        complete and readable afterwards (a no-op for the in-memory sink)."""
        if self._checkpoint is not None:
            self._checkpoint.on_run_start(self)
        try:
            yield self.kernel
        finally:
            self.tracer.flush()

    def run(self, max_cycles: int) -> int:
        """Run for *max_cycles* more cycles; returns the cycle count reached.
        :meth:`run_until` stops on a predicate instead."""
        with self._running() as kernel:
            return kernel.run(max_cycles)

    def run_until(self, predicate: Callable[["MMachine"], bool], max_cycles: int = 100_000) -> int:
        """Run until *predicate* holds; raises TimeoutError if it never does."""
        with self._running() as kernel:
            return kernel.run_until(predicate, max_cycles)

    def run_until_quiescent(self, max_cycles: int = 100_000) -> int:
        """Run until nothing has issued and nothing is in flight anywhere for
        :data:`~repro.core.scheduler.SETTLE_CYCLES` consecutive cycles."""
        with self._running() as kernel:
            return kernel.run_until_settled(max_cycles, users=False)

    def run_until_user_done(self, max_cycles: int = 100_000) -> int:
        """Run until every user H-Thread has halted and the machine is
        otherwise quiescent (handlers drained, network idle)."""
        with self._running() as kernel:
            return kernel.run_until_settled(max_cycles, users=True)

    # ------------------------------------------------------------------- snapshot

    def state_dict(self) -> Dict[str, object]:
        """Capture the complete architectural state of the machine as a
        JSON-compatible structure (the machine half of the repro.snapshot
        state_dict contract).

        The event kernel's lazy idle accounting is settled first, so the
        captured statistics are exactly the naive loop's; the kernel's own
        sleep ledger is *not* captured -- every public run loop begins by
        waking all nodes, so a restored machine starting all-awake continues
        bit-exactly.
        """
        self.kernel.sync()
        return {
            "cycle": self.cycle,
            "id_counters": {
                "mem_request": self.request_ids.state(),
                "message": self.message_ids.state(),
            },
            "gdt": self.gdt.state_dict(),
            "mesh": self.mesh.state_dict(),
            "tracer": self.tracer.state_dict(),
            "nodes": [node.state_dict() for node in self.nodes],
            "coherence": (
                self.runtime.coherence.state_dict()
                if self.runtime is not None and self.runtime.coherence is not None
                else None
            ),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Load a :meth:`state_dict` into this machine (which must have been
        built from the same configuration).  Only this machine's state is
        touched -- the id allocators are machine-owned, so other machines in
        the process are unaffected."""

        cycle = state["cycle"]
        if type(cycle) is not int or cycle < 0:
            raise SnapshotError(f"snapshot cycle must be a non-negative int, got {cycle!r}")
        counters = state["id_counters"]
        self.request_ids.load_state(counters["mem_request"])
        self.message_ids.load_state(counters["message"])
        self.gdt.load_state_dict(state["gdt"])
        self.mesh.load_state_dict(state["mesh"])
        self.tracer.load_state_dict(state["tracer"])
        if len(state["nodes"]) != len(self.nodes):
            raise SnapshotError(
                f"snapshot has {len(state['nodes'])} nodes, machine has {len(self.nodes)}"
            )
        for node, node_state in zip(self.nodes, state["nodes"]):
            node.load_state_dict(node_state)
        coherence_state = state["coherence"]
        if coherence_state is not None:
            if self.runtime is None or self.runtime.coherence is None:
                raise SnapshotError(
                    "snapshot carries coherence-runtime state but this machine "
                    "has no coherence runtime installed"
                )
            self.runtime.coherence.load_state_dict(coherence_state)
        self.cycle = cycle
        # Rebuild the clock driver: all nodes awake, no stale wakeups.
        self.kernel = type(self.kernel)(self)

    def snapshot_document(self) -> Dict[str, object]:
        """The machine as a self-describing snapshot document (schema
        version + full config + state)."""
        from repro.snapshot.format import make_document  # noqa: PLC0415

        return make_document(self.config, self.state_dict())

    def save_snapshot(self, path: str) -> str:
        """Write a snapshot of the machine to *path* (gzip when the path
        ends in ``.gz``); returns the path.  The machine can keep running
        afterwards -- taking a snapshot does not perturb the simulation."""
        from repro.snapshot.format import write_snapshot  # noqa: PLC0415

        return write_snapshot(self.snapshot_document(), path)

    def restore_snapshot(self, document: Dict[str, object]) -> None:
        """Load a snapshot *document* into this machine, refusing with
        :class:`~repro.snapshot.format.ConfigMismatchError` when the
        machine's configuration or trace location differs from the
        snapshot's and with :class:`SnapshotError` when the machine state is
        malformed."""
        from repro.snapshot import format as snapshot_format  # noqa: PLC0415

        snapshot_format.validate_document(document)
        snapshot_format.check_config_matches(self.config, document)
        snapshot_format.check_trace_matches(self.tracer.sink, document)
        with _malformed("machine"):
            self.load_state_dict(document["machine"])

    @classmethod
    def from_snapshot(cls, source) -> "MMachine":
        """Rebuild a machine from a snapshot: *source* is a path or an
        already-loaded document.  The machine is constructed from the
        embedded configuration, then the state is loaded into it; a
        malformed configuration or state raises :class:`SnapshotError`."""
        from repro.snapshot.format import (  # noqa: PLC0415
            config_from_dict,
            read_snapshot,
            validate_document,
        )

        if isinstance(source, dict):
            document = source
            validate_document(document)
        else:
            document = read_snapshot(os.fspath(source))
        with _malformed("config"):
            config = config_from_dict(document["config"])
        machine = cls(config)
        with _malformed("machine"):
            machine.load_state_dict(document["machine"])
        return machine

    # ------------------------------------------------------------------ statistics

    def stats(self) -> MachineStats:
        # Settle the event kernel's lazy idle accounting so sleeping nodes
        # report exactly the counters the naive loop would have.
        self.kernel.sync()
        return MachineStats(cycles=self.cycle, node_stats=[node.stats() for node in self.nodes])

    def __repr__(self) -> str:
        shape = self.config.network.mesh_shape
        return f"MMachine({self.num_nodes} nodes, mesh {shape}, cycle {self.cycle})"
