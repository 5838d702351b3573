"""The four benchmark workloads, each split into checked units of fixed work.

A *unit* builds its machines, loads them, runs them and checks every output;
a benchmark run repeats one workload's unit until its time budget is spent.
Every unit of a run has the same inputs, derived from ``--seed`` by
:meth:`Workload.prepare` before any unit is timed.  The modelled caches,
TLBs and directories start empty (cold) in every unit, because every unit
builds fresh machines.

``busy-8x8`` and ``paper-figures`` have fixed inputs; ``--seed`` drives
the address streams of ``remote-gather-8x8`` and ``coherent-share-4x4``,
which are composed here from the public ``MMachine`` API.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import BlockStatus, Experiment, MachineConfig, MMachine, assemble, workload
from repro.core.machine import construction_hooks
from repro.memory.page_table import BLOCK_SIZE_WORDS, block_base
from repro.report import Manifest, failures, render_report
from repro.sweep import SweepRunner, get_spec

from bench.probes import Probe, Recorder

#: Base of every region the composed workloads map (page aligned).
REGION = 0x40000
#: Cycle budget of one composed run: about ten times what it needs, so a
#: timeout means the simulation wedged, and a wedged unit fails well within
#: the worker's time limit.
MAX_CYCLES = 30_000


@dataclass
class UnitContext:
    """What a unit needs from the benchmark around it."""

    recorder: Recorder
    probe: Probe
    #: A fresh, empty directory this unit may write to.
    workdir: str
    #: Added to every expected value: nonzero only when a test injects a
    #: wrong expectation to check that failures are reported.
    expect_offset: int = 0


@dataclass
class UnitOutcome:
    """The checked result of one unit."""

    ops: int
    failures: List[str] = field(default_factory=list)
    #: JSON-able simulated outputs; equal inputs must give equal digests.
    digest: object = None
    #: Host seconds of each sweep run, from the manifest (paper-figures).
    run_walls: List[float] = field(default_factory=list)
    #: Paper bands outside their accepted range (paper-figures).
    bands_failed: int = 0
    #: Sweep wall time minus the sum of its runs' wall times (paper-figures).
    sweep_overhead_s: float = 0.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: input preparation plus its unit."""

    prepare: Callable[..., object]
    unit: Callable[[UnitContext, object], UnitOutcome]
    #: Parameters of a benchmark-sized unit and of a test-sized one.
    full: Dict[str, object]
    tiny: Dict[str, object]


# ---------------------------------------------------------------------------
# busy-8x8: cluster issue and the Node.tick loop only
# ---------------------------------------------------------------------------


def _busy_checksum(iterations: int) -> int:
    """The i7 value every cluster of busy-stencil must end with."""
    a, b, c, checksum = 3, 5, 7, 0
    for _ in range(iterations):
        smoothed = (a + b + c) >> 1
        a, b, c = b, c, smoothed
        checksum += smoothed
    return checksum


def _busy_prepare(seed: int, iterations: int, mesh: Sequence[int]) -> dict:
    return {"iterations": iterations, "mesh": tuple(mesh)}


def _busy_unit(ctx: UnitContext, inputs: dict) -> UnitOutcome:
    probe = ctx.probe
    builder = (
        Experiment.builder()
        .workload("busy-stencil", iterations=inputs["iterations"])
        .mesh(*inputs["mesh"])
        .probe(probe.machine_hook)
    )
    with construction_hooks(config_hook=probe.config_hook), builder.build() as experiment:
        result = experiment.run()
    with ctx.recorder.span("workloads.verify"):
        expected = _busy_checksum(inputs["iterations"]) + ctx.expect_offset
        machine = probe.machines[0].machine
        clusters = machine.config.node.num_clusters
        wrong = sum(
            1
            for node in range(machine.num_nodes)
            for cluster in range(clusters)
            if machine.register_value(node, 0, cluster, "i7") != expected
        )
        problems = []
        if wrong or not result.verified:
            problems.append(f"{wrong} clusters did not end with checksum {expected}")
    return UnitOutcome(ops=1, failures=problems, digest=result.metrics)


# ---------------------------------------------------------------------------
# remote-gather-8x8: dependent remote loads and remote stores (Section 4.2)
# ---------------------------------------------------------------------------

#: Every node walks its own chain of two-word elements scattered over the
#: other nodes: three dependent remote loads (word 0 holds the next element's
#: address), then a remote store of the group number into word 1 of the
#: element reached.  Only that node ever touches its elements.
GATHER_PROGRAM = """
        mov i3, #0
        mov i5, #0
loop:   ld i4, i4
        add i5, i5, i4
        ld i4, i4
        add i5, i5, i4
        ld i4, i4
        add i5, i5, i4
        add i3, i3, #1
        st i3, i4, #1
        lt i6, i3, #{groups}
        br i6, loop
        halt
"""


def _gather_prepare(seed: int, groups: int, mesh: Sequence[int]) -> dict:
    """Seed-chosen element homes; element addresses per node, in walk order."""
    rng = random.Random(seed)
    num_nodes = mesh[0] * mesh[1] * mesh[2]
    page = MachineConfig().memory.page_size_words
    homes = [
        [rng.choice([h for h in range(num_nodes) if h != node]) for _ in range(3 * groups + 1)]
        for node in range(num_nodes)
    ]
    used = [0] * num_nodes
    slots = []
    for chain in homes:
        node_slots = []
        for home in chain:
            node_slots.append(used[home])
            used[home] += 1
        slots.append(node_slots)
    pages = max(1, -(-2 * max(used) // page))
    chains = [
        [REGION + home * pages * page + 2 * slot for home, slot in zip(chain, node_slots)]
        for chain, node_slots in zip(homes, slots)
    ]
    return {"groups": groups, "mesh": tuple(mesh), "pages": pages, "chains": chains}


def _gather_unit(ctx: UnitContext, inputs: dict) -> UnitOutcome:
    groups, mesh, chains = inputs["groups"], inputs["mesh"], inputs["chains"]
    probe = ctx.probe
    with construction_hooks(probe.config_hook, probe.machine_hook):
        config = MachineConfig.small(*mesh)
        config.runtime.shared_memory_mode = "remote"
        machine = MMachine(config)
        span = inputs["pages"] * machine.page_size
        for home in range(machine.num_nodes):
            machine.map_on_node(home, REGION + home * span, num_pages=inputs["pages"])
        for chain in chains:
            for element, successor in zip(chain, chain[1:]):
                machine.write_word(element, successor)
        program = assemble(GATHER_PROGRAM.format(groups=groups), name="remote-gather")
        for node, chain in enumerate(chains):
            machine.load_hthread(node, 0, 0, program, registers={"i4": chain[0]})
        machine.run_until_user_done(max_cycles=MAX_CYCLES)
    with ctx.recorder.span("workloads.verify"):
        problems = []
        for node, chain in enumerate(chains):
            expected = sum(chain[1:]) + ctx.expect_offset
            gathered = machine.register_value(node, 0, 0, "i5")
            lost = sum(
                1
                for group in range(groups)
                if machine.read_word(chain[3 * (group + 1)] + 1) != group + 1 + ctx.expect_offset
            )
            if gathered != expected or lost:
                problems.append(f"node {node}: gathered {gathered}, expected {expected}; "
                                f"{lost} of {groups} remote stores lost")
    return UnitOutcome(ops=machine.num_nodes, failures=problems,
                       digest=[len(machine.tracer), machine.mesh.messages_injected])


# ---------------------------------------------------------------------------
# coherent-share-4x4: software DRAM caching and coherence (Section 4.3)
# ---------------------------------------------------------------------------

#: Words ``[0, SHARED_READ_WORDS)`` of every home page are read-only data;
#: the next ``WRITE_WORDS`` are write words, each owned by one node and
#: falsely sharing its 8-word block with seven other owners.
SHARED_READ_WORDS = 256
WRITE_WORDS = 128

#: Fewest groups between two nodes' writes to one block.  The coherent
#: runtime sends a block's data and an invalidation of it at different
#: network priorities, so an invalidation sent right after a grant (the home
#: serving a queued request for the same block) can overtake the data and
#: leave two DIRTY copies.  The nodes of this workload drift apart by under
#: two groups, so writes this far apart never meet in flight.
WRITE_SEPARATION = 4

#: Each group: three table-driven shared reads, then one store of a table
#: value to a table address.  The table lives in the node's own page.
SHARE_PROGRAM = """
        mov i3, #0
        mov i5, #0
loop:   ld i1, i2
        ld i4, i1
        add i5, i5, i4
        ld i1, i2, #1
        ld i4, i1
        add i5, i5, i4
        ld i1, i2, #2
        ld i4, i1
        add i5, i5, i4
        ld i1, i2, #3
        ld i6, i2, #4
        st i6, i1
        add i2, i2, #5
        add i3, i3, #1
        lt i8, i3, #{groups}
        br i8, loop
        halt
"""


def _share_layout(num_nodes: int) -> Tuple[int, int]:
    page = MachineConfig().memory.page_size_words
    return page, REGION + num_nodes * page


def _share_value(address: int) -> int:
    """Initial value of a read-only shared word."""
    return address - REGION + 1


def _share_plan(seed: int, groups: int, num_nodes: int) -> List[List[int]]:
    """Each node's access table: ``groups`` x [read, read, read, write
    address, write value].  A node touches each write block at most once,
    so the checks never depend on the order in which one node's accesses to
    a block complete, and two nodes write one block only
    :data:`WRITE_SEPARATION` or more groups apart."""
    rng = random.Random(seed)
    page, _ = _share_layout(num_nodes)
    #: block -> the groups in which it is written so far.
    written: Dict[int, List[int]] = {}
    tables = []
    for node in range(num_nodes):
        owned = [
            REGION + home * page + word
            for home in range(num_nodes)
            for word in range(SHARED_READ_WORDS, SHARED_READ_WORDS + WRITE_WORDS)
            if (home + word) % num_nodes == node
        ]
        rng.shuffle(owned)
        table: List[int] = []
        for group in range(groups):
            for _ in range(3):
                home = rng.randrange(num_nodes)
                table.append(REGION + home * page + rng.randrange(SHARED_READ_WORDS))
            write = next(address for address in owned if all(
                abs(group - other) >= WRITE_SEPARATION
                for other in written.get(block_base(address), ())))
            owned.remove(write)
            written.setdefault(block_base(write), []).append(group)
            table += [write, (node + 1) * 100_000 + group + 1]
        tables.append(table)
    return tables


@workload("coherent-share", register=False, section="Section 4.3")
def coherent_share(
    seed: int = 0, groups: int = 8, mesh: Sequence[int] = (4, 4, 1)
) -> Dict[str, object]:
    """Seeded shared reads plus false-sharing writes under the coherent runtime."""
    config = MachineConfig.small(*mesh)
    config.runtime.shared_memory_mode = "coherent"
    machine = MMachine(config)
    num_nodes = machine.num_nodes
    page, tables_base = _share_layout(num_nodes)
    for node in range(num_nodes):
        machine.map_on_node(node, REGION + node * page)
        machine.map_on_node(node, tables_base + node * page)
        for word in range(SHARED_READ_WORDS):
            address = REGION + node * page + word
            machine.write_word(address, _share_value(address))
    program = assemble(SHARE_PROGRAM.format(groups=groups), name="coherent-share")
    for node, table in enumerate(_share_plan(seed, groups, num_nodes)):
        machine.write_block(tables_base + node * page, table)
        machine.load_hthread(node, 0, 0, program, registers={"i2": tables_base + node * page})
    machine.run_until_user_done(max_cycles=MAX_CYCLES)
    metrics = dict(machine.stats().summary())
    metrics.update(machine.runtime.coherence.stats())
    metrics["sums"] = ",".join(
        str(machine.register_value(node, 0, 0, "i5")) for node in range(num_nodes)
    )
    return metrics


def _share_prepare(seed: int, groups: int, mesh: Sequence[int], every: int) -> dict:
    num_nodes = mesh[0] * mesh[1] * mesh[2]
    return {"seed": seed, "groups": groups, "mesh": tuple(mesh), "every": every,
            "tables": _share_plan(seed, groups, num_nodes)}


def _share_holder(machine: MMachine, block: int) -> object:
    """The node holding the current copy of *block*: the one node whose
    block status is DIRTY, else the home node."""
    dirty = int(BlockStatus.DIRTY)
    for node in machine.nodes:
        if node.memory.get_block_status(block) == dirty:
            return node
    return machine.home_node_of(block)


def _verify_share(machine: MMachine, tables: List[List[int]], offset: int) -> Optional[str]:
    """Why *machine* ended in the wrong state, or None if it did not."""
    bad_sums = 0
    finals = {}
    for node, table in enumerate(tables):
        reads = [table[i] for i in range(len(table)) if i % 5 < 3]
        expected = sum(_share_value(address) for address in reads) + offset
        if machine.register_value(node, 0, 0, "i5") != expected:
            bad_sums += 1
        finals.update(zip(table[3::5], table[4::5]))
    page, _ = _share_layout(machine.num_nodes)
    bad_words = 0
    for home in range(machine.num_nodes):
        writes = REGION + home * page + SHARED_READ_WORDS
        for block in range(writes, writes + WRITE_WORDS, BLOCK_SIZE_WORDS):
            holder = _share_holder(machine, block)
            for address in range(block, block + BLOCK_SIZE_WORDS):
                if holder.read_word(address) != finals.get(address, 0) + offset:
                    bad_words += 1
    if bad_sums or bad_words:
        return f"{bad_sums} nodes read wrong sums, {bad_words} write words hold wrong values"
    return None


def _share_unit(ctx: UnitContext, inputs: dict) -> UnitOutcome:
    probe = ctx.probe
    builder = (
        Experiment.builder()
        .workload(coherent_share, seed=inputs["seed"], groups=inputs["groups"])
        .mesh(*inputs["mesh"])
        .trace(os.path.join(ctx.workdir, "trace"))
        .checkpoint(os.path.join(ctx.workdir, "checkpoints"), every=inputs["every"])
        .probe(probe.machine_hook)
    )
    with construction_hooks(config_hook=probe.config_hook), builder.build() as experiment:
        first = experiment.run()
        resumed = experiment.run()
    with ctx.recorder.span("workloads.verify"):
        problems = [
            f"run {index + 1}: {problem}"
            for index, state in enumerate(probe.machines)
            for problem in [_verify_share(state.machine, inputs["tables"], ctx.expect_offset)]
            if problem is not None
        ]
        if "resumed_from_cycle" not in resumed.tags:
            problems.append("the second run did not resume from a checkpoint")
        elif resumed.metrics != first.metrics:
            problems.append("the resumed run's metrics differ from the uninterrupted run's")
    return UnitOutcome(ops=2, failures=problems, digest=[first.metrics, resumed.metrics])


# ---------------------------------------------------------------------------
# paper-figures: the users' sweep + report flow, checked against the paper
# ---------------------------------------------------------------------------


def _figures_prepare(seed: int) -> dict:
    return {}


def _quiet(message: str) -> None:
    """Sweep progress log sink (the benchmark prints its own summary)."""


def _figures_unit(ctx: UnitContext, inputs: dict) -> UnitOutcome:
    probe = ctx.probe
    spec = get_spec("paper-figures")
    results_dir = os.path.join(ctx.workdir, "sweep")
    with construction_hooks(probe.config_hook, probe.machine_hook), ctx.recorder.span("sweep"):
        sweep = SweepRunner(results_dir, jobs=1, force=True, log=_quiet).run(spec)
    with ctx.recorder.span("report.render"):
        report = render_report(Manifest.load(sweep.results_path),
                               os.path.join(results_dir, "report"))
    with ctx.recorder.span("workloads.verify"):
        problems = [f"run {record['run_id']} {record['status']}" for record in sweep.failed]
        expected_runs = len(spec.expand()) + ctx.expect_offset
        if len(sweep.records) != expected_runs:
            problems.append(f"{len(sweep.records)} sweep records, expected {expected_runs}")
        bands = failures(report.check_rows)
        problems += [f"paper band {row.key} failed: {row.measured}" for row in bands]
        if not any(row.status == "ok" for row in report.check_rows):
            problems.append("no paper band was checked")
    walls = [float(record["wall_seconds"]) for record in sweep.records]
    digest = [
        [[record["run_id"], record["status"], record["metrics"]] for record in sweep.records],
        [[row.key, row.status, row.measured] for row in report.check_rows],
    ]
    return UnitOutcome(
        ops=len(sweep.records) + 1,
        failures=problems,
        digest=digest,
        run_walls=walls,
        bands_failed=len(bands),
        sweep_overhead_s=sweep.wall_seconds - sum(walls),
    )


WORKLOADS: Dict[str, Workload] = {
    # 8x8 rather than 16x16: a 16x16 machine outgrows the host's shared
    # caches, so its host time follows the other tenants' cache use, which
    # the reference passes do not see.  Normalised unit times spread by about
    # 10% on 16x16 and 5% on 8x8 and 4x4, measured side by side.
    "busy-8x8": Workload(
        prepare=_busy_prepare,
        unit=_busy_unit,
        full={"iterations": 96, "mesh": (8, 8, 1)},
        tiny={"iterations": 3, "mesh": (2, 2, 1)},
    ),
    "remote-gather-8x8": Workload(
        prepare=_gather_prepare,
        unit=_gather_unit,
        full={"groups": 8, "mesh": (8, 8, 1)},
        tiny={"groups": 1, "mesh": (2, 2, 1)},
    ),
    "coherent-share-4x4": Workload(
        prepare=_share_prepare,
        unit=_share_unit,
        full={"groups": 12, "mesh": (4, 4, 1), "every": 1000},
        tiny={"groups": 2, "mesh": (2, 2, 1), "every": 100},
    ),
    "paper-figures": Workload(
        prepare=_figures_prepare,
        unit=_figures_unit,
        full={},
        tiny={},
    ),
}
