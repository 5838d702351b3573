"""Parameterised workload factories, reusable outside pytest.

Every paper figure, table and ablation is a *named workload*: a plain
function that builds a machine, runs a scenario, verifies the result and
returns a flat metrics dict.  ``repro run``, ``repro sweep`` (its
``paper-figures`` spec runs them all) and the tests call these factories
through ``Experiment.run``, so every caller of the same workload and
parameters executes the same code path and reports the same cycle counts.

Conventions:

* Factories are registered under a kebab-case name with the
  :func:`repro.api.workload` decorator (tagged with the paper section they
  reproduce), which binds each module attribute to a callable
  :class:`~repro.api.workload.WorkloadSpec`.
* Every factory accepts only keyword arguments, all of which have defaults,
  so running a workload with no parameters always works.
* Factories that drive a whole machine accept ``mesh`` (an ``(x, y, z)``
  tuple or list) and ``kernel`` (``"event"`` or ``"naive"``) so sweeps can
  scale the mesh and compare simulation kernels.
* The returned dict contains only JSON-serialisable scalars.  Machine-driving
  factories report ``cycles`` (simulated cycles) and ``verified`` (the
  workload's own correctness check); analytic factories (area model, GTLB
  mapping, Table 1) report their own headline numbers.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Sequence, Tuple

from repro.analysis.latency import SCENARIOS, AccessLatencyHarness
from repro.analysis.timeline import extract_remote_access_timeline
from repro.api.workload import workload
from repro.cluster.hthread import ThreadState
from repro.core.area_model import TECH_1993, TECH_1996, AreaModel
from repro.core.config import NUM_CLUSTERS, PARAM_KEYS, MachineConfig, apply_overrides
from repro.core.machine import MMachine
from repro.isa.assembler import assemble
from repro.memory.page_table import PAGE_SIZE_WORDS
from repro.memory.secded import SecdedError
from repro.network.gtlb import GlobalDestinationTable, Gtlb, GtlbEntry
from repro.workloads.microbench import (
    build_pointer_chain,
    cc_barrier_programs,
    cc_loop_sync_programs,
    compute_loop_program,
    dependent_load_chain_program,
)
from repro.workloads.stencil import make_stencil_workload
from repro.workloads.synthetic import many_to_one_store_programs, remote_store_sender_program

HEAP = 0x10000
REGION = 0x40000


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _machine(mesh: Sequence[int], kernel: str, **params: object) -> MMachine:
    """A machine whose config keys are set from the workload parameters
    *mesh*, *kernel* and *params* (:data:`~repro.core.config.PARAM_KEYS`)."""
    params.update(mesh=tuple(mesh), kernel=kernel)
    return MMachine(apply_overrides(
        MachineConfig(), {PARAM_KEYS[name]: value for name, value in params.items()}))


def _check_fits_page(workload: str, what: str, words: int) -> None:
    """Refuse a message count whose remote stores, one word each, overrun
    the one page *workload* maps for them."""
    if words > PAGE_SIZE_WORDS:
        raise ValueError(
            f"{workload} stores one word per message into one "
            f"{PAGE_SIZE_WORDS}-word page: {what} must be at most "
            f"{PAGE_SIZE_WORDS}, got {words}"
        )


def _far_node(machine: MMachine) -> int:
    return machine.num_nodes - 1


def _base_metrics(machine: MMachine) -> Dict[str, object]:
    summary = machine.stats().summary()
    return {
        "cycles": machine.cycle,
        "instructions": summary["instructions"],
        "operations": summary["operations"],
        "messages": summary["messages"],
        "nodes": summary["nodes"],
    }


# ---------------------------------------------------------------------------
# Figure 5: stencil smoothing
# ---------------------------------------------------------------------------


@workload("stencil", section="Figure 5")
def stencil(
    kind: str = "7pt",
    n_hthreads: int = 1,
    mesh: Sequence[int] = (1, 1, 1),
    kernel: str = "event",
    max_cycles: int = 30000,
) -> Dict[str, object]:
    """The Figure 5 stencil smoothing kernel on one node of a mesh."""
    machine = _machine(mesh, kernel)
    machine.map_on_node(0, HEAP, num_pages=16)
    workload = make_stencil_workload(kind=kind, n_hthreads=n_hthreads)
    workload.setup(machine)
    machine.run_until_user_done(max_cycles=max_cycles)
    metrics = _base_metrics(machine)
    metrics.update(
        verified=workload.verify(machine),
        static_depth=workload.max_static_depth,
        workload_operations=workload.total_operations,
    )
    return metrics


# ---------------------------------------------------------------------------
# Figure 6: CC-register synchronisation
# ---------------------------------------------------------------------------


@workload("cc-sync", section="Figure 6")
def cc_sync(
    iterations: int = 50,
    mesh: Sequence[int] = (1, 1, 1),
    kernel: str = "event",
    max_cycles: int = 100000,
) -> Dict[str, object]:
    """The two-H-Thread interlocked loop of Figure 6."""
    machine = _machine(mesh, kernel)
    machine.load_vthread(0, 0, cc_loop_sync_programs(iterations))
    machine.run_until_user_done(max_cycles=max_cycles)
    metrics = _base_metrics(machine)
    metrics.update(
        verified=(
            machine.register_value(0, 0, 0, "i2") == iterations
            and machine.register_value(0, 0, 1, "i2") == iterations
        ),
        cycles_per_iteration=round(machine.cycle / iterations, 4),
        memory_requests=machine.nodes[0].memory.requests_accepted,
    )
    return metrics


@workload("cc-barrier", section="Figure 6")
def cc_barrier(
    iterations: int = 50,
    clusters: int = 4,
    mesh: Sequence[int] = (1, 1, 1),
    kernel: str = "event",
    max_cycles: int = 400000,
) -> Dict[str, object]:
    """The 4-way CC-register barrier extension of Figure 6."""
    machine = _machine(mesh, kernel)
    machine.load_vthread(0, 0, cc_barrier_programs(iterations, clusters))
    machine.run_until_user_done(max_cycles=max_cycles)
    metrics = _base_metrics(machine)
    metrics.update(
        verified=all(
            machine.register_value(0, 0, cluster, "i2") == iterations
            for cluster in range(clusters)
        ),
        cycles_per_iteration=round(machine.cycle / iterations, 4),
    )
    return metrics


# ---------------------------------------------------------------------------
# Figure 7: user-level message passing
# ---------------------------------------------------------------------------


@workload("remote-store-latency", section="Figure 7")
def remote_store_latency(
    mesh: Sequence[int] = (2, 1, 1),
    kernel: str = "event",
    max_cycles: int = 5000,
) -> Dict[str, object]:
    """End-to-end latency of a single SEND carrying a remote store."""
    machine = _machine(mesh, kernel)
    far = _far_node(machine)
    machine.map_on_node(far, REGION, num_pages=1)
    dip = machine.runtime.dip("remote_store")
    machine.load_hthread(
        0,
        0,
        0,
        f"""
        mov m0, #99
        send i1, #{dip}, #1
        halt
        """,
        registers={"i1": REGION + 1},
    )
    machine.run_until_quiescent(max_cycles=max_cycles)
    send = machine.tracer.first("send", cluster=0)
    complete = None
    for event in machine.tracer.iter_filter("store_complete", node=far):
        if event.address == REGION + 1:
            complete = event
            break
    verified = complete is not None and machine.read_word(REGION + 1) == 99
    metrics = _base_metrics(machine)
    metrics.update(
        verified=verified,
        latency=(complete.cycle - send.cycle) if complete is not None else -1,
    )
    return metrics


@workload("message-stream", section="Figure 7")
def message_stream(
    count: int = 64,
    mesh: Sequence[int] = (2, 1, 1),
    kernel: str = "event",
    max_cycles: int = 200000,
) -> Dict[str, object]:
    """Sustained rate of a stream of remote-store messages."""
    _check_fits_page("message-stream", "count", count)
    machine = _machine(mesh, kernel)
    far = _far_node(machine)
    machine.map_on_node(far, REGION, num_pages=1)
    dip = machine.runtime.dip("remote_store")
    machine.load_hthread(0, 0, 0, remote_store_sender_program(REGION, dip, count))
    machine.run_until_user_done(max_cycles=max_cycles)
    metrics = _base_metrics(machine)
    metrics.update(
        verified=all(machine.read_word(REGION + i) != 0 for i in range(count)),
        cycles_per_message=round(machine.cycle / count, 4),
    )
    return metrics


@workload("ping-pong", section="Figure 7")
def ping_pong(
    rounds: int = 16,
    mesh: Sequence[int] = (2, 1, 1),
    kernel: str = "event",
    max_cycles: int = 400000,
) -> Dict[str, object]:
    """User-level ping-pong between node 0 and the far corner of the mesh.

    Each side spins on a locally-homed flag and SENDs a remote store to the
    other side's flag, ``rounds`` times (the Figure 7 ping-pong generalised
    to any mesh size).
    """
    machine = _machine(mesh, kernel)
    far = _far_node(machine)
    if far == 0:
        raise ValueError("ping-pong needs at least two nodes")
    machine.map_on_node(far, REGION, num_pages=1)
    machine.map_on_node(0, REGION + 0x1000, num_pages=1)
    dip = machine.runtime.dip("remote_store")
    ping, pong = REGION + 8, REGION + 0x1000 + 8
    machine.write_word(ping, 0)
    machine.write_word(pong, 0)
    machine.load_hthread(
        0,
        0,
        0,
        f"""
        mov i3, #0
loop:   add i3, i3, #1
        mov m0, i3
        send i1, #{dip}, #1       ; ping
wait:   ld i4, i2
        lt i5, i4, i3
        br i5, wait               ; spin until the pong for this round lands
        lt i6, i3, #{rounds}
        br i6, loop
        halt
        """,
        registers={"i1": ping, "i2": pong},
    )
    machine.load_hthread(
        far,
        0,
        0,
        f"""
        mov i3, #0
loop:   add i3, i3, #1
wait:   ld i4, i2
        lt i5, i4, i3
        br i5, wait               ; wait for the ping
        mov m0, i3
        send i1, #{dip}, #1       ; pong
        lt i6, i3, #{rounds}
        br i6, loop
        halt
        """,
        registers={"i1": pong, "i2": ping},
    )
    machine.run_until_user_done(max_cycles=max_cycles)
    metrics = _base_metrics(machine)
    metrics.update(
        verified=(
            machine.read_word(ping) == rounds and machine.read_word(pong) == rounds
        ),
        cycles_per_round_trip=round(machine.cycle / rounds, 4),
    )
    return metrics


# ---------------------------------------------------------------------------
# Figure 8: GTLB page-group mapping (analytic)
# ---------------------------------------------------------------------------


@workload("gtlb-mapping", section="Figure 8")
def gtlb_mapping(
    pages_per_node: int = 2,
    num_pages: int = 64,
    lookups: int = 5000,
    page_size_words: int = 512,
) -> Dict[str, object]:
    """Page-group interleaving spread and GTLB translation hit rate."""
    entry = GtlbEntry(
        base_page=0,
        page_group_length=num_pages,
        start_node=(0, 0, 0),
        extent=(1, 1, 1),
        pages_per_node=pages_per_node,
        page_size_words=page_size_words,
    )
    counts: Dict[Tuple[int, int, int], int] = {}
    for page in range(num_pages):
        coords = entry.node_coords_of(page * page_size_words)
        counts[coords] = counts.get(coords, 0) + 1
    gdt = GlobalDestinationTable()
    gdt.add(entry)
    gtlb = Gtlb(gdt)
    for index in range(lookups):
        gtlb.node_coords_of((index * 37) % (num_pages * page_size_words))
    return {
        "verified": entry == GtlbEntry.unpack(entry.pack(), page_size_words),
        "nodes_used": len(counts),
        "min_pages_per_node": min(counts.values()),
        "max_pages_per_node": max(counts.values()),
        "gtlb_hit_rate": round(gtlb.hit_rate, 4),
    }


# ---------------------------------------------------------------------------
# Figure 9: remote access timelines
# ---------------------------------------------------------------------------


@workload("remote-access-timeline", section="Figure 9")
def remote_access_timeline(
    kind: str = "read",
    mesh: Sequence[int] = (2, 1, 1),
    kernel: str = "event",
    max_cycles: int = 10000,
) -> Dict[str, object]:
    """Milestone timeline of a single remote read or write (Figure 9)."""
    if kind not in ("read", "write"):
        raise ValueError("kind must be 'read' or 'write'")
    machine = _machine(mesh, kernel)
    far = _far_node(machine)
    machine.map_on_node(far, REGION, num_pages=1)
    machine.write_word(REGION, 11)
    if kind == "read":
        machine.load_hthread(0, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION})
        machine.run_until(
            lambda m: m.register_full(0, 0, 0, "i5"), max_cycles=max_cycles
        )
    else:
        machine.load_hthread(
            0, 0, 0, "st i6, i1\nhalt", registers={"i1": REGION, "i6": 77}
        )
        machine.run_until_quiescent(max_cycles=max_cycles)
    timeline = extract_remote_access_timeline(machine.tracer, kind, address=REGION)
    metrics = _base_metrics(machine)
    metrics.update(
        verified=timeline.total_cycles > 0,
        total_cycles=timeline.total_cycles,
        milestones=len(timeline.events),
        # Compact JSON so the report renderer can redraw the Figure 9 Gantt
        # chart from the sweep record alone (metrics must stay scalar).
        timeline=json.dumps(timeline.to_records(), separators=(",", ":")),
    )
    return metrics


# ---------------------------------------------------------------------------
# Table 1: access-time matrix
# ---------------------------------------------------------------------------


@workload("table1-access-times", section="Table 1")
def table1_access_times() -> Dict[str, object]:
    """All twelve Table 1 access-time measurements."""
    harness = AccessLatencyHarness()
    results = harness.measure_all()
    metrics: Dict[str, object] = {"verified": set(results) == set(SCENARIOS)}
    for scenario in SCENARIOS:
        metrics[f"{scenario}_read"] = results[scenario]["read"]
        metrics[f"{scenario}_write"] = results[scenario]["write"]
    return metrics


# ---------------------------------------------------------------------------
# Ablation A1/A2: intra-node
# ---------------------------------------------------------------------------


@workload("vthread-interleave", section="Ablation A1 (Section 3.2)")
def vthread_interleave(
    num_threads: int = 4,
    chain_loads: int = 24,
    mesh: Sequence[int] = (1, 1, 1),
    kernel: str = "event",
    max_cycles: int = 100000,
) -> Dict[str, object]:
    """Pointer-chasing V-Threads sharing one cluster (latency tolerance)."""
    machine = _machine(mesh, kernel)
    machine.map_on_node(0, HEAP, num_pages=4)
    for address, value in build_pointer_chain(32, HEAP, stride=16):
        machine.write_word(address, value)
    for slot in range(num_threads):
        machine.load_hthread(
            0, slot, 0, dependent_load_chain_program(chain_loads), registers={"i1": HEAP}
        )
    machine.run_until_user_done(max_cycles=max_cycles)
    metrics = _base_metrics(machine)
    metrics.update(
        verified=all(
            machine.thread_halted(0, slot, 0) for slot in range(num_threads)
        ),
        num_threads=num_threads,
    )
    return metrics


@workload("issue-policy", section="Ablation A2 (Section 3.4)")
def issue_policy(
    policy: str = "event-priority",
    iterations: int = 100,
    mesh: Sequence[int] = (1, 1, 1),
    kernel: str = "event",
    max_cycles: int = 100000,
) -> Dict[str, object]:
    """A single arithmetic loop under a thread-selection policy (A2)."""
    machine = _machine(mesh, kernel, policy=policy)
    machine.load_hthread(0, 0, 0, compute_loop_program(iterations))
    machine.run_until_user_done(max_cycles=max_cycles)
    metrics = _base_metrics(machine)
    metrics.update(
        verified=machine.register_value(0, 0, 0, "i5") == 3 * iterations,
        policy=policy,
    )
    return metrics


# ---------------------------------------------------------------------------
# Ablation A3: remote memory, non-cached vs coherent
# ---------------------------------------------------------------------------


@workload("remote-memory", section="Ablation A3 (Sections 4.2/4.3)")
def remote_memory(
    mode: str = "remote",
    repeats: int = 16,
    mesh: Sequence[int] = (2, 1, 1),
    kernel: str = "event",
    max_cycles: int = 200000,
) -> Dict[str, object]:
    """Repeated reads of one remote word under a shared-memory runtime.

    ``mode="remote"`` is the Section 4.2 non-cached runtime (every read pays
    the full remote latency); ``mode="coherent"`` is the Section 4.3 DRAM
    caching runtime (one block fetch, then local speed).
    """
    machine = _machine(mesh, kernel, mode=mode)
    far = _far_node(machine)
    machine.map_on_node(far, REGION, num_pages=1)
    machine.write_word(REGION, 3)
    machine.load_hthread(
        0,
        0,
        0,
        f"""
        mov i3, #0
        mov i5, #0
loop:   ld i4, i1          ; read the same remote word
        add i5, i5, i4
        add i3, i3, #1
        lt i6, i3, #{repeats}
        br i6, loop
        halt
        """,
        registers={"i1": REGION},
    )
    machine.run_until_user_done(max_cycles=max_cycles)
    metrics = _base_metrics(machine)
    metrics.update(
        verified=machine.register_value(0, 0, 0, "i5") == 3 * repeats,
        mode=mode,
    )
    return metrics


@workload("coherence", section="Ablation A3 (Section 4.3)", fixed_params=("mode",))
def coherence(
    repeats: int = 16,
    mesh: Sequence[int] = (2, 1, 1),
    kernel: str = "event",
    max_cycles: int = 200000,
) -> Dict[str, object]:
    """Alias for :func:`remote_memory` with the coherent runtime."""
    return remote_memory(mode="coherent", repeats=repeats, mesh=mesh, kernel=kernel,
                         max_cycles=max_cycles)


# ---------------------------------------------------------------------------
# Ablation A4: flood / return-to-sender throttling
# ---------------------------------------------------------------------------


@workload("flood", section="Ablation A4 (Section 3.1)")
def flood(
    send_credits: int = 16,
    queue_words: int = 128,
    messages: int = 24,
    retransmit_interval: int = 16,
    mesh: Sequence[int] = (2, 1, 1),
    kernel: str = "event",
    max_cycles: int = 400000,
) -> Dict[str, object]:
    """One producer floods the far corner with remote-store messages."""
    _check_fits_page("flood", "messages", messages)
    machine = _machine(mesh, kernel, send_credits=send_credits, queue_words=queue_words,
                       retransmit_interval=retransmit_interval)
    far = _far_node(machine)
    machine.map_on_node(far, REGION, num_pages=1)
    dip = machine.runtime.dip("remote_store")
    machine.load_hthread(0, 0, 0, remote_store_sender_program(REGION, dip, messages))
    machine.run_until_user_done(max_cycles=max_cycles)
    metrics = _base_metrics(machine)
    metrics.update(
        verified=all(machine.read_word(REGION + i) != 0 for i in range(messages)),
        nacks=machine.nodes[0].net.nacks_received,
        retransmissions=machine.nodes[0].net.retransmissions,
        max_queue_words=machine.nodes[far].msg_queue_p0.max_occupancy,
    )
    return metrics


@workload("many-to-one-flood", section="Ablation A4 (Section 3.1)")
def many_to_one_flood(
    senders: int = 3,
    messages_each: int = 8,
    queue_words: int = 6,
    retransmit_interval: int = 16,
    mesh: Sequence[int] = (2, 2, 1),
    kernel: str = "event",
    max_cycles: int = 400000,
) -> Dict[str, object]:
    """Several producers flood one consumer (return-to-sender stress)."""
    _check_fits_page("many-to-one-flood", "senders x messages_each", senders * messages_each)
    machine = _machine(mesh, kernel, queue_words=queue_words,
                       retransmit_interval=retransmit_interval)
    if senders >= machine.num_nodes:
        raise ValueError("need one node per sender plus the consumer")
    machine.map_on_node(0, REGION, num_pages=1)
    dip = machine.runtime.dip("remote_store")
    programs = many_to_one_store_programs(senders, messages_each, REGION, dip)
    for sender, program in programs.items():
        machine.load_hthread(sender + 1, 0, 0, program)
    machine.run_until_user_done(max_cycles=max_cycles)
    total = senders * messages_each
    metrics = _base_metrics(machine)
    metrics.update(
        verified=all(machine.read_word(REGION + i) != 0 for i in range(total)),
        nacks=sum(node.net.nacks_received for node in machine.nodes),
        retransmissions=sum(node.net.retransmissions for node in machine.nodes),
        max_queue_words=machine.nodes[0].msg_queue_p0.max_occupancy,
    )
    return metrics


# ---------------------------------------------------------------------------
# Kernel throughput: busy-heavy register stencil
# ---------------------------------------------------------------------------


@workload("busy-stencil", section="Kernel benchmark")
def busy_stencil(
    iterations: int = 256,
    mesh: Sequence[int] = (1, 1, 1),
    kernel: str = "event",
    max_cycles: int = 1000000,
) -> Dict[str, object]:
    """Register-resident integer stencil on every cluster of every node.

    Every cluster runs the same three-point smoothing loop entirely in
    registers: no loads, no stores, no messages, no idle cycles.  Because an
    instruction issues on every cluster on (almost) every cycle, the event
    kernel's idle-cycle skipping cannot help, so this workload measures the
    raw per-tick cost of the issue stage -- it is the busy-heavy benchmark
    behind ``BENCH_kernel.json``'s ``busy_dispatch`` and ``mesh_scaling``.
    """
    machine = _machine(mesh, kernel)
    program = f"""
        mov i1, #3
        mov i2, #5
        mov i3, #7
        mov i4, #0
        mov i7, #0
loop:   add i5, i1, i2
        add i5, i5, i3
        shr i6, i5, #1
        mov i1, i2
        mov i2, i3
        mov i3, i6
        add i7, i7, i6
        add i4, i4, #1
        lt i8, i4, #{iterations}
        br i8, loop
        halt
    """
    # Assemble once and share the (read-only) Program across every cluster:
    # re-assembling identical text per cluster would dominate setup on large
    # meshes and skew the mesh-scaling benchmark.
    assembled = assemble(program, name="busy-stencil")
    for node in range(machine.num_nodes):
        for cluster in range(NUM_CLUSTERS):
            machine.load_hthread(node, 0, cluster, assembled)
    machine.run_until_user_done(max_cycles=max_cycles)

    a, b, c, checksum = 3, 5, 7, 0
    for _ in range(iterations):
        smoothed = (a + b + c) >> 1
        a, b, c = b, c, smoothed
        checksum += smoothed
    metrics = _base_metrics(machine)
    metrics.update(
        verified=all(
            machine.register_value(node, 0, cluster, "i7") == checksum
            for node in range(machine.num_nodes)
            for cluster in range(NUM_CLUSTERS)
        ),
        iterations=iterations,
        checksum=checksum,
    )
    return metrics


# ---------------------------------------------------------------------------
# Sections 1/5: area model (analytic)
# ---------------------------------------------------------------------------


@workload("area-model", section="Sections 1/5")
def area_model(num_nodes: int = 32) -> Dict[str, object]:
    """The silicon-area / peak-performance comparison of Sections 1 and 5."""
    model = AreaModel()
    comparison = model.comparison(num_nodes=num_nodes)
    return {
        "verified": comparison["peak_ratio"] > 0,
        "peak_ratio": comparison["peak_ratio"],
        "area_ratio": round(comparison["area_ratio"], 4),
        "peak_per_area_improvement": round(comparison["peak_per_area_improvement"], 2),
        "processor_fraction_1993": round(TECH_1993.processor_fraction_of_chip, 4),
        "processor_fraction_1996": round(TECH_1996.processor_fraction_of_chip, 4),
    }


# ---------------------------------------------------------------------------
# Fault-injection & multiprogramming family
# ---------------------------------------------------------------------------


@workload("multitenant-timeshare", section="Sections 3.2/4.4 (multiprogramming)")
def multitenant_timeshare(
    seed: int = 0,
    jobs: int = 8,
    mesh: Sequence[int] = (2, 1, 1),
    kernel: str = "event",
    max_cycles: int = 200000,
) -> Dict[str, object]:
    """Several independent seeded jobs timeshare the mesh, one per context.

    The jobs come from the :mod:`repro.fuzz` program generator with all fault
    knobs at zero: a deterministic mix of compute loops, guarded-pointer
    memory threads, SEND traffic and remote reads, each in its own hthread
    slot with a private address-space slice — the multiprogrammed operating
    point the paper's Section 3.2 multithreading argument is about.
    """
    from repro.fuzz.generator import GeneratorKnobs, generate_program  # noqa: PLC0415

    knobs = GeneratorKnobs(
        mesh=tuple(mesh),
        max_threads=jobs,
        fault_density=0.0,
        secded_single_flips=0,
        secded_double_flips=0,
        max_cycles=max_cycles,
    )
    program = generate_program(seed, knobs)
    machine = program.build_machine(kernel=kernel)
    program.run(machine)
    states = [
        machine.nodes[thread.node].context(thread.slot, thread.cluster).state
        for thread in program.threads
    ]
    metrics = _base_metrics(machine)
    metrics.update(
        jobs=len(program.threads),
        verified=all(state is ThreadState.HALTED for state in states),
    )
    return metrics


@workload("protection-storm", section="Section 4.4 (guarded pointers)")
def protection_storm(
    violators: int = 5,
    mesh: Sequence[int] = (1, 1, 1),
    kernel: str = "event",
    max_cycles: int = 20000,
) -> Dict[str, object]:
    """Concurrent guarded-pointer violations must all fault without wedging.

    Every violation mode the generator knows (plain-int access under
    protection, out-of-segment load, read-only store, out-of-segment LEA,
    unprivileged SETPTR forge) runs concurrently alongside one clean memory
    thread.  All violators must end FAULTED with an ``exception`` trace
    event, the clean thread must finish, and the machine must go quiescent —
    the "protection faults are cheap and contained" claim of Section 4.4.
    """
    from repro.fuzz.generator import (  # noqa: PLC0415
        HEAP_BASE,
        VIOLATION_MODES,
        GeneratedProgram,
        GeneratorKnobs,
        ThreadSpec,
    )

    num_nodes = int(mesh[0]) * int(mesh[1]) * int(mesh[2])
    if violators < 1 or violators > 4 * 4 * num_nodes - 1:
        raise ValueError("violators must leave a free context for the clean thread")
    knobs = GeneratorKnobs(mesh=tuple(mesh), max_cycles=max_cycles)
    program = GeneratedProgram(
        seed=0,
        knobs=knobs,
        mesh=tuple(mesh),
        config_overrides={"runtime.protection_enabled": True},
        max_cycles=max_cycles,
    )
    placements = [
        (node, slot, cluster)
        for node in range(num_nodes)
        for slot in range(4)
        for cluster in range(4)
    ]
    for index in range(violators):
        node, slot, cluster = placements[index]
        base = HEAP_BASE + index * 0x1000
        program.mappings.append((node, base, 1))
        program.threads.append(
            ThreadSpec(
                node=node,
                slot=slot,
                cluster=cluster,
                kind="violator",
                params={"base": base, "mode": VIOLATION_MODES[index % len(VIOLATION_MODES)]},
            )
        )
    clean_node, clean_slot, clean_cluster = placements[violators]
    clean_base = HEAP_BASE + violators * 0x1000
    program.mappings.append((clean_node, clean_base, 1))
    program.threads.append(
        ThreadSpec(
            node=clean_node,
            slot=clean_slot,
            cluster=clean_cluster,
            kind="local-memory",
            params={
                "base": clean_base,
                "offsets": [0, 3, 7],
                "values": [11, 22, 33],
                "iterations": 4,
            },
        )
    )
    machine = program.build_machine(kernel=kernel)
    program.run(machine)
    states = [
        machine.nodes[thread.node].context(thread.slot, thread.cluster).state
        for thread in program.threads
    ]
    faulted = sum(1 for state in states[:violators] if state is ThreadState.FAULTED)
    exceptions = sum(
        1 for event in machine.tracer.events if event.category == "exception"
    )
    metrics = _base_metrics(machine)
    metrics.update(
        violators=violators,
        faulted=faulted,
        exceptions=exceptions,
        verified=(
            faulted == violators
            and exceptions >= violators
            and states[violators] is ThreadState.HALTED
        ),
    )
    return metrics


@workload("secded-soak", section="Section 2 (SECDED memory interface)")
def secded_soak(
    words: int = 24,
    single_flips: int = 6,
    double_flips: int = 3,
    seed: int = 0,
    mesh: Sequence[int] = (1, 1, 1),
    kernel: str = "event",
    max_cycles: int = 20000,
) -> Dict[str, object]:
    """Seeded bit-flip soak through the SECDED path with full accounting.

    Writes a block of seeded words, flips one stored codeword bit in
    ``single_flips`` of them and two bits in ``double_flips`` words placed
    beyond the program's read range, then reads the block back from a user
    thread (cache-cold, so every read decodes through
    :mod:`repro.memory.secded`).  Single-bit flips must be corrected and
    scrubbed, double-bit flips must raise detected-uncorrectable, and the
    DRAM's ``corrected``/``detected`` counters must match exactly.
    """
    from repro.fuzz.generator import (  # noqa: PLC0415
        SECDED_BASE,
        GeneratedProgram,
        GeneratorKnobs,
        ThreadSpec,
    )

    if single_flips > words:
        raise ValueError("cannot single-flip more words than are read")
    if words > 128 or double_flips > 16:
        raise ValueError("soak block exceeds its one-page layout")
    rng = random.Random(seed)
    knobs = GeneratorKnobs(mesh=tuple(mesh), max_cycles=max_cycles)
    program = GeneratedProgram(seed=seed, knobs=knobs, mesh=tuple(mesh), max_cycles=max_cycles)
    program.mappings.append((0, SECDED_BASE, 1))
    originals = [rng.randint(1, (1 << 48) - 1) for _ in range(words)]
    for offset, value in enumerate(originals):
        program.initial_words.append((SECDED_BASE + offset, value))
    for offset in rng.sample(range(words), single_flips):
        program.single_flips.append((0, SECDED_BASE + offset, rng.randrange(72)))
    # Double-bit words live past the read range (and past any cache block the
    # reader touches) so the user thread never trips the uncorrectable path.
    poison = []
    for index in range(double_flips):
        offset = 256 + index
        value = rng.randint(1, (1 << 48) - 1)
        program.initial_words.append((SECDED_BASE + offset, value))
        bit_a, bit_b = rng.sample(range(72), 2)
        program.double_flips.append((0, SECDED_BASE + offset, bit_a, bit_b))
        poison.append(SECDED_BASE + offset)
    program.threads.append(
        ThreadSpec(
            node=0,
            slot=0,
            cluster=0,
            kind="secded-read",
            params={"base": SECDED_BASE, "words": words},
        )
    )
    machine = program.build_machine(kernel=kernel)
    program.run(machine)
    memory = machine.nodes[0].memory
    corrected = memory.sdram.corrected_errors
    # Directly probe the poisoned words: each must raise detected-uncorrectable.
    uncorrectable = 0
    for address in poison:
        try:
            memory.sdram.read_word(memory.translate(address))
        except SecdedError:
            uncorrectable += 1
    # After the scrub, every stored codeword in the read range decodes to the
    # originally written value without further corrections.
    scrub_base = memory.sdram.corrected_errors
    survivors = [
        memory.sdram.read_word(memory.translate(SECDED_BASE + offset))
        for offset in range(words)
    ]
    metrics = _base_metrics(machine)
    metrics.update(
        words=words,
        corrected=corrected,
        detected=memory.sdram.detected_errors,
        verified=(
            corrected == single_flips
            and uncorrectable == double_flips
            and memory.sdram.detected_errors == double_flips
            and memory.sdram.corrected_errors == scrub_base
            and survivors == originals
        ),
    )
    return metrics


@workload("nack-flood", section="Ablation A4 (Section 3.1)")
def nack_flood(
    senders: int = 3,
    messages_each: int = 12,
    queue_words: int = 6,
    retransmit_interval: int = 8,
    mesh: Sequence[int] = (2, 2, 1),
    kernel: str = "event",
    max_cycles: int = 400000,
) -> Dict[str, object]:
    """Sustained NACK/retransmit storm against one consumer node.

    Like ``many-to-one-flood`` but tuned so the consumer's receive queue is
    guaranteed to overflow: the run only verifies if the network actually
    NACKed and retransmitted while still delivering every store — the
    return-to-sender throttling claim of Section 3.1 under sustained
    pressure rather than a transient burst.
    """
    metrics = many_to_one_flood(
        senders=senders, messages_each=messages_each, queue_words=queue_words,
        retransmit_interval=retransmit_interval, mesh=mesh, kernel=kernel, max_cycles=max_cycles,
    )
    metrics["verified"] = (
        metrics["verified"] and metrics["nacks"] > 0 and metrics["retransmissions"] > 0
    )
    return metrics
