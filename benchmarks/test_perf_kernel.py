"""Simulation-kernel throughput: event kernel vs naive loop.

Not a paper figure -- this benchmark tracks the *host-side* cost of the
simulator itself, which gates how large a mesh and how long a workload the
paper-reproduction benchmarks can afford.  The workload is deliberately
idle-heavy: one node on a 4x4x1 mesh performs a chain of dependent remote
loads from the diagonally-opposite corner, so on almost every cycle almost
every node is waiting -- the regime the paper's Figures 5-9 scenarios live
in, and the worst case for the naive tick-everything loop (host cost
O(cycles x nodes)).  The event kernel sleeps the idle nodes and jumps the
clock across network round-trips, so its cost is O(work).

The headline number recorded in the benchmark JSON is simulated
cycles-per-second of host wall-clock time for each kernel, plus their
ratio; ``test_event_kernel_speedup`` asserts the >= 2x floor from the
issue's acceptance criteria (in practice the ratio is far higher).
"""

import os
import random
import sys
import time

from conftest import record_trajectory, report
from repro import MMachine, MachineConfig
from repro.api import ExperimentBuilder
from repro.core.machine import construction_hooks
from repro.memory.sdram import Sdram

#: ``checks_per_issue`` is counted with the wrapper of the parking test's
#: structural count.
sys.path.insert(0, os.path.normpath(
    os.path.join(os.path.dirname(__file__), os.pardir, "tests", "integration")))
from test_parking import counting_checks  # noqa: E402

REGION = 0x40000
REPEATS = 24

#: Mesh-scaling matrix: (mesh_x, mesh_y, mesh_z, stencil iterations).  Every
#: point runs the same per-node work so one-time setup (program load,
#: dispatch compilation -- both O(nodes)) amortises identically and the
#: per-node-tick throughput comparison isolates the per-cycle hot path.
MESH_MATRIX = ((4, 4, 1, 120), (8, 8, 1, 120), (16, 16, 1, 120))

#: Words written and read back by the SDRAM/SECDED throughput benchmark.
SDRAM_WORDS = 4096


def _remote_read_chain(repeats: int = REPEATS) -> str:
    """Dependent remote reads: every iteration waits for the previous reply,
    so the machine is almost always idle."""
    return f"""
        mov i3, #0
        mov i5, #0
loop:   ld i4, i1          ; remote load (full network round trip)
        add i5, i5, i4     ; depend on the loaded value
        add i3, i3, #1
        lt i6, i3, #{repeats}
        br i6, loop
        halt
    """


def _build_machine(kernel: str) -> MMachine:
    config = MachineConfig.small(4, 4, 1)
    config.sim.kernel = kernel
    config.trace_enabled = False
    machine = MMachine(config)
    machine.map_on_node(15, REGION, num_pages=1)   # far corner of the mesh
    machine.write_word(REGION, 3)
    machine.load_hthread(0, 0, 0, _remote_read_chain(), registers={"i1": REGION})
    return machine


def _run(machine: MMachine) -> int:
    machine.run_until_user_done(max_cycles=500_000)
    assert machine.register_value(0, 0, 0, "i5") == 3 * REPEATS
    return machine.cycle


def _timed_run(kernel: str, rounds: int = 1):
    """Run the workload *rounds* times on fresh machines and keep the best
    wall time (the minimum is the standard noise-resistant estimator for a
    deterministic computation on a shared host)."""
    best = None
    for _ in range(rounds):
        machine = _build_machine(kernel)
        start = time.perf_counter()
        cycles = _run(machine)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[1]:
            best = (cycles, elapsed, machine)
    return best


def test_event_kernel_throughput(benchmark):
    """Record simulated cycles/second for both kernels in the benchmark
    trajectory; the benchmarked callable is the event-kernel run."""
    naive_cycles, naive_elapsed, _ = _timed_run("naive")

    def run_event():
        return _timed_run("event")

    event_cycles, event_elapsed, machine = benchmark.pedantic(
        run_event, rounds=1, iterations=1, warmup_rounds=0
    )
    assert event_cycles == naive_cycles, "kernels disagree on simulated time"

    naive_cps = naive_cycles / naive_elapsed
    event_cps = event_cycles / event_elapsed
    speedup = event_cps / naive_cps
    benchmark.extra_info["simulated_cycles"] = event_cycles
    benchmark.extra_info["event_cycles_per_second"] = round(event_cps)
    benchmark.extra_info["naive_cycles_per_second"] = round(naive_cps)
    benchmark.extra_info["speedup_vs_naive"] = round(speedup, 2)
    benchmark.extra_info["node_ticks"] = machine.kernel.node_ticks
    benchmark.extra_info["node_ticks_naive_equivalent"] = naive_cycles * machine.num_nodes

    record_trajectory(
        "kernel_throughput",
        simulated_cycles=event_cycles,
        event_cycles_per_second=round(event_cps),
        naive_cycles_per_second=round(naive_cps),
        speedup_vs_naive=round(speedup, 2),
        node_ticks_event=machine.kernel.node_ticks,
        node_ticks_naive_equivalent=naive_cycles * machine.num_nodes,
    )

    report("Kernel throughput (idle-heavy 4x4x1 remote-read chain)", [
        f"simulated cycles        {event_cycles}",
        f"naive loop              {naive_cps:>12.0f} cycles/s",
        f"event kernel            {event_cps:>12.0f} cycles/s",
        f"speedup                 {speedup:>12.1f}x",
        f"node ticks (event)      {machine.kernel.node_ticks} of "
        f"{naive_cycles * machine.num_nodes} naive",
    ])


def test_event_kernel_speedup():
    """Acceptance floor: >= 2x cycles/second on the idle-heavy internode
    workload.  Best-of-three timing per kernel and a floor far below the
    measured ~10x keep host jitter from flaking the suite."""
    naive_cycles, naive_elapsed, _ = _timed_run("naive", rounds=3)
    event_cycles, event_elapsed, _ = _timed_run("event", rounds=3)
    assert event_cycles == naive_cycles
    speedup = (event_cycles / event_elapsed) / (naive_cycles / naive_elapsed)
    assert speedup >= 2.0, f"event kernel only {speedup:.2f}x faster than naive"


def _timed_busy(mesh, iterations, rounds=1):
    """Best-of-*rounds* wall time for the busy-stencil workload on *mesh*.
    Returns ``(elapsed, metrics)``."""
    best = None
    for _ in range(rounds):
        experiment = (
            ExperimentBuilder()
            .workload("busy-stencil", iterations=iterations, mesh=list(mesh))
            .build()
        )
        start = time.perf_counter()
        result = experiment.run()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, result.metrics)
    return best


def _checks_per_issue(mesh, iterations):
    """Readiness checks (``check`` calls) per issued instruction on the
    busy-stencil workload, counted in an untimed run."""
    machines = []
    with counting_checks() as calls, construction_hooks(machine_hook=machines.append):
        ExperimentBuilder().workload("busy-stencil", iterations=iterations,
                                     mesh=list(mesh)).build().run()
    issued = sum(cluster.instructions_issued for machine in machines
                 for node in machine.nodes for cluster in node.clusters)
    return calls[0] / issued


def test_busy_dispatch_throughput(benchmark):
    """Busy-heavy issue-stage throughput on a 4x4x1 mesh.

    Every cluster issues on (almost) every cycle, so the event kernel cannot
    sleep anything -- this measures the raw per-tick cost of running the
    issue stage's compiled plans (repro.cluster.dispatch).  The number is
    recorded in the trajectory; there is no floor, because the interpreted
    issue stage it used to be compared against no longer exists.  Beside it
    the trajectory records ``checks_per_issue``, a count that does not
    depend on the host: 1.75 while the scan re-checked every stalled handler
    thread on every visit, 1.00 once stalled threads park.
    """
    mesh, iterations = (4, 4, 1), 200

    def run_compiled():
        return _timed_busy(mesh, iterations)

    elapsed, metrics = benchmark.pedantic(
        run_compiled, rounds=1, iterations=1, warmup_rounds=0
    )
    assert metrics["verified"], "busy-stencil checksum mismatch"

    cycles = metrics["cycles"]
    cycles_per_second = cycles / elapsed
    checks_per_issue = round(_checks_per_issue(mesh, iterations), 4)
    benchmark.extra_info["simulated_cycles"] = cycles
    benchmark.extra_info["compiled_cycles_per_second"] = round(cycles_per_second)
    benchmark.extra_info["checks_per_issue"] = checks_per_issue

    record_trajectory(
        "busy_dispatch",
        mesh="4x4x1",
        iterations=iterations,
        simulated_cycles=cycles,
        compiled_cycles_per_second=round(cycles_per_second),
        checks_per_issue=checks_per_issue,
    )

    report("Busy-heavy dispatch throughput (4x4x1 register stencil)", [
        f"simulated cycles        {cycles}",
        f"compiled dispatch       {cycles_per_second:>12.0f} cycles/s",
        f"checks per issue        {checks_per_issue:>12.4f}",
    ])


def test_mesh_scaling_matrix():
    """O(work) scaling gate: node-ticks/second must not collapse as the mesh
    grows.  On a busy workload every node ticks every cycle, so host work is
    proportional to ``cycles x nodes``; if per-node-tick throughput becomes
    super-linear in machine size (a per-cycle scan of all nodes, a shared
    structure that grows with the mesh), the larger meshes fall off a cliff.

    The gate compares 8x8 against 16x16, where the drop is.  Measured on a
    2-vCPU Intel Xeon VM under CPython 3.11.7 (medians of 4 runs, each
    normalised by reference passes), 4x4 runs about as fast as 8x8 (64.5k
    vs 64.8k node-ticks/s), so the small end shows no host-cache bonus,
    and 16x16 runs about 20% below 8x8 (51.1k).  Per-node-tick *call
    counts* are identical across the matrix; at 16x16 the per-call time of
    every ``Node.tick`` phase rises by 20-60%, so the drop is the per-node
    working set outgrowing the host caches, not a phase whose work grows
    with the mesh.  The 30% gate leaves room for that drop and still catches
    genuine super-linearity -- before cross-cluster dispatch-plan sharing
    this segment showed a 45% drop.  The full matrix including the 4x4
    point is recorded in the trajectory."""
    matrix = {}
    for mesh_x, mesh_y, mesh_z, iterations in MESH_MATRIX:
        num_nodes = mesh_x * mesh_y * mesh_z
        elapsed, metrics = _timed_busy((mesh_x, mesh_y, mesh_z), iterations)
        assert metrics["verified"], "busy-stencil checksum mismatch"
        cycles = metrics["cycles"]
        cps = cycles / elapsed
        node_ticks_per_second = cps * num_nodes
        matrix[f"{mesh_x}x{mesh_y}x{mesh_z}"] = {
            "nodes": num_nodes,
            "iterations": iterations,
            "simulated_cycles": cycles,
            "cycles_per_second": round(cps),
            "node_ticks_per_second": round(node_ticks_per_second),
        }

    record_trajectory("mesh_scaling", **{
        f"{mesh}_{metric}": value
        for mesh, row in matrix.items()
        for metric, value in row.items()
    })
    report("Mesh-scaling matrix (busy stencil, compiled dispatch)", [
        f"{mesh:>8}  {row['cycles_per_second']:>10} cycles/s  "
        f"{row['node_ticks_per_second']:>12} node-ticks/s"
        for mesh, row in matrix.items()
    ])

    small = matrix["8x8x1"]["node_ticks_per_second"]
    large = matrix["16x16x1"]["node_ticks_per_second"]
    assert large >= 0.7 * small, (
        f"per-node-tick throughput dropped {(1 - large / small):.0%} "
        f"from 8x8 to 16x16 (limit 30%)"
    )


def _one_traced_busy(mesh, iterations, trace_dir=None):
    """One busy-stencil run with the default memory sink (``trace_dir=None``)
    or a fresh disk-sink directory; returns ``(elapsed, metrics)``."""
    builder = ExperimentBuilder().workload(
        "busy-stencil", iterations=iterations, mesh=list(mesh)
    )
    if trace_dir is not None:
        builder = builder.trace(str(trace_dir))
    experiment = builder.build()
    start = time.perf_counter()
    result = experiment.run()
    return time.perf_counter() - start, result.metrics


def test_trace_sink_overhead(tmp_path):
    """Acceptance gate: streaming the trace to disk costs <= 25% in
    cycles/second against the in-memory sink on the busy 4x4x1 stencil --
    the regime where per-event cost matters most (every cluster issues on
    almost every cycle, so trace recording sits squarely on the hot path).
    Results must be identical either way; the measured overhead (~13% on an
    idle host) is recorded in the benchmark trajectory.  The two configs are
    timed in interleaved rounds and compared on best-of-3 wall time, so a
    host-load spike has to span the whole measurement (not just one config's
    window) to bias the ratio."""
    mesh, iterations = (4, 4, 1), 200
    memory_elapsed = disk_elapsed = None
    memory_metrics = disk_metrics = None
    for round_index in range(3):
        elapsed, memory_metrics = _one_traced_busy(mesh, iterations)
        memory_elapsed = elapsed if memory_elapsed is None else min(memory_elapsed, elapsed)
        elapsed, disk_metrics = _one_traced_busy(
            mesh, iterations, trace_dir=tmp_path / f"round-{round_index}"
        )
        disk_elapsed = elapsed if disk_elapsed is None else min(disk_elapsed, elapsed)
    assert disk_metrics == memory_metrics, "disk trace sink changed results"
    assert disk_metrics["verified"], "busy-stencil checksum mismatch"

    cycles = disk_metrics["cycles"]
    memory_cps = cycles / memory_elapsed
    disk_cps = cycles / disk_elapsed
    overhead = memory_elapsed and (disk_elapsed / memory_elapsed - 1.0)

    record_trajectory(
        "trace_sink_overhead",
        mesh="4x4x1",
        iterations=iterations,
        simulated_cycles=cycles,
        memory_sink_cycles_per_second=round(memory_cps),
        disk_sink_cycles_per_second=round(disk_cps),
        disk_overhead_fraction=round(overhead, 4),
    )
    report("Trace-sink overhead (busy 4x4x1 stencil, memory vs disk)", [
        f"simulated cycles        {cycles}",
        f"memory sink             {memory_cps:>12.0f} cycles/s",
        f"disk sink               {disk_cps:>12.0f} cycles/s",
        f"overhead                {overhead:>12.1%}",
    ])
    assert disk_cps >= memory_cps / 1.25, (
        f"disk trace sink costs {overhead:.1%} cycles/s (limit 25%)"
    )


def test_snapshot_save_restore_overhead(tmp_path):
    """Measure the cost of the repro.snapshot subsystem on the benchmark
    machine: wall time to save a mid-run snapshot, its size on disk, wall
    time to restore in-process, and the interruption-free checkpoint cadence
    those numbers support.  Recorded into the benchmark trajectory next to
    kernel throughput (restore correctness has its own test suite)."""
    machine = _build_machine("event")
    machine.run(600)  # mid-run: the remote-read chain needs ~1900 cycles
    snapshot_cycle = machine.cycle

    path = str(tmp_path / "bench.json")
    best_save = None
    for _ in range(3):
        start = time.perf_counter()
        machine.save_snapshot(path)
        elapsed = time.perf_counter() - start
        best_save = elapsed if best_save is None else min(best_save, elapsed)
    size_bytes = os.path.getsize(path)

    best_restore = None
    restored = None
    for _ in range(3):
        start = time.perf_counter()
        restored = MMachine.from_snapshot(path)
        elapsed = time.perf_counter() - start
        best_restore = elapsed if best_restore is None else min(best_restore, elapsed)
    assert restored.cycle == snapshot_cycle

    # The snapshotted machine is not perturbed: it still finishes correctly.
    cycles = _run(machine)

    record_trajectory(
        "snapshot_overhead",
        snapshot_cycle=snapshot_cycle,
        mesh="4x4x1",
        save_seconds=round(best_save, 6),
        restore_seconds=round(best_restore, 6),
        snapshot_bytes=size_bytes,
        final_cycles_after_snapshot=cycles,
    )

    report("Snapshot save/restore overhead (4x4x1, mid-run)", [
        f"save              {best_save * 1e3:>10.2f} ms",
        f"restore           {best_restore * 1e3:>10.2f} ms",
        f"snapshot size     {size_bytes:>10d} bytes",
    ])


def test_sdram_secded_throughput():
    """Memory-layer throughput: SECDED-encoded SDRAM words per second.

    Writes SDRAM_WORDS seeded 64-bit words through one ``Sdram`` with SECDED
    on, then reads them back, so every write encodes a codeword and every
    read decodes one (repro/memory/secded.py).  The rates are recorded in
    the trajectory, not gated: the host's speed drifts by up to 2x, and
    ``python -m bench`` gates the end-to-end effect on coherent-share-4x4.
    """
    rng = random.Random(0)
    values = [rng.getrandbits(64) for _ in range(SDRAM_WORDS)]
    sdram = Sdram(secded_enabled=True)

    start = time.perf_counter()
    for address, value in enumerate(values):
        sdram.write_word(address, value)
    write_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    read_back = [sdram.read_word(address) for address in range(SDRAM_WORDS)]
    read_elapsed = time.perf_counter() - start

    assert read_back == values
    assert sdram.corrected_errors == 0
    write_rate = SDRAM_WORDS / write_elapsed
    read_rate = SDRAM_WORDS / read_elapsed
    record_trajectory(
        "sdram_secded",
        words=SDRAM_WORDS,
        write_words_per_second=round(write_rate),
        read_words_per_second=round(read_rate),
    )
    report("SDRAM throughput with SECDED (one Sdram, seeded 64-bit words)", [
        f"words                   {SDRAM_WORDS}",
        f"write                   {write_rate:>12.0f} words/s",
        f"read                    {read_rate:>12.0f} words/s",
    ])
