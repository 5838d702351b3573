"""Microbenchmark kernels.

These small generated kernels drive the Figure 6 reproduction (loop
synchronisation between H-Threads through the global condition-code
registers), the V-Thread latency-tolerance ablation, and assorted unit and
integration tests.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.isa.assembler import assemble
from repro.isa.program import Program


# ---------------------------------------------------------------------------
# Figure 6: loop synchronisation through global CC registers
# ---------------------------------------------------------------------------


def cc_loop_sync_programs(iterations: int) -> Dict[int, Program]:
    """The two-H-Thread interlocked loop of Figure 6.

    H-Thread 0 (cluster 0) computes the loop induction variable, compares it
    against the end value and broadcasts the result on ``gcc1``; H-Thread 1
    (cluster 1) consumes ``gcc1``, re-empties it and notifies H-Thread 0 on
    ``gcc3``.  Neither thread can roll over into the next iteration before
    the other has finished the current one.

    Registers: ``i1`` of cluster 0 holds the iteration count (set by the
    caller through the returned programs' initial registers is not needed --
    the count is baked in as an immediate).
    """
    source0 = f"""
    ; Figure 6, H-Thread 0 (cluster 0)
    mov i1, #{iterations}
    mov i2, #0
    empty gcc3
loop0:
    add i2, i2, #1              ; "compute bar"
    eq gcc1, i2, i1             ; broadcast bar == end
    mov i3, gcc3                ; block until H-Thread 1 consumed gcc1
    empty gcc3
    brz gcc1, loop0
    halt
"""
    source1 = """
    ; Figure 6, H-Thread 1 (cluster 1)
    mov i2, #0
    empty gcc1
loop1:
    add i2, i2, #1              ; "compute / use"
    mov i4, gcc1                ; block until H-Thread 0's comparison arrives
    empty gcc1
    mov gcc3, #1                ; notify: current gcc1 value consumed
    brz i4, loop1
    halt
"""
    return {
        0: assemble(source0, name="cc-sync-h0"),
        1: assemble(source1, name="cc-sync-h1"),
    }


def cc_barrier_programs(iterations: int, num_clusters: int = 4) -> Dict[int, Program]:
    """A fast barrier among H-Threads on different clusters using the
    replicated global CC registers (the extension discussed at the end of
    Section 3.1: no combining or distribution trees are needed).

    The barrier is two-phase, using both registers of each cluster's
    broadcast pair, which is the interlocking idea of Figure 6 generalised to
    four participants: cluster ``k`` announces arrival on ``gcc(2k)``, waits
    for everyone's arrival flag and empties its local copies, then announces
    "seen" on ``gcc(2k+1)`` and waits for everyone's second flag before
    starting the next iteration.  The second phase guarantees nobody can wipe
    out a neighbour's next-iteration announcement.
    """
    programs = {}
    arrive_flags = [f"gcc{2 * cluster}" for cluster in range(num_clusters)]
    seen_flags = [f"gcc{2 * cluster + 1}" for cluster in range(num_clusters)]
    for cluster in range(num_clusters):
        arrive_waits = "\n".join(
            f"    mov i4, {flag}            ; wait for cluster {other}'s arrival"
            for other, flag in enumerate(arrive_flags)
        )
        seen_waits = "\n".join(
            f"    mov i4, {flag}            ; wait for cluster {other}'s phase-2 flag"
            for other, flag in enumerate(seen_flags)
        )
        arrive_list = ", ".join(arrive_flags)
        seen_list = ", ".join(seen_flags)
        source = f"""
    ; {num_clusters}-way CC-register barrier, cluster {cluster}
    mov i1, #{iterations}
    mov i2, #0
    empty {arrive_list}
    empty {seen_list}
loop:
    add i2, i2, #1              ; per-iteration work
    mov {arrive_flags[cluster]}, #1     ; phase 1: announce arrival (broadcast)
{arrive_waits}
    empty {arrive_list}
    mov {seen_flags[cluster]}, #1       ; phase 2: announce consumption
{seen_waits}
    empty {seen_list}
    lt i5, i2, i1
    br i5, loop
    halt
"""
        programs[cluster] = assemble(source, name=f"cc-barrier-c{cluster}")
    return programs


# ---------------------------------------------------------------------------
# Latency-tolerance kernels (V-Thread ablation, Section 3.2/3.4)
# ---------------------------------------------------------------------------


def dependent_load_chain_program(chain_loads: int) -> Program:
    """Follow a pointer chain in memory: each load's value is the next
    address.  ``i1`` must hold the address of the chain head.  The final
    pointer value lands in ``i5`` and the thread halts.

    With a single resident thread every load's full latency is exposed; with
    several V-Threads interleaved the cluster issues other threads' work
    while each chain waits, which is the latency-tolerance argument of
    Section 3.2."""
    lines = ["; dependent (pointer-chasing) load chain", "mov i2, i1"]
    for _ in range(chain_loads):
        lines.append("ld i2, i2")
    lines.append("mov i5, i2")
    lines.append("halt")
    return assemble("\n".join(lines), name=f"dep-chain-{chain_loads}")


def compute_loop_program(iterations: int) -> Program:
    """A purely arithmetic loop (no memory), used to measure single-thread
    issue behaviour under the different thread-selection policies.  ``i5``
    counts up by 3 per iteration."""
    source = f"""
    ; arithmetic loop
    mov i1, #{iterations}
    mov i2, #0
    mov i5, #0
loop:
    add i5, i5, #3
    add i2, i2, #1
    lt i3, i2, i1
    br i3, loop
    halt
"""
    return assemble(source, name=f"compute-loop-{iterations}")


def build_pointer_chain(length: int, base_address: int, stride: int = 8) -> List[Tuple[int, int]]:
    """Return ``(address, value)`` pairs forming a pointer chain starting at
    *base_address*; the last element points back to the first."""
    addresses = [base_address + index * stride for index in range(length)]
    pairs = []
    for index, address in enumerate(addresses):
        next_address = addresses[(index + 1) % length]
        pairs.append((address, next_address))
    return pairs
