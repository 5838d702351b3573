"""Stencil smoothing kernels (Figure 5 and Section 3.1).

The paper's running example is the inner loop of a multigrid-style smoothing
operator on a 3-D grid::

    u* = u + a*r_c + b*(r_u + r_d + r_n + r_s + r_e + r_w)

where ``r`` is the residual grid and the subscripts name the six face
neighbours (the 7-point stencil); the 27-point variant sums all 26
neighbours.  Figure 5 shows hand schedules for one and two H-Threads; the
paper reports static instruction depths of 12 vs 8 for the 7-point stencil
and 36 vs 17 (1 vs 4 H-Threads) for the 27-point stencil.

:func:`make_stencil_workload` generates equivalent schedules for 1, 2 or 4
H-Threads with a small list scheduler (loads in the memory-unit slot paired
with accumulation in the FPU slot, partial sums combined on cluster 0 through
inter-cluster register writes), sets up the grid data, and verifies the
numerical result after the run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.machine import MMachine
from repro.isa.assembler import assemble
from repro.isa.program import Program

#: Face-neighbour offsets of the 7-point stencil (excluding the centre).
SEVEN_POINT_OFFSETS: List[Tuple[int, int, int]] = [
    (1, 0, 0), (-1, 0, 0),
    (0, 1, 0), (0, -1, 0),
    (0, 0, 1), (0, 0, -1),
]

#: All 26 neighbour offsets of the 27-point stencil.
TWENTY_SEVEN_POINT_OFFSETS: List[Tuple[int, int, int]] = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]


@dataclass
class Grid3D:
    """A dense 3-D grid of 64-bit words in the global address space."""

    base_address: int
    nx: int
    ny: int
    nz: int

    @property
    def size(self) -> int:
        return self.nx * self.ny * self.nz

    def index(self, x: int, y: int, z: int) -> int:
        if not (0 <= x < self.nx and 0 <= y < self.ny and 0 <= z < self.nz):
            raise IndexError(f"grid point ({x},{y},{z}) outside {self.nx}x{self.ny}x{self.nz}")
        return x + self.nx * (y + self.ny * z)

    def address(self, x: int, y: int, z: int) -> int:
        return self.base_address + self.index(x, y, z)

    def word_offset(self, offset: Tuple[int, int, int]) -> int:
        """Word-address delta of a neighbour offset."""
        dx, dy, dz = offset
        return dx + self.nx * (dy + self.ny * dz)


#: Shape of the residual and solution grids.
GRID_SHAPE = (4, 4, 4)
#: The residual grid ``r`` and the solution grid ``u``.
RESIDUAL_GRID = Grid3D(0x10000, *GRID_SHAPE)
SOLUTION_GRID = Grid3D(0x11000, *GRID_SHAPE)
#: The grid point whose ``u`` the kernel updates.
POINT = (1, 1, 1)
#: The centre weight ``a`` and the neighbour weight ``b``.
WEIGHT_A = 0.5
WEIGHT_B = 0.125
#: Node and V-Thread slot that run the kernel.
NODE_ID = 0
SLOT = 0
#: Largest difference from the expected value that ``verify`` accepts.
TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------

_SCRATCH_FP = ["f3", "f4", "f5", "f6", "f7", "f8", "f9"]
_ACC = "f10"
#: Registers on the storing cluster that receive the other clusters' partials.
_PARTIAL_REGS = ["f11", "f12", "f13"]
_CENTER_REG = "f14"
_U_REG = "f15"
#: f1 holds the neighbour weight ``b``; f2 holds the centre weight ``a``.
_B_REG = "f1"
_A_REG = "f2"


@dataclass
class _Slotted:
    """One 3-wide instruction under construction (one op per unit slot)."""

    ialu: Optional[str] = None
    mem: Optional[str] = None
    fpu: Optional[str] = None

    @property
    def empty(self) -> bool:
        return self.ialu is None and self.mem is None and self.fpu is None

    def render(self) -> str:
        return " | ".join(part for part in (self.ialu, self.mem, self.fpu) if part)


def _schedule_partial_sum(word_offsets: Sequence[int]) -> List[_Slotted]:
    """Schedule loads + accumulation of a set of neighbours, relative to the
    centre address in ``i1``, into ``_ACC``.

    Each instruction carries at most one load (memory unit) and one fadd
    (FPU), the way Figure 5 pairs them; after the last accumulation ``_ACC``
    holds the un-weighted partial sum.
    """
    lines: List[_Slotted] = []
    pending = deque(word_offsets)
    loaded: deque = deque()
    free = list(_SCRATCH_FP)
    acc_live = False

    if not pending:
        lines.append(_Slotted(fpu=f"fmov {_ACC}, #0.0"))
        return lines
    if len(pending) == 1:
        offset = pending.popleft()
        lines.append(_Slotted(mem=f"ld f3, i1, #{offset}"))
        lines.append(_Slotted(fpu=f"fmov {_ACC}, f3"))
        return lines

    while pending or loaded:
        line = _Slotted()
        newly: Optional[str] = None
        if pending and free:
            register = free.pop(0)
            offset = pending.popleft()
            line.mem = f"ld {register}, i1, #{offset}"
            newly = register
        if loaded:
            if not acc_live:
                if len(loaded) >= 2:
                    first, second = loaded.popleft(), loaded.popleft()
                    line.fpu = f"fadd {_ACC}, {first}, {second}"
                    free.extend([first, second])
                    acc_live = True
                elif not pending and newly is None:
                    only = loaded.popleft()
                    line.fpu = f"fmov {_ACC}, {only}"
                    free.append(only)
                    acc_live = True
            else:
                value = loaded.popleft()
                line.fpu = f"fadd {_ACC}, {_ACC}, {value}"
                free.append(value)
        if newly is not None:
            loaded.append(newly)
        if not line.empty:
            lines.append(line)
    return lines


def _place_mem(lines: List[_Slotted], op: str, not_before: int = 0) -> int:
    """Place a memory op into the first free memory slot at or after
    *not_before*; appends a new instruction when none is free.  Returns the
    index used."""
    for index in range(not_before, len(lines)):
        if lines[index].mem is None:
            lines[index].mem = op
            return index
    lines.append(_Slotted(mem=op))
    return len(lines) - 1


def _place_fp(lines: List[_Slotted], op: str, not_before: int) -> int:
    """Place an FP op into the first free FPU slot strictly after the
    instruction producing its newest operand (*not_before*)."""
    for index in range(not_before, len(lines)):
        if lines[index].fpu is None:
            lines[index].fpu = op
            return index
    lines.append(_Slotted(fpu=op))
    return len(lines) - 1


def _last_fp_index(lines: List[_Slotted]) -> int:
    last = -1
    for index, line in enumerate(lines):
        if line.fpu is not None:
            last = index
    return last


def _render(lines: List[_Slotted], header: str) -> str:
    rendered = [header]
    rendered.extend(line.render() for line in lines if not line.empty)
    rendered.append("halt")
    return "\n".join(rendered)


def _center_thread_source(word_offsets: Sequence[int], send_to: Optional[int]) -> str:
    """The H-Thread that handles the centre point and ``u`` (cluster 0).

    It computes ``u + a*r_c + b*(its neighbours)``; with more than one
    H-Thread the total is shipped to the storing cluster's ``f11`` by
    targetting the remote register directly in the final fadd, exactly as
    instruction 7 of Figure 5(b) does.
    """
    lines = _schedule_partial_sum(word_offsets)
    last_acc = _last_fp_index(lines)
    # Load the centre residual and u into free memory slots.
    center_index = _place_mem(lines, f"ld {_CENTER_REG}, i1")
    u_index = _place_mem(lines, f"ld {_U_REG}, i2")
    # Weight the partial sum; then fold in a*r_c and u.  Placement respects
    # program order against the producing loads so no operation reads a
    # register before it has been (re)loaded.
    index = _place_fp(lines, f"fmul {_ACC}, {_B_REG}, {_ACC}", last_acc + 1)
    index = _place_fp(lines, f"fmul {_CENTER_REG}, {_A_REG}, {_CENTER_REG}",
                      max(index, center_index) + 1)
    index = _place_fp(lines, f"fadd {_U_REG}, {_U_REG}, {_CENTER_REG}",
                      max(index, u_index) + 1)
    if send_to is None:
        index = _place_fp(lines, f"fadd {_U_REG}, {_U_REG}, {_ACC}", index + 1)
        _place_mem(lines, f"st {_U_REG}, i2", index + 1)
    else:
        _place_fp(lines, f"fadd c{send_to}.{_PARTIAL_REGS[0]}, {_U_REG}, {_ACC}", index + 1)
    return _render(lines, "; stencil centre H-Thread (cluster 0)")


def _worker_thread_source(word_offsets: Sequence[int], worker_index: int, send_to: int) -> str:
    """A pure-neighbour worker H-Thread: partial sum, weight by b, ship the
    result to the storing cluster."""
    lines = _schedule_partial_sum(word_offsets)
    last_acc = _last_fp_index(lines)
    destination = _PARTIAL_REGS[worker_index]
    _place_fp(lines, f"fmul c{send_to}.{destination}, {_B_REG}, {_ACC}", last_acc + 1)
    return _render(lines, f"; stencil worker H-Thread {worker_index}")


def _store_thread_source(word_offsets: Sequence[int], num_partials: int) -> str:
    """The storing H-Thread (the highest-numbered cluster): its own partial,
    the combination of all incoming partials, and the store of u*."""
    lines = _schedule_partial_sum(word_offsets)
    # Prepare the receive registers for the inter-cluster transfers; the
    # empty pairs into the integer slot of the first instruction, as in
    # instruction 2 of Figure 5(b).
    receive = ", ".join(_PARTIAL_REGS[:num_partials])
    if lines:
        lines[0].ialu = f"empty {receive}"
    else:
        lines.append(_Slotted(ialu=f"empty {receive}"))
    last_acc = _last_fp_index(lines)
    index = _place_fp(lines, f"fmul {_ACC}, {_B_REG}, {_ACC}", last_acc + 1)
    for partial in range(num_partials):
        index = _place_fp(lines, f"fadd {_ACC}, {_ACC}, {_PARTIAL_REGS[partial]}", index + 1)
    _place_mem(lines, f"st {_ACC}, i2", index + 1)
    return _render(lines, "; stencil storing H-Thread")


# ---------------------------------------------------------------------------
# The workload object
# ---------------------------------------------------------------------------


@dataclass
class StencilWorkload:
    """A generated stencil kernel, its data placement and expected result."""

    kind: str
    n_hthreads: int
    programs: Dict[int, Program] = field(default_factory=dict)
    sources: Dict[int, str] = field(default_factory=dict)
    initial_registers: Dict[int, dict] = field(default_factory=dict)
    expected_value: float = 0.0

    @property
    def static_depths(self) -> Dict[int, int]:
        """Static instruction count per H-Thread, *excluding* the final halt
        (which Figure 5 does not count)."""
        return {cluster: len(program) - 1 for cluster, program in self.programs.items()}

    @property
    def max_static_depth(self) -> int:
        """The static depth of the schedule: the longest H-Thread."""
        return max(self.static_depths.values())

    @property
    def total_operations(self) -> int:
        return sum(program.operation_count for program in self.programs.values())

    # -- machine interaction ------------------------------------------------------

    def setup(self, machine: MMachine) -> None:
        """Write the grid data and load the kernel's H-Threads."""
        residual, solution = RESIDUAL_GRID, SOLUTION_GRID
        rx, ry, rz = GRID_SHAPE
        for z in range(rz):
            for y in range(ry):
                for x in range(rx):
                    machine.write_word(residual.address(x, y, z),
                                       float(1 + residual.index(x, y, z) % 7) * 0.5)
                    machine.write_word(solution.address(x, y, z),
                                       float(1 + solution.index(x, y, z) % 5) * 0.25)
        self.expected_value = self._expected(machine)
        for cluster, program in self.programs.items():
            machine.load_hthread(
                NODE_ID, SLOT, cluster, program,
                registers=self.initial_registers[cluster],
            )

    def _expected(self, machine: MMachine) -> float:
        x, y, z = POINT
        residual, solution = RESIDUAL_GRID, SOLUTION_GRID
        offsets = SEVEN_POINT_OFFSETS if self.kind == "7pt" else TWENTY_SEVEN_POINT_OFFSETS
        neighbour_sum = sum(
            machine.read_word(residual.address(x + dx, y + dy, z + dz))
            for dx, dy, dz in offsets
        )
        center = machine.read_word(residual.address(x, y, z))
        u_value = machine.read_word(solution.address(x, y, z))
        return u_value + WEIGHT_A * center + WEIGHT_B * neighbour_sum

    def result(self, machine: MMachine) -> float:
        return machine.read_word(SOLUTION_GRID.address(*POINT))

    def verify(self, machine: MMachine) -> bool:
        return abs(self.result(machine) - self.expected_value) <= TOLERANCE


def make_stencil_workload(kind: str = "7pt", n_hthreads: int = 1) -> StencilWorkload:
    """Generate a stencil kernel for 1, 2 or 4 H-Threads."""
    if kind not in ("7pt", "27pt"):
        raise ValueError("kind must be '7pt' or '27pt'")
    if n_hthreads not in (1, 2, 4):
        raise ValueError("the stencil kernels are scheduled for 1, 2 or 4 H-Threads")
    offsets = SEVEN_POINT_OFFSETS if kind == "7pt" else TWENTY_SEVEN_POINT_OFFSETS
    word_offsets = [RESIDUAL_GRID.word_offset(offset) for offset in offsets]

    # Distribute the neighbours over the H-Threads.  Cluster 0 additionally
    # handles the centre point and u, so (with more than one H-Thread) it
    # gets the smallest share; the highest-numbered cluster performs the
    # final combination and the store, as H-Thread 1 does in Figure 5(b).
    assignments: List[List[int]] = [[] for _ in range(n_hthreads)]
    if n_hthreads == 1:
        assignments[0] = list(word_offsets)
    else:
        position = 0
        for offset in word_offsets:
            assignments[1 + position % (n_hthreads - 1)].append(offset)
            position += 1
        # Re-balance: move a small share back to cluster 0 so every thread
        # has roughly (neighbours - 2) / n work, matching Figure 5(b)'s
        # 2/4 split for the 7-point stencil.
        target_for_center = max(0, (len(word_offsets) - 2 * (n_hthreads - 1)) // n_hthreads)
        donors = sorted(range(1, n_hthreads), key=lambda idx: -len(assignments[idx]))
        donor_cycle = 0
        while len(assignments[0]) < target_for_center and donors:
            donor = donors[donor_cycle % len(donors)]
            if len(assignments[donor]) > 1:
                assignments[0].append(assignments[donor].pop())
            donor_cycle += 1
            if donor_cycle > 10 * n_hthreads:
                break

    workload = StencilWorkload(kind=kind, n_hthreads=n_hthreads)
    center_address = RESIDUAL_GRID.address(*POINT)
    solution_address = SOLUTION_GRID.address(*POINT)

    store_cluster = n_hthreads - 1
    sources: Dict[int, str] = {}
    if n_hthreads == 1:
        sources[0] = _center_thread_source(assignments[0], send_to=None)
    else:
        sources[0] = _center_thread_source(assignments[0], send_to=store_cluster)
        for worker in range(1, n_hthreads - 1):
            sources[worker] = _worker_thread_source(
                assignments[worker], worker_index=worker, send_to=store_cluster
            )
        sources[store_cluster] = _store_thread_source(
            assignments[store_cluster], num_partials=n_hthreads - 1
        )

    for cluster, source in sources.items():
        workload.sources[cluster] = source
        workload.programs[cluster] = assemble(
            source, name=f"stencil-{kind}-{n_hthreads}h-c{cluster}"
        )
        registers = {"i1": center_address, "f1": WEIGHT_B}
        if cluster == 0:
            registers["i2"] = solution_address
            registers["f2"] = WEIGHT_A
        if cluster == store_cluster:
            registers["i2"] = solution_address
        workload.initial_registers[cluster] = registers
    return workload
