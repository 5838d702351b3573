"""Workload generators.

The paper's evaluation uses small hand-scheduled kernels: the 7-point and
27-point stencil smoothing operators of Figure 5 (instruction-level
parallelism across H-Threads), the CC-register loop synchronisation of
Figure 6, and the message floods of the throttling ablation.  This package
generates those kernels as MAP assembly plus the data placement and expected
results needed to verify them; the Table 1 / Figure 9 access probes live in
:mod:`repro.analysis.latency`.

The named paper-figure workloads live in :mod:`repro.workloads.factories`
and are looked up and run through the typed facade
(``from repro import workload, run_workload, get_workload``).
"""

from repro.workloads.stencil import (
    Grid3D,
    StencilWorkload,
    SEVEN_POINT_OFFSETS,
    TWENTY_SEVEN_POINT_OFFSETS,
    make_stencil_workload,
)
from repro.workloads.microbench import (
    cc_loop_sync_programs,
    cc_barrier_programs,
    dependent_load_chain_program,
    compute_loop_program,
)
from repro.workloads.synthetic import many_to_one_store_programs

__all__ = [
    "Grid3D",
    "StencilWorkload",
    "SEVEN_POINT_OFFSETS",
    "TWENTY_SEVEN_POINT_OFFSETS",
    "make_stencil_workload",
    "cc_loop_sync_programs",
    "cc_barrier_programs",
    "dependent_load_chain_program",
    "compute_loop_program",
    "many_to_one_store_programs",
]
