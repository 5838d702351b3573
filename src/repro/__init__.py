"""repro: a reproduction of "The M-Machine Multicomputer" (Fillo, Keckler,
Dally, Carter, Chang, Gurevich & Lee, 1995).

The package provides a cycle-level simulator of the MAP multi-ALU processor,
the 3-D mesh multicomputer built from it, and the software runtime (event,
message and coherence handlers) that the paper's evaluation depends on,
together with the workloads and analysis harnesses that regenerate the
paper's tables and figures.

Quick start — the typed experiment API (see ``docs/api.md``)::

    from repro import Experiment, run_workload

    result = run_workload("ping-pong", rounds=8)        # one-shot
    assert result.verified and result.cycles is not None

    with (                                              # full builder
        Experiment.builder()
        .workload("flood", messages=16, send_credits=2)
        .build()
    ) as experiment:
        result = experiment.run()

Or drive a machine by hand::

    from repro import MMachine, MachineConfig

    machine = MMachine(MachineConfig.small(2, 1, 1))
    machine.map_on_node(0, 0x10000, num_pages=1)
    machine.write_word(0x10000, 41)
    machine.load_hthread(0, slot=0, cluster=0,
                         program="ld i2, i1\\nadd i2, i2, #1\\nst i2, i1\\nhalt",
                         registers={"i1": 0x10000})
    machine.run_until_user_done()
    assert machine.read_word(0x10000) == 42

See ``docs/architecture.md`` for the system inventory, and the report that
``repro report`` renders (committed for the smoke sweep under
``docs/reports/smoke/``) for the paper-vs-measured results.
"""

from repro.api import (
    Experiment,
    ExperimentBuilder,
    Provenance,
    RunResult,
    Workload,
    WorkloadSpec,
    get_workload,
    run_workload,
    workload,
)
from repro.core.config import (
    ClusterConfig,
    MachineConfig,
    MemoryConfig,
    NetworkConfig,
    NodeConfig,
    RuntimeConfig,
    SimConfig,
    EVENT_SLOT,
    EXCEPTION_SLOT,
    NUM_CLUSTERS,
    NUM_VTHREAD_SLOTS,
)
from repro.core.machine import MMachine
from repro.core.stats import MachineStats, format_table
from repro.core.area_model import AreaModel, TechnologyPoint, TECH_1993, TECH_1996
from repro.isa import Program, assemble, AssemblyError
from repro.memory.guarded_pointer import GuardedPointer, PointerPermission, ProtectionError
from repro.memory.page_table import BlockStatus

__version__ = "12.4.0"

__all__ = [
    "Experiment",
    "ExperimentBuilder",
    "Provenance",
    "RunResult",
    "Workload",
    "WorkloadSpec",
    "get_workload",
    "run_workload",
    "workload",
    "MMachine",
    "MachineConfig",
    "ClusterConfig",
    "MemoryConfig",
    "NetworkConfig",
    "NodeConfig",
    "RuntimeConfig",
    "SimConfig",
    "EVENT_SLOT",
    "EXCEPTION_SLOT",
    "NUM_CLUSTERS",
    "NUM_VTHREAD_SLOTS",
    "MachineStats",
    "format_table",
    "AreaModel",
    "TechnologyPoint",
    "TECH_1993",
    "TECH_1996",
    "Program",
    "assemble",
    "AssemblyError",
    "GuardedPointer",
    "PointerPermission",
    "ProtectionError",
    "BlockStatus",
    "__version__",
]
