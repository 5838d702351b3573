"""The M-Machine software runtime.

The paper's fast remote memory access and DRAM caching are co-designed
hardware/software mechanisms: the hardware detects the condition (LTLB miss,
block-status fault, message arrival) and dedicated H-Threads of the resident
event V-Thread run the software that completes the operation.  This package
provides that software in two flavours selected by
``MachineConfig.runtime.shared_memory_mode``:

``"remote"`` (Section 4.2, the configuration evaluated in Table 1/Figure 9)
    Assembly handlers for the LTLB miss, remote read/write request and reply
    paths, plus a native retry handler for memory-synchronizing faults.

``"coherent"`` (Section 4.3)
    Native handlers implementing software DRAM caching of remote blocks with
    block-status bits and a home-node directory.

A machine configured with ``"none"`` installs no runtime: LTLB misses and
faults are left in their queues (useful for unit tests of the hardware
mechanisms in isolation).
"""

from __future__ import annotations

from repro.core.config import (
    EVENT_CLUSTER_LTLB,
    EVENT_CLUSTER_MSG_P0,
    EVENT_CLUSTER_MSG_P1,
    EVENT_SLOT,
)
from repro.runtime.asm_handlers import AsmRuntimePrograms, build_asm_runtime
from repro.runtime.coherence import CoherenceRuntime
from repro.runtime.layout import RuntimeEnvironment
from repro.runtime.native import SyncStatusFaultHandler

__all__ = [
    "install_runtime",
    "RuntimeEnvironment",
    "AsmRuntimePrograms",
    "build_asm_runtime",
    "CoherenceRuntime",
]


def install_runtime(machine) -> RuntimeEnvironment:
    """Install the runtime selected by the machine's configuration on every
    node and return the resulting :class:`RuntimeEnvironment`."""
    mode = machine.config.runtime.shared_memory_mode
    if mode == "remote":
        return _install_remote_runtime(machine)
    if mode == "coherent":
        return _install_coherent_runtime(machine)
    raise ValueError(f"unknown shared-memory mode {mode!r}")


def _install_remote_runtime(machine) -> RuntimeEnvironment:
    """Section 4.2: assembly handlers in the event V-Thread of every node."""
    lpt_base = machine.nodes[0].lpt_phys_base
    programs = build_asm_runtime(lpt_base)
    for node in machine.nodes:
        node.load_hthread(EVENT_SLOT, EVENT_CLUSTER_LTLB, programs.ltlb_handler)
        node.load_hthread(EVENT_SLOT, EVENT_CLUSTER_MSG_P0, programs.message_p0_handler)
        node.load_hthread(EVENT_SLOT, EVENT_CLUSTER_MSG_P1, programs.message_p1_handler)
        node.native_handlers.append(SyncStatusFaultHandler(node, node.event_queue_sync))
        if machine.config.runtime.protection_enabled:
            node.net.register_dips(
                {programs.dips["remote_store"], programs.dips["remote_load"]}
            )
    return RuntimeEnvironment(dips=dict(programs.dips))


def _install_coherent_runtime(machine) -> RuntimeEnvironment:
    """Section 4.3: native handlers implementing software DRAM caching."""
    coherence = CoherenceRuntime(machine)
    coherence.install()
    return RuntimeEnvironment(coherence=coherence)
