"""Machine configuration.

:class:`MachineConfig` holds what workloads, sweeps and the experiment
builder vary: the mesh shape, the issue policy, the message-queue capacity,
send credits and retransmission interval, the runtime mode and protection,
the simulation kernel and whether the trace is on.  Where a run's trace is
kept is not part of the machine: :meth:`repro.core.trace.Tracer.stream_to`
and ``Experiment.trace`` choose it per machine.  ``node.num_clusters`` and
``memory.page_size_words`` stay readable but accept only their constants.

The rest is the one machine the paper evaluates: a 3-D mesh of MAP chips
(Figures 1 and 2), each with four three-issue clusters, six resident
V-Thread slots (Section 3.2), a four-bank 32 KB cache and 1 MW of SDRAM,
with 512-word pages of eight-word blocks (Sections 2 and 4.3).  Its
structure and timing are module constants next to the code that uses them:
the register files and cluster count in :mod:`repro.isa.registers`, the
I-cache in :mod:`repro.cluster.icache`, the cache, LTLB, page table, SDRAM
and memory-system latencies in :mod:`repro.memory`, the GTLB and network
latencies in :mod:`repro.network`, the queues and switches in
:mod:`repro.node.node` and :mod:`repro.switches.crossbar`, and the
native-handler costs in :mod:`repro.runtime.native`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Tuple, Type

from repro.core.scheduler import DRIVERS
from repro.isa.registers import NUM_CLUSTERS
from repro.memory.page_table import PAGE_SIZE_WORDS

# ---------------------------------------------------------------------------
# Architectural constants (fixed by the paper's description of the MAP chip).
# ---------------------------------------------------------------------------

#: Resident V-Thread slots per node.
NUM_VTHREAD_SLOTS = 6
#: User V-Thread slots (slots 0..3).
NUM_USER_SLOTS = 4
#: The V-Thread slot reserved for asynchronous event and message handlers.
EVENT_SLOT = 4
#: The V-Thread slot reserved for synchronous exception handlers.
EXCEPTION_SLOT = 5

#: Event-handler H-Thread assignment within the event V-Thread (Section 3.3):
#: memory synchronization and block-status faults on cluster 0, LTLB misses on
#: cluster 1, priority-0 messages on cluster 2, priority-1 messages on
#: cluster 3.
EVENT_CLUSTER_SYNC_STATUS = 0
EVENT_CLUSTER_LTLB = 1
EVENT_CLUSTER_MSG_P0 = 2
EVENT_CLUSTER_MSG_P1 = 3


@dataclass
class ClusterConfig:
    """Per-cluster issue behaviour."""

    #: Thread-selection policy of the synchronization stage:
    #: ``"event-priority"`` (exception slot, then event slot, then user slots
    #: round-robin) or ``"round-robin"`` (pure round-robin over all slots) or
    #: ``"hep"`` (the issue turn rotates over *all* slots with the clock,
    #: whether or not a slot holds a thread, even when only one thread is
    #: ready, modelling HEP/MASA-style barrel scheduling for the
    #: single-thread-performance ablation of Section 3.4).
    issue_policy: str = "event-priority"


@dataclass
class MemoryConfig:
    """Memory parameters.  The geometry and timing are constants of the
    :mod:`repro.memory` modules; only the page size stays readable."""

    #: Words per page; only ``PAGE_SIZE_WORDS`` of
    #: :mod:`repro.memory.page_table` is accepted.
    page_size_words: int = 512


@dataclass
class NetworkConfig:
    """3-D mesh shape and network-interface flow control."""

    #: Mesh dimensions (X, Y, Z).  The paper's prototype target is a 3-D mesh;
    #: small examples use e.g. (2, 1, 1).
    mesh_shape: Tuple[int, int, int] = (2, 2, 2)
    #: Capacity of each priority's register-mapped message queue, in words.
    message_queue_words: int = 128
    #: Return-to-sender throttling: number of outstanding unacknowledged
    #: priority-0 messages a node may have in flight (buffer reservations).
    send_credits: int = 16
    #: Cycles between retransmission attempts of returned (NACKed) messages.
    retransmit_interval: int = 32


@dataclass
class NodeConfig:
    """Per-node structure.  The V-Thread slots (:data:`NUM_VTHREAD_SLOTS`),
    queue capacities and switch latencies are constants; only the cluster
    count stays readable."""

    #: Clusters per MAP chip; only ``NUM_CLUSTERS`` is accepted.
    num_clusters: int = NUM_CLUSTERS


@dataclass
class RuntimeConfig:
    """Software runtime configuration."""

    #: Enable guarded-pointer protection checks on memory operations and the
    #: send-DIP check.  Off by default so that plain integer addresses can be
    #: used in microbenchmarks; protection-focused tests switch it on.
    protection_enabled: bool = False
    #: Shared-memory mode:
    #: ``"none"``     -- no remote-memory handlers installed;
    #: ``"remote"``   -- Section 4.2 non-cached remote access via assembly
    #:                    handlers in the event V-Thread;
    #: ``"coherent"`` -- Section 4.3 software DRAM caching with block-status
    #:                    bits (native handlers).
    shared_memory_mode: str = "remote"


@dataclass
class SimConfig:
    """Host-side simulation-kernel configuration.

    This selects how the simulator spends *host* time; it has no
    architectural effect -- both kernels produce identical cycle counts and
    statistics (enforced by ``tests/integration/test_kernel_equivalence.py``).
    The cluster issue stage has a single implementation
    (:mod:`repro.cluster.dispatch`), so the clock driver is the only choice.
    """

    #: ``"event"`` -- the activity-tracked, cycle-skipping kernel of
    #: :mod:`repro.core.scheduler` (default): idle nodes are not ticked and
    #: the clock jumps over globally-idle spans, so host cost is O(work).
    #: ``"naive"`` -- the reference loop: tick every node every cycle,
    #: O(cycles x nodes); kept for differential testing.
    kernel: str = "event"


@dataclass
class MachineConfig:
    """Top-level configuration of an M-Machine."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    node: NodeConfig = field(default_factory=NodeConfig)
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    #: Collect a detailed trace (required by the Figure 9 timeline analysis;
    #: cheap enough to leave on by default).
    trace_enabled: bool = True

    @property
    def num_nodes(self) -> int:
        x, y, z = self.network.mesh_shape
        return x * y * z

    @classmethod
    def small(cls, nodes_x: int = 2, nodes_y: int = 1, nodes_z: int = 1) -> "MachineConfig":
        """A small machine suitable for unit tests and microbenchmarks."""
        config = cls()
        config.network.mesh_shape = (nodes_x, nodes_y, nodes_z)
        return config

    @classmethod
    def single_node(cls) -> "MachineConfig":
        return cls.small(1, 1, 1)

    def validate(self) -> None:
        """Check every field's type and range; raises ValueError naming the
        first bad field, or an attribute that is not a field."""
        _check_attributes("config", self)
        for section in _SECTIONS:
            _check_attributes(f"config.{section}", getattr(self, section))
        if type(self.node.num_clusters) is not int or self.node.num_clusters != NUM_CLUSTERS:
            raise ValueError(
                f"node.num_clusters must be {NUM_CLUSTERS}, got {self.node.num_clusters!r}"
            )
        page_size = self.memory.page_size_words
        if type(page_size) is not int or page_size != PAGE_SIZE_WORDS:
            raise ValueError(
                f"memory.page_size_words must be {PAGE_SIZE_WORDS}, got {page_size!r}"
            )
        shape = self.network.mesh_shape
        if len(shape) != 3 or any(not isinstance(dim, int) or dim <= 0 for dim in shape):
            raise ValueError(f"mesh shape must be three positive ints, got {shape!r}")
        for name, value in (
            ("network.message_queue_words", self.network.message_queue_words),
            ("network.send_credits", self.network.send_credits),
            ("network.retransmit_interval", self.network.retransmit_interval),
        ):
            if type(value) is not int or value <= 0:
                raise ValueError(f"{name} must be a positive int, got {value!r}")
        for name, value in (
            ("runtime.protection_enabled", self.runtime.protection_enabled),
            ("trace_enabled", self.trace_enabled),
        ):
            if type(value) is not bool:
                raise ValueError(f"{name} must be a bool, got {value!r}")
        if self.runtime.shared_memory_mode not in ("none", "remote", "coherent"):
            raise ValueError(f"unknown shared-memory mode {self.runtime.shared_memory_mode!r}")
        if self.cluster.issue_policy not in ("event-priority", "round-robin", "hep"):
            raise ValueError(f"unknown issue policy {self.cluster.issue_policy!r}")
        if self.sim.kernel not in DRIVERS:
            raise ValueError(f"unknown simulation kernel {self.sim.kernel!r}")


def _check_attributes(name: str, section: object) -> None:
    """Refuse an attribute of *section* that is not one of its fields: the
    dataclasses have no slots, so assigning a removed or misspelt field
    would otherwise do nothing."""
    known = {spec.name for spec in fields(section)}
    for attr in vars(section):
        if attr not in known:
            raise ValueError(f"{name} has no field {attr!r}")


# ---------------------------------------------------------------------------
# Dotted-key configuration overrides (``"section.attr"``).
#
# Workload factories, the sweep subsystem and the ``repro.api`` experiment
# builder all accept flat ``{"network.send_credits": 2}``-style overrides;
# this is the one place that decides which keys exist, so a typo fails loudly
# instead of silently setting a dead attribute.
# ---------------------------------------------------------------------------

#: ``section name -> section dataclass`` for the dotted override namespace.
_SECTIONS: Dict[str, Type[object]] = {
    "cluster": ClusterConfig,
    "memory": MemoryConfig,
    "network": NetworkConfig,
    "node": NodeConfig,
    "runtime": RuntimeConfig,
    "sim": SimConfig,
}

#: Top-level ``MachineConfig`` attributes addressable without a section.
_TOP_LEVEL_KEYS: Tuple[str, ...] = ("trace_enabled",)

#: Workload parameters that set a config key, with that key.  A workload
#: factory sets each key from its parameter, so the experiment builder
#: refuses an override of the key for a workload that takes the parameter.
PARAM_KEYS: Dict[str, str] = {
    "mesh": "network.mesh_shape",
    "kernel": "sim.kernel",
    "mode": "runtime.shared_memory_mode",
    "policy": "cluster.issue_policy",
    "send_credits": "network.send_credits",
    "queue_words": "network.message_queue_words",
    "retransmit_interval": "network.retransmit_interval",
}


def override_keys() -> List[str]:
    """Every valid dotted override key, sorted (``"section.attr"`` plus
    ``trace_enabled``)."""
    keys = list(_TOP_LEVEL_KEYS)
    for section, section_type in _SECTIONS.items():
        keys.extend(f"{section}.{spec.name}" for spec in fields(section_type))
    return sorted(keys)


def validate_override_key(key: str) -> None:
    """Raise ``ValueError`` unless *key* names a real configuration attribute.

    The error lists the valid alternatives: all section names for an unknown
    section, the section's own keys for an unknown attribute.
    """
    if key in _TOP_LEVEL_KEYS:
        return
    section, _, attr = key.partition(".")
    if section not in _SECTIONS:
        valid = ", ".join(sorted(_SECTIONS) + list(_TOP_LEVEL_KEYS))
        raise ValueError(
            f"unknown config override {key!r}: no section {section!r} "
            f"(valid: {valid})"
        )
    section_keys = [spec.name for spec in fields(_SECTIONS[section])]
    if attr not in section_keys:
        valid = ", ".join(f"{section}.{name}" for name in section_keys)
        raise ValueError(
            f"unknown config override {key!r} (valid {section}.* keys: {valid})"
        )


def apply_overrides(config: MachineConfig, overrides: Mapping[str, object]) -> MachineConfig:
    """Apply dotted-key *overrides* to *config* in place and return it.

    Every key is validated first (:func:`validate_override_key`), so a typo'd
    key raises before any attribute is mutated.
    """
    for key in overrides:
        validate_override_key(key)
    for key, value in overrides.items():
        if key in _TOP_LEVEL_KEYS:
            setattr(config, key, value)
            continue
        section, _, attr = key.partition(".")
        setattr(getattr(config, section), attr, value)
    return config
