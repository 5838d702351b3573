"""Machine configuration.

All structural and timing parameters of the simulated M-Machine live here as
plain dataclasses so that tests, benchmarks and ablations can build machines
that differ in exactly one parameter.  The defaults reproduce the machine
described in the paper:

* a bidirectional 3-D mesh of nodes (Figure 1);
* each node a MAP chip with four 64-bit three-issue clusters, a four-bank
  32 KB on-chip cache, an external memory interface to 1 MW (8 MB) of SDRAM,
  a GTLB, and the network interfaces and router (Figure 2);
* six resident V-Thread slots per node: four user slots, one event slot and
  one exception slot (Section 3.2);
* pages of 512 words, eight-word cache/coherence blocks, two block-status
  bits per block (Sections 2 and 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Mapping, Optional, Tuple, Type

# ---------------------------------------------------------------------------
# Architectural constants (fixed by the paper's description of the MAP chip).
# ---------------------------------------------------------------------------

#: Clusters per MAP chip.
NUM_CLUSTERS = 4
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
    """Per-cluster structure and issue behaviour."""

    num_int_regs: int = 16
    num_fp_regs: int = 16
    num_cc_regs: int = 4
    num_gcc_regs: int = 8
    num_mc_regs: int = 8
    #: Instruction-cache capacity in words (1 KW = 8 KB per the paper); the
    #: cache model is always-hit but the loader checks capacity.
    icache_words: int = 1024
    #: Words one 3-wide instruction is assumed to occupy in the I-cache.
    words_per_instruction: int = 4
    #: Thread-selection policy of the synchronization stage:
    #: ``"event-priority"`` (exception slot, then event slot, then user slots
    #: round-robin) or ``"round-robin"`` (pure round-robin over all slots) or
    #: ``"hep"`` (the issue turn rotates over *all* slots with the clock,
    #: whether or not a slot holds a thread, even when only one thread is
    #: ready, modelling HEP/MASA-style barrel scheduling for the
    #: single-thread-performance ablation of Section 3.4).
    issue_policy: str = "event-priority"
    #: Enforce the global-CC pairing rule: cluster ``k`` may broadcast only to
    #: gcc ``2k`` and ``2k+1``.
    enforce_gcc_pairs: bool = True


#: ``ClusterConfig`` fields that size structures and must be positive ints.
_CLUSTER_POSITIVE_INTS = (
    "num_int_regs",
    "num_fp_regs",
    "num_cc_regs",
    "num_gcc_regs",
    "num_mc_regs",
    "icache_words",
    "words_per_instruction",
)


@dataclass
class MemoryConfig:
    """On-chip cache, LTLB, page table and SDRAM parameters."""

    cache_banks: int = 4
    bank_size_words: int = 4096
    line_size_words: int = 8
    cache_associativity: int = 2
    ltlb_entries: int = 64
    page_size_words: int = 512
    lpt_entries: int = 1024
    sdram_size_words: int = 1 << 20
    sdram_row_activate: int = 5
    sdram_cas: int = 2
    sdram_cycles_per_word: int = 1
    sdram_row_size_words: int = 1024
    secded_enabled: bool = True
    #: Cache-bank access latency (the 3-cycle load hit of the paper is
    #: M-Switch traversal + bank access + C-Switch traversal).
    bank_latency: int = 1
    mif_latency: int = 1
    ltlb_latency: int = 1
    fill_latency: int = 1
    #: Cycles to format and enqueue an asynchronous event record
    #: (Section 4.2 step 2: "LTLB miss occurs, enqueueing an event (2 cycles)").
    event_enqueue_latency: int = 2


@dataclass
class NetworkConfig:
    """3-D mesh network and network-interface parameters."""

    #: Mesh dimensions (X, Y, Z).  The paper's prototype target is a 3-D mesh;
    #: small examples use e.g. (2, 1, 1).
    mesh_shape: Tuple[int, int, int] = (2, 2, 2)
    #: Per-hop router latency (cycles).
    router_latency: int = 1
    #: Channel (link) traversal latency.
    channel_latency: int = 1
    #: Cycles from SEND issue to the head flit entering the router.
    inject_latency: int = 1
    #: Cycles from router ejection to the message appearing in the queue.
    eject_latency: int = 1
    #: Capacity of each priority's register-mapped message queue, in words.
    message_queue_words: int = 128
    #: Return-to-sender throttling: number of outstanding unacknowledged
    #: priority-0 messages a node may have in flight (buffer reservations).
    send_credits: int = 16
    #: Cycles between retransmission attempts of returned (NACKed) messages.
    retransmit_interval: int = 32
    #: Maximum message body length in words (bounded by the MC register count).
    max_body_words: int = 8


@dataclass
class NodeConfig:
    """Per-node structural parameters."""

    num_clusters: int = NUM_CLUSTERS
    num_vthread_slots: int = NUM_VTHREAD_SLOTS
    #: Capacity of each asynchronous event queue, in records.
    event_queue_records: int = 64
    #: Capacity of each per-cluster synchronous-exception queue, in records.
    exception_queue_records: int = 16
    #: C-Switch and M-Switch transfer budgets.
    switch_transfers_per_cycle: int = 4
    mswitch_latency: int = 1
    cswitch_latency: int = 1


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
    #: Cycle cost charged per native-handler invocation step (used only by the
    #: coherence runtime, whose handlers the paper does not specify in code).
    native_handler_dispatch_cycles: int = 6
    native_handler_cycles_per_word: int = 1
    #: Retry interval for the default synchronizing-fault handler.
    sync_fault_retry_cycles: int = 24


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
    #: When set, each machine streams its trace to a ``machine-N``
    #: subdirectory of this path (chunked JSONL+gzip, see ``docs/traces.md``)
    #: instead of holding events in memory — bounded RSS on long runs.
    trace_dir: Optional[str] = None
    #: Events per on-disk trace chunk (buffer high-water mark per machine).
    trace_chunk_events: int = 4096

    @property
    def num_nodes(self) -> int:
        x, y, z = self.network.mesh_shape
        return x * y * z

    def copy(self, **overrides) -> "MachineConfig":
        """Return a deep-ish copy with selected sub-configs replaced."""
        return MachineConfig(
            cluster=overrides.get("cluster", replace(self.cluster)),
            memory=overrides.get("memory", replace(self.memory)),
            network=overrides.get("network", replace(self.network)),
            node=overrides.get("node", replace(self.node)),
            runtime=overrides.get("runtime", replace(self.runtime)),
            sim=overrides.get("sim", replace(self.sim)),
            trace_enabled=overrides.get("trace_enabled", self.trace_enabled),
            trace_dir=overrides.get("trace_dir", self.trace_dir),
            trace_chunk_events=overrides.get(
                "trace_chunk_events", self.trace_chunk_events
            ),
        )

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
        """Sanity-check structural parameters; raises ValueError on nonsense."""
        if self.node.num_clusters <= 0:
            raise ValueError("a MAP chip needs at least one cluster")
        if EVENT_SLOT >= self.node.num_vthread_slots:
            raise ValueError("event slot outside the V-Thread slot range")
        if EXCEPTION_SLOT >= self.node.num_vthread_slots:
            raise ValueError("exception slot outside the V-Thread slot range")
        if self.memory.page_size_words % self.memory.line_size_words:
            raise ValueError("page size must be a whole number of blocks")
        shape = self.network.mesh_shape
        if len(shape) != 3 or any(not isinstance(dim, int) or dim <= 0 for dim in shape):
            raise ValueError(f"mesh shape must be three positive ints, got {shape!r}")
        for name in _CLUSTER_POSITIVE_INTS:
            value = getattr(self.cluster, name)
            if type(value) is not int or value <= 0:
                raise ValueError(f"cluster.{name} must be a positive int, got {value!r}")
        if type(self.cluster.enforce_gcc_pairs) is not bool:
            raise ValueError(
                f"cluster.enforce_gcc_pairs must be a bool, got {self.cluster.enforce_gcc_pairs!r}"
            )
        if self.network.max_body_words > self.cluster.num_mc_regs:
            raise ValueError(
                "message body length cannot exceed the number of message-composition registers"
            )
        if self.runtime.shared_memory_mode not in ("none", "remote", "coherent"):
            raise ValueError(f"unknown shared-memory mode {self.runtime.shared_memory_mode!r}")
        if self.cluster.issue_policy not in ("event-priority", "round-robin", "hep"):
            raise ValueError(f"unknown issue policy {self.cluster.issue_policy!r}")
        if self.sim.kernel not in ("event", "naive"):
            raise ValueError(f"unknown simulation kernel {self.sim.kernel!r}")
        if self.trace_chunk_events <= 0:
            raise ValueError("trace_chunk_events must be a positive event count")


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
_TOP_LEVEL_KEYS: Tuple[str, ...] = ("trace_enabled", "trace_dir", "trace_chunk_events")


def override_keys() -> List[str]:
    """Every valid dotted override key, sorted (``"section.attr"`` plus the
    top-level trace keys)."""
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
