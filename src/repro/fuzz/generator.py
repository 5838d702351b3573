"""Seeded random-program generator for differential fuzzing.

The generator emits *legal-by-construction* multi-thread scenarios over the
instruction mixes the M-Machine paper cares about: register compute loops,
user-level SEND traffic (the hardware message queues), remote-memory reads,
and guarded-pointer derives/accesses (Section 4.4).  Fault-density knobs add
protection violators (out-of-segment derives, permission violations, forged
pointers), injected SECDED single/double-bit flips through
:mod:`repro.memory.secded`, and forced NACK storms (undersized message
queues with aggressive retransmit).

Everything is deterministic from ``(seed, knobs)``: the RNG is seeded with
the SHA-256 of the seed and the knobs' :func:`config_fingerprint`, so the
same pair always yields byte-identical programs — which is what lets CI pin
seeds and lets a repro file replay a failure in a fresh process.

A :class:`GeneratedProgram` is plain structured data (thread kinds +
parameters, mappings, initial words, bit flips), so it JSON round-trips for
repro files and shrinks structurally; assembly sources are rendered from the
structure at machine-build time.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.schema import config_fingerprint
from repro.core.config import MachineConfig, apply_overrides
from repro.core.machine import MMachine
from repro.memory.guarded_pointer import PointerPermission, make_pointer
from repro.memory.secded import CODEWORD_BITS

#: Private per-thread heap slices (one page each) start here.
HEAP_BASE = 0x10000
#: Slice read by the SECDED victim thread (single-bit flips land here).
SECDED_BASE = 0x30000
#: Region homed on the far node for message / remote-read traffic.
REMOTE_BASE = 0x40000
#: Words that receive double-bit flips; mapped but never read by programs,
#: so the poisoned codewords travel through snapshots without being decoded.
POISON_BASE = 0x60000

#: Address stride between private slices (>= one 512-word page).
_PAGE_STRIDE = 0x1000

#: 32-bit mask compute loops apply every iteration to keep values bounded.
_COMPUTE_MASK = (1 << 32) - 1

#: Binary ALU ops compute loops draw from (all total on ints).
_COMPUTE_OPS = ("add", "sub", "and", "or", "xor", "min", "max", "mul")

#: Protection-violation modes the ``violator`` thread kind draws from.
VIOLATION_MODES = ("plain-int", "oob-ld", "ro-store", "oob-lea", "forge")


@dataclass(frozen=True)
class GeneratorKnobs:
    """Tuning knobs of the generator (all deterministic given a seed)."""

    mesh: Tuple[int, int, int] = (2, 1, 1)
    max_threads: int = 4
    max_iterations: int = 8
    max_messages: int = 6
    #: Probability that a drawn thread is a protection violator; any violator
    #: switches the whole machine to ``runtime.protection_enabled``.
    fault_density: float = 0.25
    #: Upper bound on injected correctable (single-bit) SECDED flips.
    secded_single_flips: int = 2
    #: Upper bound on injected uncorrectable (double-bit) SECDED flips.
    secded_double_flips: int = 1
    #: Shrink the receive queues and retransmit interval when the program
    #: contains message traffic, forcing NACK/retransmit storms.
    nack_storm: bool = False
    max_cycles: int = 120_000

    def to_params(self) -> Dict[str, object]:
        """JSON-safe dict of the knobs (the fingerprint input)."""
        return {
            "mesh": list(self.mesh),
            "max_threads": self.max_threads,
            "max_iterations": self.max_iterations,
            "max_messages": self.max_messages,
            "fault_density": self.fault_density,
            "secded_single_flips": self.secded_single_flips,
            "secded_double_flips": self.secded_double_flips,
            "nack_storm": self.nack_storm,
            "max_cycles": self.max_cycles,
        }

    @classmethod
    def from_params(cls, params: Dict[str, object]) -> "GeneratorKnobs":
        params = dict(params)
        params["mesh"] = tuple(params.get("mesh", (2, 1, 1)))
        return cls(**params)

    @property
    def fingerprint(self) -> str:
        """The 8-hex config fingerprint of these knobs (see sweep.spec)."""
        return config_fingerprint("fuzz-generator", self.to_params())


@dataclass
class ThreadSpec:
    """One generated H-Thread: placement, kind and render parameters."""

    node: int
    slot: int
    cluster: int
    kind: str
    params: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "node": self.node,
            "slot": self.slot,
            "cluster": self.cluster,
            "kind": self.kind,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ThreadSpec":
        return cls(
            node=int(data["node"]),
            slot=int(data["slot"]),
            cluster=int(data["cluster"]),
            kind=str(data["kind"]),
            params=dict(data.get("params") or {}),
        )


def _flips(entries, bits: int) -> List[tuple]:
    """Decode ``(node, vaddr, bit...)`` flip entries with *bits* bits each.

    Raises ``ValueError`` unless every bit lies inside the SECDED codeword
    and the bits of one entry differ: a flip outside the codeword is not a
    memory error, and a bit flipped twice cancels out.
    """
    flips = [tuple(entry) for entry in entries or []]
    for flip in flips:
        if len(flip) != 2 + bits:
            raise ValueError(f"flip {list(flip)} needs a node, an address and {bits} bit(s)")
        for bit in flip[2:]:
            if type(bit) is not int or not 0 <= bit < CODEWORD_BITS:
                raise ValueError(f"flip bit {bit!r} outside the {CODEWORD_BITS}-bit codeword")
        if len(set(flip[2:])) != bits:
            raise ValueError(f"double flip {list(flip)} names bit {flip[2]} twice")
    return flips


@dataclass
class GeneratedProgram:
    """A complete generated scenario, serialisable for repro files."""

    seed: int
    knobs: GeneratorKnobs
    mesh: Tuple[int, int, int]
    config_overrides: Dict[str, object] = field(default_factory=dict)
    #: ``(node, base_vaddr, num_pages)`` page-group mappings.
    mappings: List[Tuple[int, int, int]] = field(default_factory=list)
    #: ``(vaddr, value)`` words written before the run starts.
    initial_words: List[Tuple[int, int]] = field(default_factory=list)
    #: ``(node, vaddr, bit)`` correctable single-bit flips.
    single_flips: List[Tuple[int, int, int]] = field(default_factory=list)
    #: ``(node, vaddr, bit_a, bit_b)`` uncorrectable double-bit flips.
    double_flips: List[Tuple[int, int, int, int]] = field(default_factory=list)
    threads: List[ThreadSpec] = field(default_factory=list)
    #: Mid-run snapshot point as a fraction of the reference run's cycles.
    snapshot_fraction: float = 0.5
    max_cycles: int = 120_000

    @property
    def fingerprint(self) -> str:
        """Identity of this program: seed + knobs fingerprint."""
        return config_fingerprint(
            "fuzz-program", {"seed": self.seed, "knobs": self.knobs.to_params()}
        )

    # -- serialisation (repro files) ------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": 1,
            "seed": self.seed,
            "knobs": self.knobs.to_params(),
            "fingerprint": self.fingerprint,
            "mesh": list(self.mesh),
            "config_overrides": dict(self.config_overrides),
            "mappings": [list(entry) for entry in self.mappings],
            "initial_words": [list(entry) for entry in self.initial_words],
            "single_flips": [list(entry) for entry in self.single_flips],
            "double_flips": [list(entry) for entry in self.double_flips],
            "threads": [thread.to_dict() for thread in self.threads],
            "snapshot_fraction": self.snapshot_fraction,
            "max_cycles": self.max_cycles,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "GeneratedProgram":
        return cls(
            seed=int(data["seed"]),
            knobs=GeneratorKnobs.from_params(dict(data["knobs"])),
            mesh=tuple(data["mesh"]),
            config_overrides=dict(data.get("config_overrides") or {}),
            mappings=[tuple(entry) for entry in data.get("mappings") or []],
            initial_words=[tuple(entry) for entry in data.get("initial_words") or []],
            single_flips=_flips(data.get("single_flips"), bits=1),
            double_flips=_flips(data.get("double_flips"), bits=2),
            threads=[ThreadSpec.from_dict(t) for t in data.get("threads") or []],
            snapshot_fraction=float(data.get("snapshot_fraction", 0.5)),
            max_cycles=int(data.get("max_cycles", 120_000)),
        )

    # -- machine construction -------------------------------------------------

    def build_machine(self, kernel: str = "event") -> MMachine:
        """Build (but do not run) the machine this program describes."""
        config = MachineConfig.small(*self.mesh)
        config.sim.kernel = kernel
        apply_overrides(config, dict(self.config_overrides))
        machine = MMachine(config)
        for node, base, pages in self.mappings:
            machine.map_on_node(node, base, num_pages=pages)
        for address, value in self.initial_words:
            machine.write_word(address, value)
        # Start every run cold: data reads must refill from SDRAM, which is
        # where the SECDED decode (and therefore the injected flips) lives.
        for node in machine.nodes:
            node.memory.flush_cache()
        for node, address, bit in self.single_flips:
            self._inject(machine, node, address, (bit,))
        for node, address, bit_a, bit_b in self.double_flips:
            self._inject(machine, node, address, (bit_a, bit_b))
        dip = machine.runtime.dip("remote_store")
        for thread in self.threads:
            source, registers = render_thread(thread, dip)
            machine.load_hthread(
                thread.node, thread.slot, thread.cluster, source, registers=registers
            )
        return machine

    @staticmethod
    def _inject(machine: MMachine, node: int, address: int, bits) -> None:
        memory = machine.nodes[node].memory
        physical = memory.translate(address)
        if physical is None:
            raise ValueError(f"flip target {address:#x} is not mapped on node {node}")
        memory.sdram.inject_bit_error(physical, bits)

    def run(self, machine: MMachine) -> int:
        """Run *machine* to quiescence under this program's cycle budget.

        ``run_until_quiescent`` (not ``run_until_user_done``) because faulted
        threads are never *finished*: a violator parks in
        ``ThreadState.FAULTED`` and the machine must still wind down cleanly.
        """
        return machine.run_until_quiescent(max_cycles=self.max_cycles)


# ---------------------------------------------------------------------------
# Thread rendering: structure -> assembly + registers
# ---------------------------------------------------------------------------


def render_thread(thread: ThreadSpec, remote_store_dip: int) -> Tuple[str, Dict[str, object]]:
    """Render one :class:`ThreadSpec` to ``(assembly_source, registers)``."""
    params = thread.params
    if thread.kind == "compute":
        return _render_compute(params)
    if thread.kind == "local-memory":
        return _render_local_memory(params)
    if thread.kind == "pointer-walk":
        return _render_pointer_walk(params)
    if thread.kind == "message":
        return _render_message(params, remote_store_dip)
    if thread.kind == "remote-read":
        return _render_remote_read(params)
    if thread.kind == "secded-read":
        return _render_secded_read(params)
    if thread.kind == "violator":
        return _render_violator(params)
    raise ValueError(f"unknown generated thread kind {thread.kind!r}")


def _loop(body_lines: Sequence[str], iterations: int) -> str:
    lines = ["        mov i4, #0", "        mov i5, #0"]
    lines.append("loop:")
    lines.extend(f"        {line}" for line in body_lines)
    lines.append("        add i4, i4, #1")
    lines.append(f"        lt i8, i4, #{iterations}")
    lines.append("        br i8, loop")
    lines.append("        halt")
    return "\n".join(lines)


def _render_compute(params: Dict[str, object]) -> Tuple[str, Dict[str, object]]:
    body = [f"mov i2, #{params['seed_a']}", f"mov i3, #{params['seed_b']}"]
    loop_body: List[str] = []
    for name, dst, lhs, rhs in params["ops"]:
        loop_body.append(f"{name} {dst}, {lhs}, {rhs}")
    # Re-bound everything each iteration so mul chains stay 32-bit.
    loop_body.extend(
        ["and i2, i2, i7", "and i3, i3, i7", "add i5, i5, i2", "and i5, i5, i7"]
    )
    source = "\n".join(
        f"        {line}" for line in body
    ) + "\n" + _loop(loop_body, int(params["iterations"]))
    return source, {"i7": _COMPUTE_MASK}


def _render_local_memory(params: Dict[str, object]) -> Tuple[str, Dict[str, object]]:
    loop_body: List[str] = []
    for index, offset in enumerate(params["offsets"]):
        value = int(params["values"][index])
        loop_body.append(f"mov i6, #{value}")
        loop_body.append(f"st i6, i1, #{offset}")
        loop_body.append(f"ld i3, i1, #{offset}")
        loop_body.append("add i5, i5, i3")
    source = _loop(loop_body, int(params["iterations"]))
    pointer = make_pointer(int(params["base"]), 64, PointerPermission.rw())
    return source, {"i1": pointer}


def _render_pointer_walk(params: Dict[str, object]) -> Tuple[str, Dict[str, object]]:
    loop_body: List[str] = []
    for offset in params["offsets"]:
        loop_body.append(f"lea i2, i1, #{offset}")
        loop_body.append("ld i3, i2")
        loop_body.append("add i5, i5, i3")
    source = _loop(loop_body, int(params["iterations"]))
    pointer = make_pointer(int(params["base"]), 64, PointerPermission.rw())
    return source, {"i1": pointer}


def _render_message(params: Dict[str, object], dip: int) -> Tuple[str, Dict[str, object]]:
    count = int(params["messages"])
    source = f"""
        mov i2, #{count}
        mov i3, #0
        mov i6, #{params['value_base']}
loop:   mov m0, i6
        send i1, #{dip}, #1
        add i1, i1, #1
        add i6, i6, #1
        add i3, i3, #1
        lt i5, i3, i2
        br i5, loop
        halt
"""
    return source, {"i1": int(params["dest"])}


def _render_remote_read(params: Dict[str, object]) -> Tuple[str, Dict[str, object]]:
    loop_body = ["ld i3, i1", "add i5, i5, i3"]
    source = _loop(loop_body, int(params["repeats"]))
    pointer = make_pointer(int(params["address"]), 64, PointerPermission.rw())
    return source, {"i1": pointer}


def _render_secded_read(params: Dict[str, object]) -> Tuple[str, Dict[str, object]]:
    loop_body: List[str] = []
    for offset in range(int(params["words"])):
        loop_body.append(f"ld i3, i1, #{offset}")
        loop_body.append("add i5, i5, i3")
    source = _loop(loop_body, 1)
    pointer = make_pointer(int(params["base"]), 64, PointerPermission.rw())
    return source, {"i1": pointer}


def _render_violator(params: Dict[str, object]) -> Tuple[str, Dict[str, object]]:
    mode = params["mode"]
    base = int(params["base"])
    rw_pointer = make_pointer(base, 64, PointerPermission.rw())
    if mode == "plain-int":
        return "        mov i5, #1\n        ld i6, i1\n        halt", {"i1": base}
    if mode == "oob-ld":
        return (
            f"        ld i6, i1, #{rw_pointer.segment_size << 2}\n        halt",
            {"i1": rw_pointer},
        )
    if mode == "ro-store":
        pointer = make_pointer(base, 64, PointerPermission.READ)
        return "        mov i6, #7\n        st i6, i1\n        halt", {"i1": pointer}
    if mode == "oob-lea":
        return (
            f"        lea i2, i1, #{rw_pointer.segment_size << 2}\n        halt",
            {"i1": rw_pointer},
        )
    if mode == "forge":
        return "        setptr i1, i2, #9, #7\n        halt", {"i2": base}
    raise ValueError(f"unknown violation mode {mode!r}")


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _derived_rng(seed: int, fingerprint: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{fingerprint}".encode()).hexdigest()
    return random.Random(int(digest, 16))


def generate_program(seed: int, knobs: Optional[GeneratorKnobs] = None) -> GeneratedProgram:
    """Generate the program for ``(seed, knobs)`` — always the same one."""
    knobs = knobs or GeneratorKnobs()
    rng = _derived_rng(seed, knobs.fingerprint)
    num_nodes = knobs.mesh[0] * knobs.mesh[1] * knobs.mesh[2]
    far = num_nodes - 1

    program = GeneratedProgram(
        seed=seed,
        knobs=knobs,
        mesh=tuple(knobs.mesh),
        snapshot_fraction=rng.uniform(0.1, 0.6),
        max_cycles=knobs.max_cycles,
    )

    kinds: List[str] = []
    for _ in range(rng.randint(1, max(1, knobs.max_threads))):
        if rng.random() < knobs.fault_density:
            kinds.append("violator")
        else:
            pool = ["compute", "local-memory", "pointer-walk"]
            if num_nodes > 1:
                pool += ["message", "remote-read"]
            kinds.append(rng.choice(pool))
    single_flips = rng.randint(0, knobs.secded_single_flips) if knobs.secded_single_flips else 0
    if single_flips:
        kinds.append("secded-read")
    double_flips = rng.randint(0, knobs.secded_double_flips) if knobs.secded_double_flips else 0

    if "violator" in kinds:
        program.config_overrides["runtime.protection_enabled"] = True
    if knobs.nack_storm and "message" in kinds:
        program.config_overrides["network.message_queue_words"] = 6
        program.config_overrides["network.retransmit_interval"] = 16

    used_contexts: set = set()

    def place(node: int) -> Tuple[int, int, int]:
        for slot in range(4):  # user slots only
            for cluster in range(4):
                if (node, slot, cluster) not in used_contexts:
                    used_contexts.add((node, slot, cluster))
                    return node, slot, cluster
        raise ValueError(f"node {node} has no free user contexts")

    slice_index = 0
    message_words = 0
    remote_words: List[int] = []
    remote_needed = any(kind in ("message", "remote-read") for kind in kinds)

    for kind in kinds:
        if kind in ("compute",):
            node, slot, cluster = place(rng.randrange(num_nodes))
            ops = []
            for _ in range(rng.randint(2, 5)):
                name = rng.choice(_COMPUTE_OPS)
                dst = rng.choice(("i2", "i3"))
                lhs = rng.choice(("i2", "i3", "i5"))
                rhs = rng.choice(("i2", "i3", f"#{rng.randint(1, 255)}"))
                ops.append([name, dst, lhs, rhs])
            params = {
                "iterations": rng.randint(2, knobs.max_iterations),
                "seed_a": rng.randint(1, 10_000),
                "seed_b": rng.randint(1, 10_000),
                "ops": ops,
            }
        elif kind in ("local-memory", "pointer-walk", "violator"):
            node, slot, cluster = place(rng.randrange(num_nodes))
            base = HEAP_BASE + slice_index * _PAGE_STRIDE
            slice_index += 1
            program.mappings.append((node, base, 1))
            if kind == "local-memory":
                offsets = rng.sample(range(48), rng.randint(1, 4))
                params = {
                    "base": base,
                    "offsets": sorted(offsets),
                    "values": [rng.randint(1, 1_000_000) for _ in offsets],
                    "iterations": rng.randint(2, knobs.max_iterations),
                }
            elif kind == "pointer-walk":
                offsets = sorted(rng.sample(range(48), rng.randint(2, 4)))
                for offset in offsets:
                    program.initial_words.append((base + offset, rng.randint(1, 1_000_000)))
                params = {
                    "base": base,
                    "offsets": offsets,
                    "iterations": rng.randint(2, knobs.max_iterations),
                }
            else:
                params = {"base": base, "mode": rng.choice(VIOLATION_MODES)}
        elif kind == "message":
            node, slot, cluster = place(rng.randrange(max(1, far)))
            count = rng.randint(1, knobs.max_messages)
            params = {
                "messages": count,
                "dest": REMOTE_BASE + message_words,
                "value_base": rng.randint(1_000, 9_000),
            }
            message_words += count
        elif kind == "remote-read":
            node, slot, cluster = place(rng.randrange(max(1, far)))
            address = REMOTE_BASE + 256 + len(remote_words)
            remote_words.append(address)
            program.initial_words.append((address, rng.randint(1, 1_000_000)))
            params = {"address": address, "repeats": rng.randint(1, 5)}
        elif kind == "secded-read":
            node, slot, cluster = place(0)
            words = rng.randint(max(2, single_flips), 10)
            program.mappings.append((0, SECDED_BASE, 1))
            for offset in range(words):
                program.initial_words.append((SECDED_BASE + offset, rng.randint(1, 1_000_000)))
            for offset in rng.sample(range(words), single_flips):
                program.single_flips.append((0, SECDED_BASE + offset, rng.randrange(72)))
            params = {"base": SECDED_BASE, "words": words}
        else:  # pragma: no cover - kinds list is closed above
            raise AssertionError(kind)
        program.threads.append(
            ThreadSpec(node=node, slot=slot, cluster=cluster, kind=kind, params=params)
        )

    if remote_needed:
        program.mappings.append((far, REMOTE_BASE, 1))
    if double_flips:
        program.mappings.append((0, POISON_BASE, 1))
        for offset in rng.sample(range(16), double_flips):
            address = POISON_BASE + offset
            program.initial_words.append((address, rng.randint(1, 1_000_000)))
            bit_a, bit_b = rng.sample(range(72), 2)
            program.double_flips.append((0, address, bit_a, bit_b))

    return program
